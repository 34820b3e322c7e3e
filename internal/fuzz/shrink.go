package fuzz

import (
	"sort"
	"strconv"

	"github.com/caps-sim/shs-k8s/internal/scenario"
)

// Clone deep-copies a scenario so shrink candidates can mutate freely.
func Clone(sc *scenario.Scenario) *scenario.Scenario {
	cp := *sc
	cp.Fleet.Tenants = append([]scenario.Tenant(nil), sc.Fleet.Tenants...)
	cp.Traffic = append([]scenario.TrafficSpec(nil), sc.Traffic...)
	cp.Assertions = append([]scenario.Assertion(nil), sc.Assertions...)
	cp.Events = make([]scenario.Event, len(sc.Events))
	for i, ev := range sc.Events {
		cp.Events[i] = ev
		cp.Events[i].Params = make(map[string]string, len(ev.Params))
		for k, v := range ev.Params {
			cp.Events[i].Params[k] = v
		}
	}
	return &cp
}

// Shrink greedily minimizes a spec that produced a violation named name:
// each reduction step — dropping an event, assertion, traffic spec or
// tenant, shrinking the fleet or the dragonfly, halving byte counts — is
// kept only if the reduced spec still validates and Execute still reports
// the same-named violation. The loop restarts after every accepted
// reduction and stops at a fixpoint or after budget Execute calls
// (0 means DefaultShrinkBudget). The result is what gets written to
// scenarios/fuzz-corpus/ as the replayable reproducer.
func Shrink(sc *scenario.Scenario, name string, budget int) *scenario.Scenario {
	if budget <= 0 {
		budget = DefaultShrinkBudget
	}
	cur := Clone(sc)
	evals := 0
	try := func(mutate func(*scenario.Scenario) bool) bool {
		if evals >= budget {
			return false
		}
		cand := Clone(cur)
		if !mutate(cand) {
			return false
		}
		if err := cand.Validate(); err != nil {
			return false // reduction broke a cross-reference; skip it
		}
		evals++
		if Execute(cand).Violation(name) == nil {
			return false
		}
		cur = cand
		return true
	}
	for improved := true; improved && evals < budget; {
		improved = false
		// Events first (never index 0: start_fleet must stay), last to
		// first so trailing cleanup drops before the interesting middle.
		for i := len(cur.Events) - 1; i >= 1 && !improved; i-- {
			i := i
			improved = try(func(c *scenario.Scenario) bool {
				c.Events = append(c.Events[:i:i], c.Events[i+1:]...)
				return true
			})
		}
		for i := len(cur.Assertions) - 1; i >= 0 && !improved; i-- {
			i := i
			improved = try(func(c *scenario.Scenario) bool {
				c.Assertions = append(c.Assertions[:i:i], c.Assertions[i+1:]...)
				return true
			})
		}
		for i := len(cur.Traffic) - 1; i >= 0 && !improved; i-- {
			i := i
			improved = try(func(c *scenario.Scenario) bool {
				c.Traffic = append(c.Traffic[:i:i], c.Traffic[i+1:]...)
				return true
			})
		}
		for i := len(cur.Fleet.Tenants) - 1; i >= 0 && !improved; i-- {
			i := i
			improved = try(func(c *scenario.Scenario) bool {
				c.Fleet.Tenants = append(c.Fleet.Tenants[:i:i], c.Fleet.Tenants[i+1:]...)
				return true
			})
		}
		if !improved {
			improved = try(func(c *scenario.Scenario) bool {
				if c.Fleet.Nodes <= 2 {
					return false
				}
				c.Fleet.Nodes = c.Fleet.Nodes / 2
				if c.Fleet.Nodes < 2 {
					c.Fleet.Nodes = 2
				}
				return true
			})
		}
		if !improved {
			improved = try(func(c *scenario.Scenario) bool {
				if c.Topology.Groups <= 1 {
					return false
				}
				c.Topology.Groups--
				return true
			})
		}
		if !improved {
			improved = try(func(c *scenario.Scenario) bool {
				if c.Topology.SwitchesPerGroup <= 1 {
					return false
				}
				c.Topology.SwitchesPerGroup--
				if c.Topology.GlobalLinksPerPair > c.Topology.SwitchesPerGroup {
					c.Topology.GlobalLinksPerPair = c.Topology.SwitchesPerGroup
				}
				return true
			})
		}
		// Drop optional event parameters one at a time; dropping a
		// required one fails validation and is filtered out.
		for i := range cur.Events {
			if improved {
				break
			}
			keys := sortedKeys(cur.Events[i].Params)
			for _, k := range keys {
				if improved {
					break
				}
				i, k := i, k
				improved = try(func(c *scenario.Scenario) bool {
					delete(c.Events[i].Params, k)
					return true
				})
			}
		}
		// Reset fleet knobs the emitter would otherwise have to spell out.
		if !improved {
			improved = try(func(c *scenario.Scenario) bool {
				d := scenario.DefaultFleet()
				if c.Fleet.VNIPoolMin == d.VNIPoolMin && c.Fleet.VNIPoolMax == d.VNIPoolMax &&
					c.Fleet.Quarantine == d.Quarantine && c.Fleet.PodsPerNode == d.PodsPerNode {
					return false
				}
				c.Fleet.VNIPoolMin = d.VNIPoolMin
				c.Fleet.VNIPoolMax = d.VNIPoolMax
				c.Fleet.Quarantine = d.Quarantine
				c.Fleet.PodsPerNode = d.PodsPerNode
				return true
			})
		}
		// Halve numeric knobs: traffic volume and per-event counts.
		for i := range cur.Traffic {
			if improved {
				break
			}
			i := i
			improved = try(func(c *scenario.Scenario) bool {
				t := &c.Traffic[i]
				if t.Bytes <= 1 && t.Iterations <= 1 {
					return false
				}
				if t.Bytes > 1 {
					t.Bytes /= 2
				}
				if t.Iterations > 1 {
					t.Iterations /= 2
				}
				return true
			})
		}
		for i := range cur.Events {
			if improved {
				break
			}
			i := i
			improved = try(func(c *scenario.Scenario) bool {
				return halveParams(&c.Events[i], "pods", "count", "rounds", "bytes")
			})
		}
	}
	return cur
}

// sortedKeys returns the map's keys in sorted order so shrinking is
// deterministic.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// halveParams halves each named integer parameter that is above 1; it
// reports whether anything changed. Halving can invalidate a spec (a gang
// shrunk below two pods); Shrink's validation and re-execution filter
// those candidates out.
func halveParams(ev *scenario.Event, keys ...string) bool {
	changed := false
	for _, k := range keys {
		if v, ok := ev.Params[k]; ok {
			if n, err := strconv.Atoi(v); err == nil && n > 1 {
				ev.Params[k] = strconv.Itoa(n / 2)
				changed = true
			}
		}
	}
	return changed
}
