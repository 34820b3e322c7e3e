package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
)

// EmitYAML renders the scenario back into the YAML subset Parse reads, so
// machine-built specs — above all the fuzz harness's shrunk reproducers —
// can be written to disk and replayed byte-for-byte with `shssim run` or
// `shssim fuzz -replay`. The emission is canonical and minimal: sections in
// schema order, event parameters sorted, and every section key whose value
// Parse would fill in anyway (the fleet defaults, a normalized 1×1
// topology, the traffic defaults) expressed by omission, which keeps
// shrunk reproducers close to the few lines that actually matter. It round-trips: for any
// valid scenario, Parse(EmitYAML(sc)) yields a spec deeply equal to sc up
// to source positions (Path and the Line fields), which emission cannot
// and need not preserve — defaults refill identically on re-parse.
// emit_test.go locks that contract over every bundled scenario.
func EmitYAML(sc *Scenario) []byte {
	var b strings.Builder
	kv := func(indent int, key, val string) {
		b.WriteString(strings.Repeat(" ", indent))
		b.WriteString(key)
		b.WriteString(":")
		if val != "" {
			b.WriteString(" ")
			b.WriteString(quoteScalar(val))
		}
		b.WriteString("\n")
	}
	kv(0, "name", sc.Name)
	if sc.Description != "" {
		kv(0, "description", sc.Description)
	}
	if sc.Seed != 1 {
		kv(0, "seed", strconv.FormatInt(sc.Seed, 10))
	}

	// A section key is printed iff its value differs from the section
	// default; the zero telemetry and health sections are their defaults.
	block := func(header string, kvs [][2]string) {
		b.WriteString(header)
		for _, e := range kvs {
			kv(2, e[0], e[1])
		}
	}
	// Normalize fills the defaults even for a shape it rejects; Validate
	// reports that error, and the emitter writes what it was given.
	topo, _ := sc.Topology.Normalize()
	topoDef, _ := fabric.TopologySpec{}.Normalize()
	if kvs := changedKeys(topologyKeys, &topo, &topoDef); len(kvs) > 0 {
		block("\ntopology:\n", kvs)
	}

	fleetDef := DefaultFleet()
	if kvs := changedKeys(fleetKeys, &sc.Fleet, &fleetDef); len(kvs) > 0 || len(sc.Fleet.Tenants) > 0 {
		block("\nfleet:\n", kvs)
		if len(sc.Fleet.Tenants) > 0 {
			b.WriteString("  tenants:\n")
			for _, t := range sc.Fleet.Tenants {
				kv(4, "- name", t.Name)
			}
		}
	}

	if len(sc.Traffic) > 0 {
		b.WriteString("\ntraffic:\n")
		trafficDef := defaultTraffic()
		for i := range sc.Traffic {
			for j, e := range changedKeys(trafficKeys, &sc.Traffic[i], &trafficDef) {
				if j == 0 {
					kv(2, "- "+e[0], e[1])
				} else {
					kv(4, e[0], e[1])
				}
			}
		}
	}

	if kvs := changedKeys(telemetryKeys, &sc.Telemetry, &TelemetrySpec{}); len(kvs) > 0 {
		block("\ntelemetry:\n", kvs)
	}
	if kvs := changedKeys(healthKeys, &sc.Health, &HealthSpec{}); len(kvs) > 0 {
		block("\nhealth:\n", kvs)
	}

	b.WriteString("\nevents:\n")
	for i := range sc.Events {
		ev := &sc.Events[i]
		kv(2, "- at", time.Duration(ev.At).String())
		kv(4, "action", ev.Action)
		if ev.Target != "" {
			kv(4, "target", ev.Target)
		}
		keys := make([]string, 0, len(ev.Params))
		for k := range ev.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			kv(4, k, ev.Params[k])
		}
	}

	if len(sc.Assertions) > 0 {
		b.WriteString("\nassertions:\n")
		for i := range sc.Assertions {
			a := &sc.Assertions[i]
			kv(2, "- type", a.Type)
			if a.Target != "" {
				kv(4, "target", a.Target)
			}
			kv(4, "op", a.Op)
			kv(4, "value", a.Value)
		}
	}
	return []byte(b.String())
}

// quoteScalar wraps a value in quotes when the plain spelling would not
// survive a re-parse: comment introducers, surrounding whitespace, or a
// leading quote character (cleanScalar would strip it).
func quoteScalar(v string) string {
	if v == "" {
		return v
	}
	needs := v[0] == '"' || v[0] == '\'' ||
		strings.Contains(v, " #") || strings.TrimSpace(v) != v
	if !needs {
		return v
	}
	if !strings.Contains(v, `"`) {
		return `"` + v + `"`
	}
	if !strings.Contains(v, "'") {
		return "'" + v + "'"
	}
	// Both quote characters present: the subset cannot spell it; emit the
	// longest parseable prefix rather than a syntax error.
	return fmt.Sprintf("%q", v)
}
