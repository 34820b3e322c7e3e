// Package scenario is the declarative workload layer over the simulated
// deployment: a scenario file describes a fleet (nodes, tenants, VNI pool),
// a timed event sequence (job submission, fault injection, churn,
// isolation probes) and end-state assertions (allocation counts, completed
// jobs, zero isolation violations, latency bounds). The engine drives
// internal/stack on the virtual internal/sim clock, so a multi-minute
// cluster scenario runs deterministically in milliseconds of wall time.
//
// Scenario files use a hand-rolled YAML subset (see yaml.go) — block
// mappings, "- " sequences, scalars and comments — so no dependency beyond
// the standard library is needed. `shssim run`, `shssim validate` and
// `shssim list` (cmd/shssim) are the command-line front end; the file
// format is documented in docs/scenarios.md.
package scenario

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/workload"
)

// Fleet describes the simulated deployment a scenario runs against. The
// topology is the paper's: one Rosetta switch with one Cassini NIC per
// node; tenants map to Kubernetes namespaces.
type Fleet struct {
	// Nodes is the worker count (default 2, the OpenCUBE pilot).
	Nodes int
	// VNIService installs the paper's integration (default true); false
	// runs the vni:false baseline.
	VNIService bool
	// VNIPoolMin/VNIPoolMax bound the allocatable VNI pool; shrinking the
	// pool is how exhaustion scenarios are built.
	VNIPoolMin, VNIPoolMax fabric.VNI
	// Quarantine is the VNI release quarantine (default 30s, the paper's).
	Quarantine sim.Duration
	// PodsPerNode is the scheduler's soft per-node pod budget: placement
	// avoids nodes at the budget while any node below it exists, which is
	// what pushes a job's pods across dragonfly groups under pressure.
	// 0 (default) disables the check.
	PodsPerNode int
	// Tenants are the namespaces workloads run in.
	Tenants []Tenant
}

// Tenant is one isolation domain (a Kubernetes namespace).
type Tenant struct {
	Name string
}

// Event is one timed scenario step.
type Event struct {
	// At is the virtual time offset from scenario start.
	At sim.Duration
	// Action names the step; see docs/scenarios.md for the catalogue.
	Action string
	// Target is the action's subject (a node for fault actions, a drop
	// reason for assertions); tenant-scoped actions use the tenant param.
	Target string
	// Params are the action's scalar parameters.
	Params map[string]string
	// Line anchors errors to the source file.
	Line int
}

// Param returns a parameter value or a default.
func (e *Event) Param(key, def string) string {
	if v, ok := e.Params[key]; ok {
		return v
	}
	return def
}

// TrafficSpec is one named communication workload the traffic: section
// defines and run_traffic events execute against a job's gang of pods;
// docs/workloads.md documents the patterns and their cost models.
type TrafficSpec struct {
	// Name is the handle run_traffic events reference.
	Name string
	// Pattern is the collective (allreduce-ring, allreduce-rd, alltoall,
	// halo).
	Pattern string
	// Bytes is the per-call payload (default 65536).
	Bytes int
	// Iterations is the number of collective calls (default 10).
	Iterations int
	// Compute is simulated application compute between iterations.
	Compute sim.Duration
	// Fidelity is the fabric execution mode ("packet", "flow" or "hybrid";
	// "" means packet). See fabric.Fidelity and docs/performance.md.
	Fidelity string
	// Line anchors errors to the source file.
	Line int
}

// Workload converts the spec into the workload engine's form.
func (t TrafficSpec) Workload() workload.Spec {
	// Validate already vetted the string; an unknown name maps to the
	// packet default here.
	fid, _ := fabric.ParseFidelity(t.Fidelity)
	return workload.Spec{
		Pattern:    workload.Pattern(t.Pattern),
		Bytes:      t.Bytes,
		Iterations: t.Iterations,
		Compute:    t.Compute,
		Fidelity:   fid,
	}
}

// TelemetrySpec is the telemetry: section: when SampleEvery is set, the
// run attaches a virtual-clock sampler (internal/telemetry) at fleet boot
// and — when Sink names a file — writes the collected series as JSONL
// after the run. The zero value disables telemetry entirely, preserving
// the zero-cost-when-unused contract.
type TelemetrySpec struct {
	// SampleEvery is the sampling period on the virtual clock (> 0
	// enables telemetry).
	SampleEvery sim.Duration
	// Sink is the JSONL output path ("" keeps the series in memory for
	// telemetry_* assertions only). Relative paths resolve against the
	// working directory, as any CLI output path does.
	Sink string
	// Capacity bounds the sample ring (0 = telemetry.DefaultCapacity);
	// when full, the oldest samples are overwritten.
	Capacity int
}

// Enabled reports whether the scenario samples telemetry.
func (t TelemetrySpec) Enabled() bool { return t.SampleEvery > 0 }

// HealthSpec is the health: section: when CheckEvery is set, the fleet
// boots with the autonomous health + remediation loop attached — the
// internal/health daemon polling NIC error counters and link state, and
// the internal/remediate controller draining, replacing and uncordoning
// what the daemon cordons. The zero value disables the loop entirely;
// scenarios without this section draw exactly the same random-number
// stream as before the loop existed (the daemon and controller install
// watches and timers only when constructed).
type HealthSpec struct {
	// CheckEvery is the daemon's poll period (> 0 enables the loop).
	CheckEvery sim.Duration
	// ErrorsPerSecond is the EWMA error-rate cordon threshold
	// (0 = health.DefaultConfig).
	ErrorsPerSecond float64
	// FlapsPerSecond is the EWMA link state-transition rate above which
	// a link is declared flapping (0 = default).
	FlapsPerSecond float64
	// DegradeTicks is how many consecutive over-threshold polls cordon a
	// node (0 = default).
	DegradeTicks int
	// StableTicks is how many quiet polls clear a flapping link
	// (0 = default).
	StableTicks int
	// Budget caps concurrent remediations (0 = default 1).
	Budget int
	// DrainGrace is the migrate-off window before pod eviction
	// (0 = default).
	DrainGrace sim.Duration
	// ReplaceDelay models the hardware swap time (0 = default).
	ReplaceDelay sim.Duration
	// RetryBackoff is the initial replace-retry backoff (0 = default).
	RetryBackoff sim.Duration
	// MaxRetries bounds replace attempts (0 = default).
	MaxRetries int
}

// Enabled reports whether the scenario runs the health loop.
func (h HealthSpec) Enabled() bool { return h.CheckEvery > 0 }

// Assertion is one end-state check evaluated after all events ran.
type Assertion struct {
	// Type names the probed quantity (vnis_allocated, jobs_completed,
	// isolation_violations, latency_us, ...).
	Type string
	// Target scopes the probe: a tenant for job counts, a drop reason for
	// switch_drops, a statistic (p50, p90, p99, max, mean) for latency_us.
	Target string
	// Op compares actual to Value: ==, !=, <, <=, >, >= (default ==).
	Op string
	// Value is the expected number (true/false allowed for boolean types).
	Value string
	// Line anchors errors and failure reports to the source file.
	Line int
}

// Scenario is one parsed scenario file.
type Scenario struct {
	Name        string
	Description string
	// Seed feeds the deterministic simulation engine (default 1).
	Seed  int64
	Fleet Fleet
	// Topology shapes the fabric (dragonfly groups, switches per group,
	// NIC striping, global-link overrides); the zero value is the
	// paper's single-switch fabric.
	Topology fabric.TopologySpec
	// Traffic holds the named communication workloads run_traffic events
	// execute.
	Traffic []TrafficSpec
	// Telemetry configures the time-series sampler; the zero value means
	// no sampling.
	Telemetry TelemetrySpec
	// Health configures the autonomous health + remediation loop; the
	// zero value means no loop.
	Health     HealthSpec
	Events     []Event
	Assertions []Assertion
	// Path is the source file, "" when parsed from a reader.
	Path string
}

// errAt builds a line-anchored error for a source position.
func (sc *Scenario) errAt(line int, format string, args ...any) error {
	where := sc.Path
	if where == "" {
		where = "scenario"
	}
	return fmt.Errorf("%s:%d: %s", where, line, fmt.Sprintf(format, args...))
}

// Parse reads and validates a scenario from r.
func Parse(r io.Reader) (*Scenario, error) { return parse(r, "") }

// ParseFile reads and validates a scenario file.
func ParseFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f, path)
}

func parse(r io.Reader, path string) (*Scenario, error) {
	root, err := parseTree(r)
	if err != nil {
		if path != "" {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return nil, err
	}
	sc := &Scenario{Path: path, Seed: 1, Fleet: DefaultFleet()}
	if err := sc.decode(root); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// decode maps the parsed tree onto the schema, rejecting unknown keys so
// typos surface as line-anchored errors instead of silently ignored knobs.
func (sc *Scenario) decode(root *value) error {
	if root.kind != mapNode {
		return sc.errAt(root.line, "top level must be a mapping")
	}
	for _, key := range root.keys {
		v := root.child[key]
		var err error
		switch key {
		case "name":
			sc.Name = v.scalar
		case "description":
			sc.Description = v.scalar
		case "seed":
			if sc.Seed, err = strconv.ParseInt(v.scalar, 10, 64); err != nil {
				err = sc.errAt(v.line, "seed: not an integer: %q", v.scalar)
			}
		case "fleet":
			err = decodeMap(sc, key, v, fleetKeys, &sc.Fleet, sc.decodeTenants)
		case "topology":
			err = decodeMap(sc, key, v, topologyKeys, &sc.Topology, nil)
		case "traffic":
			err = sc.decodeTraffic(v)
		case "telemetry":
			if err = decodeMap(sc, key, v, telemetryKeys, &sc.Telemetry, nil); err == nil && !sc.Telemetry.Enabled() {
				err = sc.errAt(v.line, "telemetry: needs sampleEvery")
			}
		case "health":
			if err = decodeMap(sc, key, v, healthKeys, &sc.Health, nil); err == nil && !sc.Health.Enabled() {
				err = sc.errAt(v.line, "health: needs checkEvery")
			}
		case "events":
			err = sc.decodeEvents(v)
		case "assertions":
			err = sc.decodeAssertions(v)
		default:
			err = sc.errAt(v.line, "unknown top-level key %q", key)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// decodeTenants decodes fleet.tenants: a sequence of names or of
// name: mappings.
func (sc *Scenario) decodeTenants(c *value) error {
	if c.kind != seqNode {
		return sc.errAt(c.line, "fleet.tenants: must be a sequence")
	}
	for _, item := range c.items {
		switch item.kind {
		case scalarNode:
			sc.Fleet.Tenants = append(sc.Fleet.Tenants, Tenant{Name: item.scalar})
		case mapNode:
			name := item.str("name")
			if name == "" {
				return sc.errAt(item.line, "fleet.tenants: tenant needs a name")
			}
			for _, k := range item.keys {
				if k != "name" {
					return sc.errAt(item.child[k].line, "fleet.tenants: unknown tenant key %q", k)
				}
			}
			sc.Fleet.Tenants = append(sc.Fleet.Tenants, Tenant{Name: name})
		default:
			return sc.errAt(item.line, "fleet.tenants: invalid tenant entry")
		}
	}
	return nil
}

// decodeTraffic maps the traffic: section onto TrafficSpecs.
func (sc *Scenario) decodeTraffic(v *value) error {
	if v.kind != seqNode {
		return sc.errAt(v.line, "traffic: must be a sequence")
	}
	for _, item := range v.items {
		if item.kind != mapNode {
			return sc.errAt(item.line, "traffic: each entry must be a mapping")
		}
		ts := defaultTraffic()
		ts.Line = item.line
		for _, key := range item.keys {
			c := item.child[key]
			if c.kind != scalarNode {
				return sc.errAt(c.line, "traffic: %q must be a scalar", key)
			}
			if err := decodeKey(sc, "traffic", trafficKeys, &ts, key, c); err != nil {
				return err
			}
		}
		sc.Traffic = append(sc.Traffic, ts)
	}
	return nil
}

func (sc *Scenario) decodeEvents(v *value) error {
	if v.kind != seqNode {
		return sc.errAt(v.line, "events: must be a sequence")
	}
	for _, item := range v.items {
		if item.kind != mapNode {
			return sc.errAt(item.line, "events: each event must be a mapping")
		}
		ev := Event{Line: item.line, Params: map[string]string{}}
		for _, key := range item.keys {
			c := item.child[key]
			if c.kind != scalarNode {
				return sc.errAt(c.line, "events: %q must be a scalar", key)
			}
			switch key {
			case "at":
				d, err := time.ParseDuration(c.scalar)
				if err != nil || d < 0 {
					return sc.errAt(c.line, "events: at: not a duration: %q", c.scalar)
				}
				ev.At = d
			case "action":
				ev.Action = c.scalar
			case "target":
				ev.Target = c.scalar
			default:
				ev.Params[key] = c.scalar
			}
		}
		sc.Events = append(sc.Events, ev)
	}
	return nil
}

func (sc *Scenario) decodeAssertions(v *value) error {
	if v.kind != seqNode {
		return sc.errAt(v.line, "assertions: must be a sequence")
	}
	for _, item := range v.items {
		if item.kind != mapNode {
			return sc.errAt(item.line, "assertions: each assertion must be a mapping")
		}
		a := Assertion{Line: item.line, Op: "=="}
		for _, key := range item.keys {
			c := item.child[key]
			if c.kind != scalarNode {
				return sc.errAt(c.line, "assertions: %q must be a scalar", key)
			}
			switch key {
			case "type":
				a.Type = c.scalar
			case "target":
				a.Target = c.scalar
			case "op":
				a.Op = c.scalar
			case "value":
				a.Value = c.scalar
			default:
				return sc.errAt(c.line, "assertions: unknown key %q", key)
			}
		}
		sc.Assertions = append(sc.Assertions, a)
	}
	return nil
}

var compareOps = map[string]func(a, b float64) bool{
	"==": func(a, b float64) bool { return a == b },
	"!=": func(a, b float64) bool { return a != b },
	"<":  func(a, b float64) bool { return a < b },
	"<=": func(a, b float64) bool { return a <= b },
	">":  func(a, b float64) bool { return a > b },
	">=": func(a, b float64) bool { return a >= b },
}

// Validate checks the scenario against the schema: known actions with
// complete parameters, resolvable targets, well-formed assertions. It is
// what `shssim validate` runs; Parse calls it automatically.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return sc.errAt(1, "scenario needs a name")
	}
	fl := &sc.Fleet
	if fl.VNIPoolMax < fl.VNIPoolMin {
		return sc.errAt(1, "fleet: vniPoolMax %d below vniPoolMin %d", fl.VNIPoolMax, fl.VNIPoolMin)
	}
	topo, err := sc.Topology.Normalize()
	if err != nil {
		return sc.errAt(1, "topology: %v", err)
	}
	sc.Topology = topo
	for i, t := range fl.Tenants {
		for _, u := range fl.Tenants[:i] {
			if u.Name == t.Name {
				return sc.errAt(1, "fleet: duplicate tenant %q", t.Name)
			}
		}
	}
	if len(sc.Events) == 0 {
		return sc.errAt(1, "scenario needs at least one event")
	}
	if sc.Events[0].Action != "start_fleet" {
		return sc.errAt(sc.Events[0].Line, "first event must be start_fleet, got %q", sc.Events[0].Action)
	}
	for i := 1; i < len(sc.Events); i++ {
		if sc.Events[i].At < sc.Events[i-1].At {
			return sc.errAt(sc.Events[i].Line, "events must be ordered by time: %v after %v",
				sc.Events[i].At, sc.Events[i-1].At)
		}
		if sc.Events[i].Action == "start_fleet" {
			return sc.errAt(sc.Events[i].Line, "start_fleet must appear exactly once, first")
		}
	}
	for i := range sc.Traffic {
		ts := &sc.Traffic[i]
		if ts.Name == "" {
			return sc.errAt(ts.Line, "traffic: entry needs a name")
		}
		if sc.trafficSpec(ts.Name) != ts {
			return sc.errAt(ts.Line, "traffic: duplicate name %q", ts.Name)
		}
		// Workload() maps unknown fidelity names to the packet default, so
		// vet the string here (it also covers specs built programmatically,
		// e.g. by the fuzzer's generator).
		if _, err := fabric.ParseFidelity(ts.Fidelity); err != nil {
			return sc.errAt(ts.Line, "traffic %q: %v", ts.Name, err)
		}
		if err := ts.Workload().Validate(); err != nil {
			return sc.errAt(ts.Line, "traffic %q: %v", ts.Name, err)
		}
	}
	for i := range sc.Events {
		if err := sc.ValidateEvent(&sc.Events[i]); err != nil {
			return sc.errAt(sc.Events[i].Line, "%v", err)
		}
	}
	// Each run_traffic event produces one named report (the as param,
	// defaulting to the traffic name); traffic_* assertions probe them.
	runs := map[string]bool{}
	for i := range sc.Events {
		ev := &sc.Events[i]
		if ev.Action != "run_traffic" {
			continue
		}
		name := ev.Param("as", ev.Params["traffic"])
		if runs[name] {
			return sc.errAt(ev.Line, "run_traffic: duplicate run name %q (use as to disambiguate)", name)
		}
		runs[name] = true
	}
	for i := range sc.Assertions {
		if err := sc.validateAssertion(&sc.Assertions[i], runs); err != nil {
			return sc.errAt(sc.Assertions[i].Line, "%v", err)
		}
	}
	return nil
}

// parseExpected turns an assertion value into a comparable number; booleans
// map to 0/1.
func parseExpected(v string) (float64, error) {
	if b, err := strconv.ParseBool(v); err == nil {
		if b {
			return 1, nil
		}
		return 0, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("not a number or boolean: %q", v)
	}
	return f, nil
}

// validNode reports whether name is one of the fleet's nodes (node0..nodeN-1).
func (sc *Scenario) validNode(name string) bool {
	rest, ok := strings.CutPrefix(name, "node")
	if !ok {
		return false
	}
	n, err := strconv.Atoi(rest)
	return err == nil && n >= 0 && n < sc.Fleet.Nodes && strconv.Itoa(n) == rest
}

// hasTenant reports whether the fleet declares the tenant.
func (sc *Scenario) hasTenant(name string) bool {
	for _, t := range sc.Fleet.Tenants {
		if t.Name == name {
			return true
		}
	}
	return false
}

// trafficSpec returns the first traffic: entry called name, or nil.
func (sc *Scenario) trafficSpec(name string) *TrafficSpec {
	for i := range sc.Traffic {
		if sc.Traffic[i].Name == name {
			return &sc.Traffic[i]
		}
	}
	return nil
}

// splitList splits a comma-separated parameter into its non-empty entries.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
