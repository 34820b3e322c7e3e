package fuzz

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/scenario"
)

// TestCampaignClean is the tier-1 smoke form of the acceptance run: a
// deterministic campaign over the current tree must produce zero invariant
// findings. (`shssim fuzz -n 500 -seed 1` is the full-size version.)
func TestCampaignClean(t *testing.T) {
	var out bytes.Buffer
	findings, err := Run(Options{N: 60, Seed: 1, Out: &out})
	if err != nil {
		t.Fatalf("campaign error: %v", err)
	}
	if len(findings) > 0 {
		t.Fatalf("expected a clean campaign, got %d finding(s):\n%s", len(findings), out.String())
	}
}

// TestGeneratorCoverage checks the generator actually reaches the shapes
// the harness exists to stress: multi-group fabrics, NIC striping, faults,
// traffic, churn, isolation probes, and the vni:false baseline.
func TestGeneratorCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		sc := Generate(rng, DefaultConfig())
		if sc.Topology.Groups > 1 {
			seen["multigroup"] = true
		}
		if sc.Topology.NodesPerSwitch > 0 {
			seen["striping"] = true
		}
		if !sc.Fleet.VNIService {
			seen["baseline"] = true
		}
		for _, ev := range sc.Events {
			switch ev.Action {
			case "fail_link", "inject_nic_failure":
				seen["fault"] = true
			case "pingpong", "run_traffic":
				seen["traffic"] = true
			case "churn_jobs":
				seen["churn"] = true
			case "probe_isolation":
				seen["probe"] = true
			}
		}
	}
	for _, want := range []string{"multigroup", "striping", "baseline", "fault", "traffic", "churn", "probe"} {
		if !seen[want] {
			t.Errorf("200 generated specs never exercised %q", want)
		}
	}
}

// TestGeneratorCoversHealthLoop checks the generator reaches the health
// loop's fault families: specs with a health: section, slow-drain NICs,
// operator remediations, flapping trunks, and the quiesce wait that arms
// the remediation invariant.
func TestGeneratorCoversHealthLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seen := map[string]bool{}
	for i := 0; i < 300; i++ {
		sc := Generate(rng, DefaultConfig())
		if sc.Health.Enabled() {
			seen["health"] = true
		}
		for _, ev := range sc.Events {
			switch ev.Action {
			case "slow_drain_nic":
				seen["slow_drain"] = true
			case "flap_trunk":
				seen["flap"] = true
			case "remediate":
				seen["remediate"] = true
			case "wait_remediated":
				seen["quiesce"] = true
			}
		}
	}
	for _, want := range []string{"health", "slow_drain", "flap", "remediate", "quiesce"} {
		if !seen[want] {
			t.Errorf("300 generated specs never exercised %q", want)
		}
	}
}

// TestGeneratedSpecsRoundTripAsYAML locks the replay path for generated
// specs: everything the generator emits must survive EmitYAML -> Parse,
// re-validate and come back deeply equal up to source lines, or
// reproducer files would not replay the spec that was run. (Clone gives
// every event a non-nil parameter map, as Parse does.)
func TestGeneratedSpecsRoundTripAsYAML(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		sc := Generate(rng, DefaultConfig())
		back, err := scenario.Parse(bytes.NewReader(scenario.EmitYAML(sc)))
		if err != nil {
			t.Fatalf("generated spec %d does not re-parse: %v\n%s", i, err, scenario.EmitYAML(sc))
		}
		want := Clone(sc)
		for _, s := range []*scenario.Scenario{want, back} {
			for j := range s.Traffic {
				s.Traffic[j].Line = 0
			}
			for j := range s.Events {
				s.Events[j].Line = 0
			}
			for j := range s.Assertions {
				s.Assertions[j].Line = 0
			}
		}
		if !reflect.DeepEqual(want, back) {
			t.Fatalf("generated spec %d diverged on round trip\ngenerated: %+v\nreparsed:  %+v\n%s",
				i, want, back, scenario.EmitYAML(sc))
		}
	}
}

// routingBugSpec builds the minimal deterministic scenario that exposes a
// stale route cache: two switches, one node on each, cross-switch pingpong
// to populate the (0,1) and (1,0) cache entries, then a trunk cut whose
// rerouting the frozen cache will miss.
func routingBugSpec(t *testing.T) *scenario.Scenario {
	t.Helper()
	sc := &scenario.Scenario{Name: "routing-bug-probe", Seed: 7}
	sc.Topology.SwitchesPerGroup = 2
	sc.Topology.NodesPerSwitch = 1
	sc.Fleet = scenario.Fleet{
		Nodes: 2, VNIService: true, VNIPoolMin: 1024, VNIPoolMax: 65535,
		Quarantine: 30 * time.Second,
		Tenants:    []scenario.Tenant{{Name: "t0"}},
	}
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	sc.Events = []scenario.Event{
		{At: 0, Action: "start_fleet", Params: map[string]string{}},
		{At: at(10), Action: "submit_job", Params: map[string]string{
			"tenant": "t0", "name": "anchor", "pods": "2", "runtime": "1h", "vni": "true"}},
		{At: at(20), Action: "pingpong", Params: map[string]string{
			"tenant": "t0", "job": "anchor", "rounds": "5", "timeout": "30s"}},
		{At: at(30), Action: "fail_link", Params: map[string]string{"switches": "0,1"}},
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("bug spec invalid: %v", err)
	}
	return sc
}

// TestInjectedRoutingBugCaught is the oracle's self-test and the issue's
// acceptance gate: with the deliberately reintroduced stale-route-cache bug
// (fabric.SetDebugFreezeRouteCache), the differential routing oracle must
// flag the very event that made the cache stale, and the shrinker must
// reduce the spec to a replayable YAML reproducer under 30 lines that
// still triggers the detection.
func TestInjectedRoutingBugCaught(t *testing.T) {
	fabric.SetDebugFreezeRouteCache(true)
	defer fabric.SetDebugFreezeRouteCache(false)

	sc := routingBugSpec(t)
	rep := Execute(sc)
	v := rep.Violation(VioRouting)
	if v == nil {
		t.Fatalf("frozen route cache not caught; violations: %v", rep.Violations)
	}
	if !strings.Contains(v.Detail, "diverges") {
		t.Errorf("routing violation lacks divergence detail: %s", v.Detail)
	}

	shrunk := Shrink(sc, VioRouting, 0)
	path, err := WriteReproducer(t.TempDir(), shrunk, *v, 0)
	if err != nil {
		t.Fatalf("write reproducer: %v", err)
	}
	yaml := scenario.EmitYAML(shrunk)
	if lines := bytes.Count(yaml, []byte("\n")); lines >= 30 {
		t.Errorf("reproducer is %d lines, want < 30:\n%s", lines, yaml)
	}

	// The written file must replay and still trigger the oracle.
	var out bytes.Buffer
	violations, err := Replay(path, &out)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	found := false
	for _, rv := range violations {
		if rv.Name == VioRouting {
			found = true
		}
	}
	if !found {
		t.Fatalf("replayed reproducer no longer triggers the routing oracle; got %v", violations)
	}
}

// TestBugSpecCleanWithoutInjectedBug pins the control: the same scenario on
// the healthy epoch scheme upholds every invariant, so the oracle's signal
// in TestInjectedRoutingBugCaught is the injected bug, not the spec.
func TestBugSpecCleanWithoutInjectedBug(t *testing.T) {
	rep := Execute(routingBugSpec(t))
	if len(rep.Violations) != 0 {
		t.Fatalf("expected clean run, got %v", rep.Violations)
	}
}

// TestShrinkReducesSpec checks the shrinker actually removes weight: the
// routing reproducer needs neither the run_for tail nor the assertions the
// padded spec carries.
func TestShrinkReducesSpec(t *testing.T) {
	fabric.SetDebugFreezeRouteCache(true)
	defer fabric.SetDebugFreezeRouteCache(false)

	sc := routingBugSpec(t)
	// Pad with droppable weight.
	sc.Events = append(sc.Events,
		scenario.Event{At: 40 * time.Millisecond, Action: "run_for", Params: map[string]string{"duration": "100ms"}},
		scenario.Event{At: 50 * time.Millisecond, Action: "probe_isolation", Params: map[string]string{}},
	)
	sc.Assertions = append(sc.Assertions,
		scenario.Assertion{Type: "isolation_violations", Op: "==", Value: "0"},
		scenario.Assertion{Type: "vnis_allocated", Op: ">=", Value: "1"},
	)
	if err := sc.Validate(); err != nil {
		t.Fatalf("padded spec invalid: %v", err)
	}
	shrunk := Shrink(sc, VioRouting, 0)
	if len(shrunk.Events) >= len(sc.Events) {
		t.Errorf("shrink kept all %d events", len(sc.Events))
	}
	if len(shrunk.Assertions) != 0 {
		t.Errorf("shrink kept %d assertions, want 0", len(shrunk.Assertions))
	}
	if Execute(shrunk).Violation(VioRouting) == nil {
		t.Fatalf("shrunk spec no longer triggers the violation")
	}
}

// TestWriteReproducerNamesViolation checks the corpus file is
// self-describing: name and description carry the violation.
func TestWriteReproducerNamesViolation(t *testing.T) {
	sc := routingBugSpec(t)
	dir := t.TempDir()
	v := Violation{Name: VioRouting, Detail: "example divergence"}
	path, err := WriteReproducer(dir, sc, v, 3)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if filepath.Base(path) != "repro-routing_oracle-3.yaml" {
		t.Errorf("unexpected reproducer name %s", path)
	}
	re, err := scenario.ParseFile(path)
	if err != nil {
		t.Fatalf("reproducer does not parse: %v", err)
	}
	if !strings.Contains(re.Description, "example divergence") {
		t.Errorf("description %q does not carry the violation", re.Description)
	}
}

// TestReplayBrokenCorpusFile locks the triage path: a corpus file the
// parser chokes on — hand-edited, truncated, or plain missing — must come
// back as an error naming the file, never a panic and never exit-worthy
// violations.
func TestReplayBrokenCorpusFile(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	unparseable := write("mangled.yaml", "name: [unterminated\n  events\n\t- at: nonsense")
	empty := write("empty.yaml", "")
	badRef := write("badref.yaml", strings.Join([]string{
		"name: bad-ref",
		"events:",
		"  - at: 0s",
		"    action: submit_job",
		"    tenant: ghost", // unknown tenant: fails Validate, not the parser
		"    name: j",
		"    pods: '2'",
	}, "\n"))
	cases := []struct {
		name, path string
	}{
		{"unparseable", unparseable},
		{"empty", empty},
		{"bad-reference", badRef},
		{"missing", filepath.Join(dir, "no-such-file.yaml")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			violations, err := Replay(tc.path, &out)
			if err == nil {
				t.Fatalf("expected an error, got violations=%v output=%q", violations, out.String())
			}
			if !strings.Contains(err.Error(), filepath.Base(tc.path)) {
				t.Errorf("error %q does not name the corpus file %s", err, tc.path)
			}
			if violations != nil {
				t.Errorf("broken file yielded violations: %v", violations)
			}
		})
	}

	// Control: a well-formed reproducer still replays clean.
	good, err := WriteReproducer(dir, routingBugSpec(t),
		Violation{Name: VioRouting, Detail: "control"}, 0)
	if err != nil {
		t.Fatalf("write control reproducer: %v", err)
	}
	var out bytes.Buffer
	violations, err := Replay(good, &out)
	if err != nil || len(violations) != 0 {
		t.Fatalf("control replay not clean: violations=%v err=%v", violations, err)
	}
	if !strings.Contains(out.String(), "all invariants hold") {
		t.Errorf("control replay output %q lacks the ok line", out.String())
	}
}

// remediationBugSpec builds a health-enabled spec whose operator cordon is
// never cleared: the remediation controller only adopts nodes carrying the
// health annotation, so a bare scheduler cordon survives to end of run and
// the remediation-quiesce invariant must flag it.
func remediationBugSpec(t *testing.T) *scenario.Scenario {
	t.Helper()
	sc := &scenario.Scenario{Name: "remediation-bug-probe", Seed: 5}
	sc.Fleet = scenario.Fleet{
		Nodes: 2, VNIService: true, VNIPoolMin: 1024, VNIPoolMax: 65535,
		Quarantine: 30 * time.Second,
		Tenants:    []scenario.Tenant{{Name: "t0"}},
	}
	sc.Health = scenario.HealthSpec{CheckEvery: 50 * time.Millisecond}
	sc.Events = []scenario.Event{
		{At: 0, Action: "start_fleet", Params: map[string]string{}},
		{At: 10 * time.Millisecond, Action: "cordon", Target: "node0", Params: map[string]string{}},
		{At: 20 * time.Millisecond, Action: "run_for", Params: map[string]string{"duration": "200ms"}},
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("bug spec invalid: %v", err)
	}
	return sc
}

// TestRemediationQuiesceInvariant is the VioRemediation self-test: a node
// left cordoned after the health loop quiesced must be flagged, and the
// same spec without the dangling cordon must run clean.
func TestRemediationQuiesceInvariant(t *testing.T) {
	rep := Execute(remediationBugSpec(t))
	v := rep.Violation(VioRemediation)
	if v == nil {
		t.Fatalf("dangling cordon not caught; violations: %v", rep.Violations)
	}
	if !strings.Contains(v.Detail, "node0") {
		t.Errorf("violation does not name the node: %s", v.Detail)
	}

	clean := remediationBugSpec(t)
	clean.Events = append(clean.Events,
		scenario.Event{At: 30 * time.Millisecond, Action: "uncordon", Target: "node0",
			Params: map[string]string{}})
	if err := clean.Validate(); err != nil {
		t.Fatalf("clean spec invalid: %v", err)
	}
	if rep := Execute(clean); len(rep.Violations) != 0 {
		t.Fatalf("expected clean run once uncordoned, got %v", rep.Violations)
	}
}

// FuzzScenarioEngine is the go-native entry point: each fuzz input seeds
// the generator, and the full invariant battery must hold on whatever it
// produces. CI runs this briefly (-fuzztime 30s); local sessions can run
// it for hours.
func FuzzScenarioEngine(f *testing.F) {
	for _, seed := range []int64{1, 2, 42, 1 << 20, -7} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		sc := Generate(rand.New(rand.NewSource(seed)), DefaultConfig())
		rep := Execute(sc)
		if len(rep.Violations) > 0 {
			t.Fatalf("seed %d: %v\nspec:\n%s", seed, rep.Violations, scenario.EmitYAML(sc))
		}
	})
}
