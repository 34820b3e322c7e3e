package scenario

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/metrics"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
	"github.com/caps-sim/shs-k8s/internal/vnisvc"
)

// This file is the catalogue of event actions and assertion types: one
// descriptor per name holds everything about it — schema, checks, and the
// code that executes or probes it. Validate, Ops.Exec, Ops.Actual and
// interactive mode all read these tables; docs/scenarios.md documents
// every entry (registry_test.go keeps the two in step).

// targetKind says what an event's or assertion's target must name.
type targetKind int

const (
	noTarget      targetKind = iota // the target must be empty
	nodeTarget                      // a fleet node (node0..nodeN-1)
	tenantTarget                    // a tenant, or empty for all tenants
	reasonTarget                    // a fabric drop reason
	statTarget                      // a latency statistic
	runTarget                       // a traffic run (a run_traffic as/traffic name)
	runPairTarget                   // two traffic runs, "a/b"
	healthTarget                    // a fleet node or a link key (trunk:i-j / global:a-b)
)

// section names the optional scenario section an action or assertion
// depends on.
type section int

const (
	noSection section = iota
	healthSection
	telemetrySection
)

// actionDesc is one event action.
type actionDesc struct {
	target   targetKind
	required []string
	optional []string
	needs    section
	// check, when set, runs after the generic schema checks.
	check func(sc *Scenario, ev *Event) error
	// exec runs a validated event against the live stack.
	exec func(r *Ops, ev *Event) error
}

// assertionDesc is one assertion type.
type assertionDesc struct {
	target targetKind
	needs  section
	// actual probes the live stack for the asserted quantity.
	actual func(r *Ops, target string) float64
}

var actions = map[string]actionDesc{
	"start_fleet": {exec: func(r *Ops, _ *Event) error { return r.startFleet() }},
	"run_for": {required: []string{"duration"}, exec: func(r *Ops, ev *Event) error {
		d, _ := time.ParseDuration(ev.Params["duration"])
		r.st.Eng.RunFor(d)
		return nil
	}},
	"log": {required: []string{"message"}, exec: func(r *Ops, ev *Event) error {
		r.logf("%s", ev.Params["message"])
		return nil
	}},
	"submit_job": {required: []string{"tenant", "name"}, optional: []string{"pods", "runtime", "vni"},
		exec: (*Ops).submitJob},
	"delete_job": {required: []string{"tenant", "name"}, exec: func(r *Ops, ev *Event) error {
		key := ev.Params["tenant"] + "/" + ev.Params["name"]
		if _, ok := r.submitted[key]; !ok {
			return fmt.Errorf("job %s was never submitted", key)
		}
		r.st.Cluster.Client.Delete(k8s.KindJob, ev.Params["tenant"], ev.Params["name"])
		r.logf("deleted job %s", key)
		return nil
	}},
	"create_claim": {required: []string{"tenant", "name"}, exec: func(r *Ops, ev *Event) error {
		r.st.Cluster.Client.Create(vnisvc.NewClaim(ev.Params["tenant"], ev.Params["name"], ev.Params["name"]))
		r.logf("created claim %s/%s", ev.Params["tenant"], ev.Params["name"])
		return nil
	}},
	"delete_claim": {required: []string{"tenant", "name"}, exec: func(r *Ops, ev *Event) error {
		r.st.Cluster.Client.Delete(vniapi.KindVniClaim, ev.Params["tenant"], ev.Params["name"])
		r.logf("deleted claim %s/%s", ev.Params["tenant"], ev.Params["name"])
		return nil
	}},
	"churn_jobs": {required: []string{"tenant", "count"}, optional: []string{"interval", "runtime", "vni", "pods"},
		exec: (*Ops).churnJobs},
	"inject_nic_failure": {target: nodeTarget, exec: func(r *Ops, ev *Event) error {
		r.logf("injecting NIC failure on %s", ev.Target)
		r.markFault(ev.Target)
		return r.st.FailNIC(ev.Target)
	}},
	"recover_nic": {target: nodeTarget, exec: func(r *Ops, ev *Event) error {
		r.logf("recovering NIC on %s", ev.Target)
		return r.st.RecoverNIC(ev.Target)
	}},
	"cordon": {target: nodeTarget, exec: func(r *Ops, ev *Event) error {
		r.logf("cordoning %s", ev.Target)
		return r.st.Cluster.Scheduler.SetCordon(ev.Target, true)
	}},
	"uncordon": {target: nodeTarget, exec: func(r *Ops, ev *Event) error {
		r.logf("uncordoning %s", ev.Target)
		return r.st.Cluster.Scheduler.SetCordon(ev.Target, false)
	}},
	"partition_fabric": {required: []string{"nodes"},
		check: func(sc *Scenario, ev *Event) error {
			for _, n := range splitList(ev.Params["nodes"]) {
				if !sc.validNode(n) {
					return fmt.Errorf("partition_fabric: unknown node %q", n)
				}
			}
			return nil
		},
		exec: func(r *Ops, ev *Event) error {
			nodes := splitList(ev.Params["nodes"])
			r.logf("partitioning fabric: %v vs rest", nodes)
			return r.st.PartitionFabric(nodes)
		}},
	"heal_partition": {exec: func(r *Ops, _ *Event) error {
		r.st.HealPartition()
		r.logf("fabric partition healed")
		return nil
	}},
	"fail_link": {optional: []string{"groups", "switches", "link"}, check: (*Scenario).validateLinkEvent,
		exec: func(r *Ops, ev *Event) error { return r.setLink(ev, true) }},
	"recover_link": {optional: []string{"groups", "switches", "link"}, check: (*Scenario).validateLinkEvent,
		exec: func(r *Ops, ev *Event) error { return r.setLink(ev, false) }},
	"probe_isolation": {exec: func(r *Ops, _ *Event) error { return r.probeIsolation() }},
	"pingpong": {required: []string{"tenant", "job"}, optional: []string{"rounds", "bytes", "timeout", "tolerate_stall"},
		exec: (*Ops).pingpong},
	"run_traffic": {required: []string{"tenant", "job", "traffic"}, optional: []string{"as", "timeout"},
		check: func(sc *Scenario, ev *Event) error {
			if sc.trafficSpec(ev.Params["traffic"]) == nil {
				return fmt.Errorf("run_traffic: unknown traffic %q", ev.Params["traffic"])
			}
			return nil
		},
		exec: (*Ops).runTraffic},
	"wait_running":       {required: []string{"tenant", "pods"}, optional: []string{"job", "timeout"}, exec: (*Ops).waitRunning},
	"wait_jobs_complete": {optional: []string{"tenant", "timeout"}, exec: (*Ops).waitJobsComplete},
	"resync_vni": {exec: func(r *Ops, _ *Event) error {
		if r.st.VNISvc == nil {
			return fmt.Errorf("vni service not installed")
		}
		r.st.VNISvc.Resync()
		r.logf("requeued vni controllers")
		return nil
	}},
	// Health-loop events; valid only with a health: section (the loop
	// must be running to observe the fault).
	"slow_drain_nic": {target: nodeTarget, optional: []string{"rate", "duration"}, needs: healthSection,
		check: func(_ *Scenario, ev *Event) error {
			if v, ok := ev.Params["rate"]; ok {
				if f, err := strconv.ParseFloat(v, 64); err != nil || f <= 0 {
					return fmt.Errorf("slow_drain_nic: rate: must be a positive number (errors/s), got %q", v)
				}
			}
			return nil
		},
		exec: (*Ops).slowDrainNIC},
	"flap_trunk": {required: []string{"switches"}, optional: []string{"period", "count"}, needs: healthSection,
		check: func(sc *Scenario, ev *Event) error {
			_, _, err := sc.trunkPair(ev, " (only trunks flap)")
			return err
		},
		exec: (*Ops).flapTrunk},
	"remediate":       {target: nodeTarget, needs: healthSection, exec: (*Ops).execRemediate},
	"wait_remediated": {optional: []string{"count", "timeout"}, needs: healthSection, exec: (*Ops).waitRemediated},
	// Control-plane fault events. Self-arming — no section needed: the
	// presence of any of these is what opts a run into the fault layer
	// (and its resync prober); without them timelines are untouched.
	"fail_apiserver": {exec: func(r *Ops, _ *Event) error { return r.failAPIServer() }},
	"degrade_apiserver": {optional: []string{"latency_factor", "error_prob"},
		check: func(_ *Scenario, ev *Event) error {
			if v, ok := ev.Params["latency_factor"]; ok {
				if f, err := strconv.ParseFloat(v, 64); err != nil || f < 1 {
					return fmt.Errorf("degrade_apiserver: latency_factor: must be a number ≥ 1, got %q", v)
				}
			}
			if v, ok := ev.Params["error_prob"]; ok {
				if f, err := strconv.ParseFloat(v, 64); err != nil || f < 0 || f >= 1 {
					return fmt.Errorf("degrade_apiserver: error_prob: must be in [0, 1), got %q", v)
				}
			}
			return nil
		},
		exec: (*Ops).degradeAPIServer},
	"recover_apiserver": {exec: func(r *Ops, _ *Event) error { return r.recoverAPIServer() }},
	"break_watch": {required: []string{"kind"},
		check: func(_ *Scenario, ev *Event) error {
			if _, ok := cpWatchKinds[ev.Params["kind"]]; !ok {
				return fmt.Errorf("break_watch: kind: must be one of %s, got %q",
					cpWatchKindNames(), ev.Params["kind"])
			}
			return nil
		},
		exec: (*Ops).breakWatch},
}

var assertions = map[string]assertionDesc{
	"vnis_allocated": {actual: func(r *Ops, _ string) float64 {
		return float64(r.st.DB.Stats().Allocated)
	}},
	"vnis_quarantined": {actual: func(r *Ops, _ string) float64 {
		return float64(r.st.DB.Stats().Quarantined)
	}},
	"jobs_completed": {target: tenantTarget, actual: func(r *Ops, tenant string) float64 {
		return float64(r.completedCount(tenant))
	}},
	"jobs_pending": {target: tenantTarget, actual: func(r *Ops, tenant string) float64 {
		n := 0
		for _, obj := range r.jobs.List(tenant) {
			if !obj.(*k8s.Job).Status.Completed {
				n++
			}
		}
		return float64(n)
	}},
	"pods_running": {target: tenantTarget, actual: func(r *Ops, tenant string) float64 {
		return float64(r.runningPods(tenant, ""))
	}},
	"isolation_violations": {actual: func(r *Ops, _ string) float64 { return float64(r.violations) }},
	"switch_drops": {target: reasonTarget, actual: func(r *Ops, target string) float64 {
		reason, _ := fabric.DropReasonByName(target)
		return float64(r.st.Topo.Stats().Drops[reason])
	}},
	"switch_forwarded": {actual: func(r *Ops, _ string) float64 {
		return float64(r.st.Topo.Stats().Forwarded)
	}},
	"trunk_drops": {actual: func(r *Ops, _ string) float64 { return float64(r.st.Topo.TrunkDrops()) }},
	"global_link_bytes": {actual: func(r *Ops, _ string) float64 {
		return float64(r.st.Topo.GlobalLinkBytes())
	}},
	"max_link_utilization": {actual: func(r *Ops, _ string) float64 {
		max := 0.0
		for _, l := range r.st.Topo.Links() {
			if l.Utilization > max {
				max = l.Utilization
			}
		}
		return max
	}},
	"latency_us": {target: statTarget, actual: func(r *Ops, stat string) float64 {
		s := metrics.Summarize(r.latUs)
		switch stat {
		case "p50":
			return s.P50
		case "p90":
			return s.P90
		case "p99":
			return metrics.Percentile(r.latUs, 99)
		case "max":
			return s.Max
		}
		return s.Mean
	}},
	"sync_errors": {actual: func(r *Ops, _ string) float64 {
		if r.st.VNISvc == nil {
			return 0
		}
		return float64(r.st.VNISvc.Endpoint.Stats().SyncErrors)
	}},
	"distinct_tenant_vnis": {actual: func(r *Ops, _ string) float64 {
		seen := map[string]string{} // vni value -> namespace
		for _, t := range r.sc.Fleet.Tenants {
			for _, obj := range r.vnis.List(t.Name) {
				cr := obj.(*k8s.Custom)
				if cr.Spec[vniapi.SpecVirtual] == "true" {
					continue
				}
				v := cr.Spec[vniapi.SpecVNI]
				if ns, dup := seen[v]; dup && ns != t.Name {
					return 0
				}
				seen[v] = t.Name
			}
		}
		return 1
	}},
	// Per-traffic-run probes: target is a run name (the run_traffic as
	// param), or "a/b" for the completion-time ratio of two runs.
	"traffic_time_us": {target: runTarget, actual: func(r *Ops, run string) float64 {
		return float64(r.traffic[run].Elapsed) / float64(time.Microsecond)
	}},
	"traffic_mpi_bytes": {target: runTarget, actual: func(r *Ops, run string) float64 {
		return float64(r.traffic[run].MPIBytes)
	}},
	"traffic_global_bytes": {target: runTarget, actual: func(r *Ops, run string) float64 {
		return float64(r.traffic[run].GlobalLinkBytes)
	}},
	"traffic_ratio": {target: runPairTarget, actual: func(r *Ops, pair string) float64 {
		a, b, _ := strings.Cut(pair, "/")
		num, den := r.traffic[a].Elapsed, r.traffic[b].Elapsed
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}},
	// Series probes over the telemetry ring (no sampler, no series).
	"telemetry_samples": {needs: telemetrySection, actual: func(r *Ops, _ string) float64 {
		if r.sampler == nil {
			return 0
		}
		return float64(r.sampler.Len())
	}},
	"telemetry_peak_link_utilization": {needs: telemetrySection, actual: func(r *Ops, _ string) float64 {
		if r.sampler == nil {
			return 0
		}
		return r.sampler.PeakLinkUtilization()
	}},
	// Health-loop probes. nodes_cordoned counts the scheduler's cordon set
	// and works with or without the loop; traffic_migrations reads a
	// migratable run's report.
	"time_to_detect_us": {target: healthTarget, needs: healthSection, actual: func(r *Ops, key string) float64 {
		return r.detectUs[key]
	}},
	"time_to_recover_us": {target: healthTarget, needs: healthSection, actual: func(r *Ops, key string) float64 {
		return r.recoverUs[key]
	}},
	"nodes_cordoned": {actual: func(r *Ops, _ string) float64 {
		n := 0
		for _, node := range r.st.Nodes {
			if r.st.Cluster.Scheduler.Cordoned(node.Name) {
				n++
			}
		}
		return float64(n)
	}},
	"remediations_done": {needs: healthSection, actual: func(r *Ops, _ string) float64 {
		if r.remediator == nil {
			return 0
		}
		return float64(r.remediator.Done())
	}},
	"traffic_migrations": {target: runTarget, actual: func(r *Ops, run string) float64 {
		return float64(r.traffic[run].Migrations)
	}},
	// Control-plane fault-layer probes: client retry/relist counters and
	// the post-run convergence check. All read 0 (cp_converged: 1) in
	// fault-free runs, so they are valid without fault events.
	"apiserver_retries": {actual: func(r *Ops, _ string) float64 {
		return float64(r.st.Cluster.Client.Stats().Retries)
	}},
	"watch_relists": {actual: func(r *Ops, _ string) float64 {
		return float64(r.st.Cluster.Client.Stats().Relists)
	}},
	"stale_reads": {actual: func(r *Ops, _ string) float64 {
		return float64(r.st.Cluster.Client.Stats().StaleReads)
	}},
	"max_staleness_us": {actual: func(r *Ops, _ string) float64 {
		return r.st.Cluster.Client.Stats().MaxStalenessUs
	}},
	"cp_converged": {actual: func(r *Ops, _ string) float64 {
		// 1 when every informer cache matches the API server's store
		// exactly. Fault-free runs read 1 by construction (caches only
		// drift when a fault event broke a watch or an outage delayed
		// deliveries past run end).
		if r.st.Cluster.Client.VerifyCaches() == nil {
			return 1
		}
		return 0
	}},
}

// Typed event parameters, checked wherever an action accepts them.
var (
	durationParams = []string{"runtime", "interval", "timeout", "duration", "period"}
	countParams    = []string{"pods", "count", "rounds", "bytes"}
)

// ValidateEvent checks one event against its action's descriptor: the
// action exists, the section it needs is present, its target, required and
// permitted params, typed param values and tenant are valid, and the
// action's own check passes against the fleet and topology. It is the
// per-event half of Validate, and interactive mode runs it before every
// operator command. The error is not anchored to a source line.
func (sc *Scenario) ValidateEvent(ev *Event) error {
	a, ok := actions[ev.Action]
	if !ok {
		if ev.Action == "" {
			return errors.New("event needs an action")
		}
		return fmt.Errorf("unknown action %q", ev.Action)
	}
	if err := sc.requireSection(a.needs, ev.Action); err != nil {
		return err
	}
	if err := sc.checkTarget(a.target, ev.Action, ev.Target, nil); err != nil {
		return err
	}
	for _, p := range a.required {
		if ev.Params[p] == "" {
			return fmt.Errorf("%s: missing required param %q", ev.Action, p)
		}
	}
	for p := range ev.Params {
		if !slices.Contains(a.required, p) && !slices.Contains(a.optional, p) {
			return fmt.Errorf("%s: unknown param %q", ev.Action, p)
		}
	}
	for _, p := range durationParams {
		if v, ok := ev.Params[p]; ok {
			if d, err := time.ParseDuration(v); err != nil || d < 0 {
				return fmt.Errorf("%s: %s: not a duration: %q", ev.Action, p, v)
			}
		}
	}
	for _, p := range countParams {
		if v, ok := ev.Params[p]; ok {
			// wait_remediated accepts count: 0 — "wait only for the
			// controller to quiesce, however many runs that takes".
			min := 1
			if ev.Action == "wait_remediated" && p == "count" {
				min = 0
			}
			if n, err := strconv.Atoi(v); err != nil || n < min {
				return fmt.Errorf("%s: %s: must be a positive integer, got %q", ev.Action, p, v)
			}
		}
	}
	if t, ok := ev.Params["tenant"]; ok && !sc.hasTenant(t) {
		return fmt.Errorf("%s: unknown tenant %q", ev.Action, t)
	}
	if a.check != nil {
		return a.check(sc, ev)
	}
	return nil
}

// validateAssertion checks one assertion against its type's descriptor;
// runs holds the scenario's traffic run names. The error is not anchored
// to a source line.
func (sc *Scenario) validateAssertion(a *Assertion, runs map[string]bool) error {
	d, ok := assertions[a.Type]
	if !ok {
		if a.Type == "" {
			return errors.New("assertion needs a type")
		}
		return fmt.Errorf("unknown assertion type %q", a.Type)
	}
	if _, ok := compareOps[a.Op]; !ok {
		return fmt.Errorf("assertion op must be one of == != < <= > >=, got %q", a.Op)
	}
	if err := sc.requireSection(d.needs, a.Type); err != nil {
		return err
	}
	if err := sc.checkTarget(d.target, a.Type, a.Target, runs); err != nil {
		return err
	}
	if a.Value == "" {
		return fmt.Errorf("%s: missing value", a.Type)
	}
	if _, err := parseExpected(a.Value); err != nil {
		return fmt.Errorf("%s: value: %v", a.Type, err)
	}
	return nil
}

// requireSection rejects an action or assertion whose section is absent.
func (sc *Scenario) requireSection(s section, name string) error {
	switch {
	case s == healthSection && !sc.Health.Enabled():
		return fmt.Errorf("%s: requires a health: section (checkEvery)", name)
	case s == telemetrySection && !sc.Telemetry.Enabled():
		return fmt.Errorf("%s: requires a telemetry: section (sampleEvery)", name)
	}
	return nil
}

// checkTarget validates target against kind for the action or assertion
// called name; runs holds the traffic run names (assertions only).
func (sc *Scenario) checkTarget(kind targetKind, name, target string, runs map[string]bool) error {
	switch kind {
	case noTarget:
		if target != "" {
			return fmt.Errorf("%s: takes no target", name)
		}
	case nodeTarget:
		if !sc.validNode(target) {
			return fmt.Errorf("%s: target must name a fleet node (node0..node%d), got %q",
				name, sc.Fleet.Nodes-1, target)
		}
	case tenantTarget:
		if target != "" && !sc.hasTenant(target) {
			return fmt.Errorf("%s: unknown tenant %q", name, target)
		}
	case reasonTarget:
		if _, ok := fabric.DropReasonByName(target); !ok {
			return fmt.Errorf("%s: target must be a drop reason (e.g. link_down, vni_ingress_denied), got %q",
				name, target)
		}
	case statTarget:
		switch target {
		case "p50", "p90", "p99", "max", "mean":
		default:
			return fmt.Errorf("%s: target must be one of p50, p90, p99, max, mean, got %q", name, target)
		}
	case runTarget:
		if !runs[target] {
			return fmt.Errorf("%s: target must name a traffic run (a run_traffic as/traffic name), got %q",
				name, target)
		}
	case runPairTarget:
		parts := strings.Split(target, "/")
		if len(parts) != 2 || !runs[parts[0]] || !runs[parts[1]] {
			return fmt.Errorf("%s: target must be two traffic runs as \"a/b\", got %q", name, target)
		}
	case healthTarget:
		if !sc.validHealthTarget(target) {
			return fmt.Errorf("%s: target must be a fleet node or a link key (trunk:i-j / global:a-b), got %q",
				name, target)
		}
	}
	return nil
}

// validHealthTarget reports whether t names what the health daemon keys
// its detections by: a fleet node, or a link key "trunk:i-j" /
// "global:i-j", both by global switch index (a global link is keyed by its
// two gateway switches).
func (sc *Scenario) validHealthTarget(t string) bool {
	if sc.validNode(t) {
		return true
	}
	kind, rest, found := strings.Cut(t, ":")
	if !found || (kind != "trunk" && kind != "global") {
		return false
	}
	parts := strings.Split(rest, "-")
	if len(parts) != 2 {
		return false
	}
	limit := sc.Topology.Groups * sc.Topology.SwitchesPerGroup
	x, errX := strconv.Atoi(parts[0])
	y, errY := strconv.Atoi(parts[1])
	return errX == nil && errY == nil && x >= 0 && y >= 0 && x < limit && y < limit && x != y
}

// indexPair parses the pair parameter param ("i,j") of ev: two distinct
// indices below limit, of what (a group or a switch).
func indexPair(ev *Event, param string, limit int, what string) (int, int, error) {
	s := ev.Params[param]
	parts := splitList(s)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("%s: %s must be two comma-separated indices, got %q", ev.Action, param, s)
	}
	var idx [2]int
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n >= limit {
			return 0, 0, fmt.Errorf("%s: %s: %q is not a valid %s index (fabric has %d)",
				ev.Action, param, p, what, limit)
		}
		idx[i] = n
	}
	if idx[0] == idx[1] {
		return 0, 0, fmt.Errorf("%s: %s: indices must differ", ev.Action, param)
	}
	return idx[0], idx[1], nil
}

// trunkPair parses ev's switches param: two switches of one group, joined
// by an intra-group trunk. hint ends the error for a cross-group pair.
func (sc *Scenario) trunkPair(ev *Event, hint string) (int, int, error) {
	topo := sc.Topology
	i, j, err := indexPair(ev, "switches", topo.Groups*topo.SwitchesPerGroup, "switch")
	if err == nil && i/topo.SwitchesPerGroup != j/topo.SwitchesPerGroup {
		err = fmt.Errorf("%s: switches %d and %d are in different groups%s", ev.Action, i, j, hint)
	}
	return i, j, err
}

// validateLinkEvent checks a fail_link/recover_link event: exactly one of
// groups ("a,b" group pair) or switches ("i,j" switch pair) must name a
// trunk that exists in the scenario's topology; link selects one of a
// pair's parallel global links and is only valid with groups.
func (sc *Scenario) validateLinkEvent(ev *Event) error {
	groups, switches := ev.Params["groups"], ev.Params["switches"]
	if (groups == "") == (switches == "") {
		return fmt.Errorf("%s: needs exactly one of groups or switches", ev.Action)
	}
	topo := sc.Topology
	if switches != "" {
		if ev.Params["link"] != "" {
			return fmt.Errorf("%s: link is only valid with groups", ev.Action)
		}
		_, _, err := sc.trunkPair(ev, "; use groups for global links")
		return err
	}
	if _, _, err := indexPair(ev, "groups", topo.Groups, "group"); err != nil {
		return err
	}
	if l := ev.Params["link"]; l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 || n >= topo.GlobalLinksPerPair {
			return fmt.Errorf("%s: link: must be 0..%d, got %q", ev.Action, topo.GlobalLinksPerPair-1, l)
		}
	}
	return nil
}
