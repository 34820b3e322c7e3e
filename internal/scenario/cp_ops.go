package scenario

import (
	"sort"
	"strconv"
	"strings"

	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/telemetry"
)

// This file is the Ops half of the control-plane fault layer: it arms the
// API server's availability model on first use (armCP), injects outages,
// degraded modes and watch-stream breaks, and probes the client's retry
// and relist counters for the apiserver_retries / watch_relists /
// cp_converged assertions. docs/controlplane.md describes the fault model.

// cpWatchKinds maps the break_watch event's kind parameter onto API object
// kinds. Only the built-in kinds are addressable; custom resources (VNIs)
// ride the same informers but are named by their registered kind at
// runtime, which scenario files cannot reference portably.
var cpWatchKinds = map[string]k8s.Kind{
	"pods":       k8s.KindPod,
	"jobs":       k8s.KindJob,
	"nodes":      k8s.KindNode,
	"namespaces": k8s.KindNamespace,
}

// cpWatchKindNames lists the valid break_watch kinds for error messages.
func cpWatchKindNames() string {
	names := make([]string, 0, len(cpWatchKinds))
	for n := range cpWatchKinds {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// armCP arms the fault layer on first use: the API server starts modeling
// availability (client deadlines engage) and the client starts its gap
// prober, which detects broken or stale watches and repairs them by
// relist-and-replay. Control-plane events self-arm — a scenario without
// them never reaches this, so its timeline draws no fault-layer RNG and
// stays byte-identical to a build without the subsystem.
func (r *Ops) armCP() {
	if r.cpArmed {
		return
	}
	r.cpArmed = true
	cli := r.st.Cluster.Client
	cli.API().RecoverAPIServer() // arms the availability model in the up state
	cli.EnableFaultRecovery()
	r.logf("control-plane fault layer armed: client deadlines on, gap prober running")
}

// failAPIServer takes the API server down: every write fails with
// ErrUnavailable until recovery; reads keep serving (the model treats the
// watch cache as HA).
func (r *Ops) failAPIServer() error {
	r.armCP()
	r.st.Cluster.Client.API().FailAPIServer()
	r.logf("apiserver DOWN: writes fail until recovery, consumers retry with backoff")
	return nil
}

// degradeAPIServer puts the API server in degraded mode: request latency
// is multiplied by latency_factor (default 5) and each write fails with
// probability error_prob (default 0.2).
func (r *Ops) degradeAPIServer(ev *Event) error {
	r.armCP()
	lat, _ := strconv.ParseFloat(ev.Param("latency_factor", "5"), 64)
	errProb, _ := strconv.ParseFloat(ev.Param("error_prob", "0.2"), 64)
	r.st.Cluster.Client.API().DegradeAPIServer(lat, errProb)
	r.logf("apiserver degraded: %gx request latency, %g%% of writes error", lat, errProb*100)
	return nil
}

// recoverAPIServer restores full availability. Queued retries start
// landing on their next backoff tick; stale caches are repaired by the
// prober's next relist.
func (r *Ops) recoverAPIServer() error {
	r.armCP()
	r.st.Cluster.Client.API().RecoverAPIServer()
	r.logf("apiserver recovered")
	return nil
}

// breakWatch silently breaks every watch stream of one kind: watchers stop
// receiving events (no error is surfaced, as with a half-dead connection)
// until the client's gap prober notices the informer falling behind and
// relists.
func (r *Ops) breakWatch(ev *Event) error {
	r.armCP()
	n := r.st.Cluster.Client.API().BreakWatch(cpWatchKinds[ev.Params["kind"]])
	r.logf("broke %d %s watch stream(s): caches drift silently until relisted", n, ev.Params["kind"])
	return nil
}

// CPArmed reports whether a control-plane fault event has armed the fault
// layer this run (the gap prober keeps one perpetual event alive while
// armed; interactive mode's run-until-idle accounts for it).
func (r *Ops) CPArmed() bool { return r.cpArmed }

// StopCP halts the fault layer's recurring work — the client's gap
// prober — after one final repair sweep that relists any informer still
// broken or behind, so convergence assertions read repaired caches and an
// embedding harness can drain the event queue to empty. No-op unless a
// control-plane fault event armed the layer.
func (r *Ops) StopCP() {
	if !r.cpArmed || r.st == nil {
		return
	}
	r.st.Cluster.Client.StopFaultRecovery()
}

// cpStats is the telemetry sampler's control-plane source. It is attached
// unconditionally (the fault layer arms mid-run, after the sampler), and
// reports Armed=false until then so fault-free series stay unchanged.
func (r *Ops) cpStats() telemetry.CPStats {
	if !r.cpArmed {
		return telemetry.CPStats{}
	}
	cli := r.st.Cluster.Client
	s := cli.Stats()
	return telemetry.CPStats{
		Armed:          true,
		Availability:   cli.API().Availability().String(),
		Retries:        s.Retries,
		Relists:        s.Relists,
		StaleReads:     s.StaleReads,
		MaxStalenessUs: s.MaxStalenessUs,
	}
}

// ControlPlaneStatus returns the client's fault-layer counters and the API
// server's availability; armed is false when no control-plane fault event
// ran (counters are then necessarily zero).
func (r *Ops) ControlPlaneStatus() (stats k8s.CPStats, avail string, armed bool) {
	if r.st == nil {
		return k8s.CPStats{}, "", false
	}
	cli := r.st.Cluster.Client
	return cli.Stats(), cli.API().Availability().String(), r.cpArmed
}
