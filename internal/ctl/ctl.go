// Package ctl is the interactive front end over a live simulated
// deployment: it boots a fleet paused on the virtual clock and serves a
// line-oriented operator protocol — on stdin for scripting and CI, or on
// a Unix socket for a human driving `shssim interactive` from another
// terminal. Commands inspect state (nodes, jobs, links, metrics), inject
// the same faults scenario files can (cordon, fail-nic, fail-link), run
// collective traffic, and advance virtual time explicitly (step,
// run-until-idle) — the clock never moves on its own.
//
// Every mutating command constructs a scenario.Event, checks it with the
// validator a YAML file's events pass (Scenario.ValidateEvent) and
// executes it through scenario.Ops, the same dispatch a YAML timeline
// runs through, so `fail-link 0 1` at the prompt and a fail_link event in
// a file are one code path. Sessions are deterministic: the same
// scenario, seed and command script produce a byte-identical transcript,
// which is how the protocol is golden-tested and how CI diffs replayed
// sessions.
package ctl

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/metrics"
	"github.com/caps-sim/shs-k8s/internal/scenario"
	"github.com/caps-sim/shs-k8s/internal/workload"
)

// opsTenant is the namespace run-traffic jobs are created in. New adds it
// to the fleet when the scenario does not declare it.
const opsTenant = "ops"

// defaultYAML is the fleet `shssim interactive` boots when no scenario
// file is given: two dragonfly groups with redundant global links, and a
// one-pod-per-node budget so gang jobs span both groups — failing one
// global link then visibly reroutes collective traffic onto its sibling.
const defaultYAML = `
name: interactive
description: built-in interactive fleet (2 groups x 2 switches x 2 nodes)
fleet:
  nodes: 8
  podsPerNode: 1
  tenants:
    - name: ops
topology:
  groups: 2
  switchesPerGroup: 2
  nodesPerSwitch: 2
  globalLinksPerPair: 2
events:
  - at: 0s
    action: start_fleet
`

// DefaultScenario returns the built-in interactive fleet spec. Callers
// may adjust Seed and Telemetry before handing it to New.
func DefaultScenario() *scenario.Scenario {
	sc, err := scenario.Parse(strings.NewReader(defaultYAML))
	if err != nil {
		panic("ctl: built-in scenario invalid: " + err.Error())
	}
	return sc
}

// Server drives one simulated fleet from operator commands. It is not
// safe for concurrent use: the simulation engine is single-threaded, so
// socket sessions are served sequentially.
type Server struct {
	ops  *scenario.Ops
	sc   *scenario.Scenario
	pods k8s.Lister
	jobs k8s.Lister
	// seq numbers run-traffic invocations (traffic-1, traffic-2, ...).
	seq int
	// booted guards the one-time boot narration in the session banner.
	booted bool
}

// New boots a fleet for the scenario (nil means DefaultScenario) and
// returns a server ready to execute commands. The scenario's fleet,
// topology, traffic and telemetry sections apply; its events and
// assertions are ignored — the operator is the timeline.
func New(sc *scenario.Scenario) (*Server, error) {
	if sc == nil {
		sc = DefaultScenario()
	}
	// run-traffic creates its gang jobs in the ops namespace.
	hasOps := false
	for _, t := range sc.Fleet.Tenants {
		if t.Name == opsTenant {
			hasOps = true
		}
	}
	if !hasOps {
		sc.Fleet.Tenants = append(sc.Fleet.Tenants, scenario.Tenant{Name: opsTenant})
	}
	s := &Server{ops: scenario.NewOps(sc), sc: sc}
	if err := s.ops.Exec(&scenario.Event{Action: "start_fleet"}); err != nil {
		return nil, fmt.Errorf("ctl: boot: %w", err)
	}
	cli := s.ops.Stack().Cluster.Client
	s.pods = cli.Lister(k8s.KindPod)
	s.jobs = cli.Lister(k8s.KindJob)
	return s, nil
}

// Ops exposes the underlying executor, mainly for tests that mix scripted
// commands with direct state probes.
func (s *Server) Ops() *scenario.Ops { return s.ops }

// Serve runs one session: lines are read from r, echoed as
// `shssim> <line>` and executed, with output written to w. Blank lines
// and #-comments are skipped, so committed session scripts can be
// annotated. Serve returns at quit or EOF, or at the first read or write
// error, which it returns.
func (s *Server) Serve(r io.Reader, w io.Writer) error {
	_, err := s.session(r, w)
	return err
}

// ServeSocket listens on a Unix socket and serves sessions sequentially
// until one of them quits. A stale socket file at path is replaced. A
// session's I/O error (a client hanging up: ECONNRESET, EPIPE, EOF) ends
// that session only, and the listener goes back to Accept.
func (s *Server) ServeSocket(path string) error {
	os.Remove(path)
	l, err := net.Listen("unix", path)
	if err != nil {
		return err
	}
	defer l.Close()
	defer os.Remove(path)
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		quit, _ := s.session(conn, conn)
		conn.Close()
		if quit {
			return nil
		}
	}
}

func (s *Server) session(r io.Reader, w io.Writer) (quit bool, err error) {
	out := &sessionWriter{w: w}
	s.banner(out)
	scan := bufio.NewScanner(r)
	scan.Buffer(make([]byte, 1<<20), 1<<20)
	for out.err == nil && scan.Scan() {
		line := strings.TrimSpace(scan.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fmt.Fprintf(out, "shssim> %s\n", line)
		if s.Execute(out, line) {
			return true, out.err
		}
	}
	if out.err != nil {
		return false, out.err
	}
	return false, scan.Err()
}

// sessionWriter keeps a session's first write error and fails every later
// write with it, so a session whose client has gone ends instead of
// writing into a dead connection.
type sessionWriter struct {
	w   io.Writer
	err error
}

func (sw *sessionWriter) Write(p []byte) (int, error) {
	if sw.err != nil {
		return 0, sw.err
	}
	n, err := sw.w.Write(p)
	sw.err = err
	return n, err
}

func (s *Server) banner(w io.Writer) {
	st := s.ops.Stack()
	spec := st.Topo.Spec()
	fmt.Fprintf(w, "shs-k8s interactive: %s — %d node(s), %d group(s), clock at %s ('help' lists commands)\n",
		s.sc.Name, len(st.Nodes), spec.Groups, st.Eng.Now())
	if !s.booted {
		s.booted = true
		s.printLog(w)
	}
}

// Execute runs one command line and reports whether the session should
// end. Errors are written to w; the session continues.
func (s *Server) Execute(w io.Writer, line string) bool {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return false
	}
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		s.help(w)
	case "nodes":
		s.nodes(w)
	case "jobs":
		s.jobsCmd(w)
	case "links":
		s.links(w, args)
	case "cordon", "uncordon":
		if len(args) != 1 {
			fmt.Fprintf(w, "usage: %s <node>\n", cmd)
			return false
		}
		s.exec(w, &scenario.Event{Action: cmd, Target: args[0]})
	case "fail-nic", "recover-nic":
		if len(args) != 1 {
			fmt.Fprintf(w, "usage: %s <node>\n", cmd)
			return false
		}
		action := "inject_nic_failure"
		if cmd == "recover-nic" {
			action = "recover_nic"
		}
		s.exec(w, &scenario.Event{Action: action, Target: args[0]})
	case "fail-link", "recover-link":
		s.linkCmd(w, cmd, args)
	case "health":
		s.health(w)
	case "fail-apiserver":
		s.exec(w, &scenario.Event{Action: "fail_apiserver"})
	case "recover-apiserver":
		s.exec(w, &scenario.Event{Action: "recover_apiserver"})
	case "degrade-apiserver":
		s.degradeAPIServer(w, args)
	case "break-watch":
		if len(args) != 1 {
			fmt.Fprintln(w, "usage: break-watch <pods|jobs|nodes|namespaces>")
			return false
		}
		s.exec(w, &scenario.Event{Action: "break_watch", Params: map[string]string{"kind": args[0]}})
	case "apiserver":
		s.apiserver(w)
	case "remediate":
		if len(args) != 1 {
			fmt.Fprintln(w, "usage: remediate <node>")
			return false
		}
		s.exec(w, &scenario.Event{Action: "remediate", Target: args[0]})
	case "run-traffic":
		s.runTraffic(w, args)
	case "step":
		s.step(w, args)
	case "run-until-idle":
		s.runUntilIdle(w)
	case "metrics":
		s.metrics(w, args)
	case "quit", "exit":
		if err := s.ops.FlushTelemetry(); err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
		}
		s.printLog(w)
		fmt.Fprintln(w, "bye")
		return true
	default:
		fmt.Fprintf(w, "error: unknown command %q (try 'help')\n", cmd)
	}
	return false
}

func (s *Server) help(w io.Writer) {
	fmt.Fprint(w, `commands:
  nodes                          node table: group, switch, NIC, cordon, pods
  jobs                           job table across all tenants
  links [-top N]                 busiest fabric links (default top 10)
  cordon <node>                  exclude a node from scheduling
  uncordon <node>                readmit a node
  fail-nic <node>                fail the node's Cassini NIC
  recover-nic <node>             recover it
  fail-link <a> <b> [idx]        fail global link(s) between groups a and b
  recover-link <a> <b> [idx]     recover them
  health                         health daemon view: node states, bad links, remediations
  remediate <node>               drain, replace and uncordon a node (needs a health: section)
  fail-apiserver                 take the API server down (writes fail until recovery)
  degrade-apiserver [lat] [err]  degraded mode: latency factor (default 5), write error prob (default 0.2)
  recover-apiserver              restore full API server availability
  break-watch <kind>             silently break watch streams (pods|jobs|nodes|namespaces)
  apiserver                      fault-layer view: availability, retries, relists, staleness
  run-traffic <pattern> <bytes>  run a 10-iteration collective over all nodes
  step <duration>                advance the virtual clock
  run-until-idle                 run until no work is pending (60s cap)
  metrics                        print Prometheus exposition of latest sample
  metrics dump <path>            write the telemetry series as JSONL
  metrics prom <path>            write the Prometheus exposition to a file
  quit                           flush telemetry and end the session
`)
}

// exec runs one scenario event and prints its narration, then any error.
func (s *Server) exec(w io.Writer, ev *scenario.Event) {
	err := s.run(ev)
	s.printLog(w)
	if err != nil {
		fmt.Fprintf(w, "error: %v\n", err)
	}
}

// run validates ev as Validate does a YAML event, then executes it; an
// invalid event is rejected before it touches the fleet.
func (s *Server) run(ev *scenario.Event) error {
	if err := s.sc.ValidateEvent(ev); err != nil {
		return err
	}
	return s.ops.Exec(ev)
}

func (s *Server) printLog(w io.Writer) {
	for _, l := range s.ops.TakeLog() {
		fmt.Fprintf(w, "  %s\n", l)
	}
}

func (s *Server) nodes(w io.Writer) {
	st := s.ops.Stack()
	running := map[string]int{}
	for _, obj := range s.pods.List("") {
		pod := obj.(*k8s.Pod)
		if pod.Status.Phase == k8s.PodRunning {
			running[pod.Spec.NodeName]++
		}
	}
	fmt.Fprintf(w, "%-10s %5s %6s %-5s %-9s %5s\n", "node", "group", "switch", "nic", "sched", "pods")
	for _, n := range st.Nodes {
		nic := "up"
		if st.Topo.PortDown(n.Device.Addr()) {
			nic = "DOWN"
		}
		sched := "ok"
		if st.Cluster.Scheduler.Cordoned(n.Name) {
			sched = "cordoned"
		}
		fmt.Fprintf(w, "%-10s %5d %6d %-5s %-9s %5d\n", n.Name, n.Group, n.SwitchIndex, nic, sched, running[n.Name])
	}
}

func (s *Server) jobsCmd(w io.Writer) {
	type row struct {
		key          string
		active, pods int
		state        string
	}
	var rows []row
	for _, obj := range s.jobs.List("") {
		job := obj.(*k8s.Job)
		state := "pending"
		switch {
		case job.Status.Completed:
			state = "completed"
		case job.Status.Active > 0:
			state = "running"
		}
		rows = append(rows, row{job.Meta.Namespace + "/" + job.Meta.Name,
			job.Status.Active, job.Spec.Parallelism, state})
	}
	if len(rows) == 0 {
		fmt.Fprintln(w, "no jobs")
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	fmt.Fprintf(w, "%-24s %6s %5s %s\n", "job", "active", "pods", "state")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %6d %5d %s\n", r.key, r.active, r.pods, r.state)
	}
}

func (s *Server) links(w io.Writer, args []string) {
	n := 10
	switch {
	case len(args) == 0:
	case len(args) == 2 && args[0] == "-top":
		v, err := strconv.Atoi(args[1])
		if err != nil || v < 1 {
			fmt.Fprintf(w, "error: -top wants a positive integer, got %q\n", args[1])
			return
		}
		n = v
	default:
		fmt.Fprintln(w, "usage: links [-top N]")
		return
	}
	metrics.RenderHotLinks(w, s.ops.Stack().Topo.LinkUtils(), n)
}

func (s *Server) linkCmd(w io.Writer, cmd string, args []string) {
	if len(args) != 2 && len(args) != 3 {
		fmt.Fprintf(w, "usage: %s <groupA> <groupB> [linkIndex]\n", cmd)
		return
	}
	params := map[string]string{"groups": args[0] + "," + args[1]}
	if len(args) == 3 {
		params["link"] = args[2]
	}
	s.exec(w, &scenario.Event{Action: strings.ReplaceAll(cmd, "-", "_"), Params: params})
}

// runTraffic submits a gang job spanning every node in the ops tenant,
// drives the named collective over it through the scenario run_traffic
// path, and deletes the job — one operator command for the whole cycle.
func (s *Server) runTraffic(w io.Writer, args []string) {
	if len(args) != 2 {
		fmt.Fprintln(w, "usage: run-traffic <pattern> <bytes>")
		return
	}
	if _, err := workload.ParsePattern(args[0]); err != nil {
		fmt.Fprintf(w, "error: %v\n", err)
		return
	}
	bytes, err := strconv.Atoi(args[1])
	if err != nil || bytes < 1 {
		fmt.Fprintf(w, "error: bytes wants a positive integer, got %q\n", args[1])
		return
	}
	s.seq++
	name := fmt.Sprintf("traffic-%d", s.seq)
	s.sc.Traffic = append(s.sc.Traffic, scenario.TrafficSpec{
		Name: name, Pattern: args[0], Bytes: bytes, Iterations: 10,
	})
	pods := strconv.Itoa(len(s.ops.Stack().Nodes))
	// Job submission is asynchronous (the API write lands on the virtual
	// clock), so wait for the gang before driving traffic over it.
	for _, ev := range []*scenario.Event{
		{Action: "submit_job", Params: map[string]string{
			"tenant": opsTenant, "name": name, "pods": pods, "runtime": "10m", "vni": "true"}},
		{Action: "wait_running", Params: map[string]string{
			"tenant": opsTenant, "job": name, "pods": pods}},
		{Action: "run_traffic", Params: map[string]string{
			"tenant": opsTenant, "job": name, "traffic": name}},
		{Action: "delete_job", Params: map[string]string{"tenant": opsTenant, "name": name}},
	} {
		err := s.run(ev)
		s.printLog(w)
		if err != nil {
			fmt.Fprintf(w, "error: %s: %v\n", ev.Action, err)
			return
		}
	}
}

// degradeAPIServer executes a degrade_apiserver event from the optional
// latency-factor and error-prob arguments.
func (s *Server) degradeAPIServer(w io.Writer, args []string) {
	if len(args) > 2 {
		fmt.Fprintln(w, "usage: degrade-apiserver [latency_factor] [error_prob]")
		return
	}
	params := map[string]string{}
	for i, key := range []string{"latency_factor", "error_prob"}[:len(args)] {
		params[key] = args[i]
	}
	s.exec(w, &scenario.Event{Action: "degrade_apiserver", Params: params})
}

// apiserver renders the control-plane fault layer's counters.
func (s *Server) apiserver(w io.Writer) {
	stats, avail, armed := s.ops.ControlPlaneStatus()
	if !armed {
		fmt.Fprintln(w, "fault layer dormant (no control-plane fault injected); apiserver up")
		return
	}
	fmt.Fprintf(w, "availability:   %s\n", avail)
	fmt.Fprintf(w, "retries:        %d\n", stats.Retries)
	fmt.Fprintf(w, "timeouts:       %d\n", stats.Timeouts)
	fmt.Fprintf(w, "exhausted:      %d\n", stats.Exhausted)
	fmt.Fprintf(w, "relists:        %d\n", stats.Relists)
	fmt.Fprintf(w, "stale reads:    %d\n", stats.StaleReads)
	fmt.Fprintf(w, "max staleness:  %.0fus\n", stats.MaxStalenessUs)
}

// health renders the daemon's node table, any down or flapping links,
// and the remediation controller's runs.
func (s *Server) health(w io.Writer) {
	nodes, links, ok := s.ops.HealthSnapshot()
	if !ok {
		fmt.Fprintln(w, "error: health loop disabled (boot a scenario with a health: section)")
		return
	}
	fmt.Fprintf(w, "%-10s %-10s %10s\n", "node", "state", "err/s")
	for _, n := range nodes {
		fmt.Fprintf(w, "%-10s %-10s %10.1f\n", n.Name, n.State, n.ErrorRate)
	}
	header := false
	for _, l := range links {
		if !l.Down && !l.Flapping {
			continue
		}
		if !header {
			header = true
			fmt.Fprintf(w, "%-14s %-5s %s\n", "link", "down", "flapping")
		}
		fmt.Fprintf(w, "%-14s %-5v %v\n", l.Key, l.Down, l.Flapping)
	}
	if runs, ok := s.ops.RemediationStatus(); ok && len(runs) > 0 {
		fmt.Fprintf(w, "%-10s %-12s %s\n", "node", "phase", "retries")
		for _, r := range runs {
			fmt.Fprintf(w, "%-10s %-12s %7d\n", r.Node, r.Phase, r.Retries)
		}
	}
}

func (s *Server) step(w io.Writer, args []string) {
	if len(args) != 1 {
		fmt.Fprintln(w, "usage: step <duration>   (e.g. step 250ms)")
		return
	}
	d, err := time.ParseDuration(args[0])
	if err != nil || d <= 0 {
		fmt.Fprintf(w, "error: step wants a positive duration, got %q\n", args[0])
		return
	}
	s.exec(w, &scenario.Event{Action: "run_for", Params: map[string]string{"duration": args[0]}})
	fmt.Fprintf(w, "  advanced %s, clock at %s\n", d, s.ops.Stack().Eng.Now())
}

// runUntilIdle drains pending work. An attached telemetry sampler keeps
// one perpetual tick event alive, and so does the control-plane gap
// prober once a fault command armed it, so "idle" means nothing else
// pending.
func (s *Server) runUntilIdle(w io.Writer) {
	eng := s.ops.Stack().Eng
	floor := 0
	if sp := s.ops.Sampler(); sp != nil && sp.Attached() {
		floor = 1
	}
	if s.ops.CPArmed() {
		floor++
	}
	deadline := eng.Now().Add(60 * time.Second)
	if eng.RunUntilDone(func() bool { return eng.Pending() <= floor }, deadline) {
		s.printLog(w)
		fmt.Fprintf(w, "  idle, clock at %s\n", eng.Now())
		return
	}
	s.printLog(w)
	fmt.Fprintf(w, "  %d event(s) still pending after 60s, clock at %s\n", eng.Pending()-floor, eng.Now())
}

func (s *Server) metrics(w io.Writer, args []string) {
	sp := s.ops.Sampler()
	if sp == nil {
		fmt.Fprintln(w, "error: telemetry disabled (boot with -sample-every or a telemetry: section)")
		return
	}
	switch {
	case len(args) == 0:
		if err := sp.WritePrometheus(w); err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
		}
	case len(args) == 2 && args[0] == "dump":
		if err := sp.DumpJSONL(args[1]); err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
			return
		}
		fmt.Fprintf(w, "  wrote %d sample(s) to %s\n", sp.Len(), args[1])
	case len(args) == 2 && args[0] == "prom":
		if err := sp.DumpPrometheus(args[1]); err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
			return
		}
		fmt.Fprintf(w, "  wrote prometheus exposition to %s\n", args[1])
	default:
		fmt.Fprintln(w, "usage: metrics | metrics dump <path> | metrics prom <path>")
	}
}
