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
	"errors"
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

// errUsage and errQuit are what a command's run returns when its
// arguments do not fit its usage, and when the session should end.
var (
	errUsage = errors.New("usage")
	errQuit  = errors.New("quit")
)

// A command is one operator command: its name, its arguments as the one
// usage string help and usage errors print, its help line, and run, which
// executes it. A mutating command builds a scenario.Event and executes it
// through exec.
type command struct {
	name, args, help string
	run              func(s *Server, w io.Writer, args []string) error
}

func (c *command) usage() string { return strings.TrimSpace(c.name + " " + c.args) }

// commands is the protocol, in help order. It is filled in init because
// help renders it.
var commands []command

func init() {
	commands = []command{
		{"help", "", "list commands", (*Server).help},
		{"nodes", "", "node table: group, switch, NIC, cordon, pods", (*Server).nodes},
		{"jobs", "", "job table across all tenants", (*Server).jobsCmd},
		{"links", "[-top N]", "busiest fabric links (default top 10)", (*Server).links},
		{"cordon", "<node>", "exclude a node from scheduling", nodeEvent("cordon")},
		{"uncordon", "<node>", "readmit a node", nodeEvent("uncordon")},
		{"fail-nic", "<node>", "fail the node's Cassini NIC", nodeEvent("inject_nic_failure")},
		{"recover-nic", "<node>", "recover it", nodeEvent("recover_nic")},
		{"fail-link", "<a> <b> [idx]", "fail global link(s) between groups a and b", linkEvent("fail_link")},
		{"recover-link", "<a> <b> [idx]", "recover them", linkEvent("recover_link")},
		{"health", "", "health daemon view: node states, bad links, remediations", (*Server).health},
		{"remediate", "<node>", "drain, replace and uncordon a node (needs a health: section)", nodeEvent("remediate")},
		{"fail-apiserver", "", "take the API server down (writes fail until recovery)", event("fail_apiserver")},
		{"degrade-apiserver", "[lat] [err]", "degraded mode: latency factor (default 5), write error prob (default 0.2)", degradeAPIServer},
		{"recover-apiserver", "", "restore full API server availability", event("recover_apiserver")},
		{"break-watch", "<kind>", "silently break watch streams (pods|jobs|nodes|namespaces)", breakWatch},
		{"apiserver", "", "fault-layer view: availability, retries, relists, staleness", (*Server).apiserver},
		{"run-traffic", "<pattern> <bytes>", "run a 10-iteration collective over all nodes", (*Server).runTraffic},
		{"step", "<duration>", "advance the virtual clock (e.g. step 250ms)", (*Server).step},
		{"run-until-idle", "", "run until no work is pending (60s cap)", (*Server).runUntilIdle},
		{"metrics", "[dump|prom <path>]", "print Prometheus exposition of latest sample, or write the JSONL series (dump) or the exposition (prom) to <path>", (*Server).metrics},
		{"quit", "", "flush telemetry and end the session", (*Server).quit},
		{"exit", "", "same as quit", (*Server).quit},
	}
}

// Execute runs one command line and reports whether the session should
// end. Errors are written to w; the session continues.
func (s *Server) Execute(w io.Writer, line string) bool {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return false
	}
	for i := range commands {
		c := &commands[i]
		if c.name != fields[0] {
			continue
		}
		switch err := c.run(s, w, fields[1:]); err {
		case nil:
		case errQuit:
			return true
		case errUsage:
			fmt.Fprintf(w, "usage: %s\n", c.usage())
		default:
			fmt.Fprintf(w, "error: %v\n", err)
		}
		return false
	}
	fmt.Fprintf(w, "error: unknown command %q (try 'help')\n", fields[0])
	return false
}

func (s *Server) help(w io.Writer, _ []string) error {
	fmt.Fprintln(w, "commands:")
	for i := range commands {
		fmt.Fprintf(w, "  %-30s %s\n", commands[i].usage(), commands[i].help)
	}
	return nil
}

// event is a command that executes action and takes no arguments.
func event(action string) func(*Server, io.Writer, []string) error {
	return func(s *Server, w io.Writer, _ []string) error {
		return s.exec(w, &scenario.Event{Action: action})
	}
}

// nodeEvent is a command that executes action on its one <node> argument.
func nodeEvent(action string) func(*Server, io.Writer, []string) error {
	return func(s *Server, w io.Writer, args []string) error {
		if len(args) != 1 {
			return errUsage
		}
		return s.exec(w, &scenario.Event{Action: action, Target: args[0]})
	}
}

// linkEvent is a command that executes action on the global link(s)
// between groups <a> and <b>, or on the one with index [idx].
func linkEvent(action string) func(*Server, io.Writer, []string) error {
	return func(s *Server, w io.Writer, args []string) error {
		if len(args) != 2 && len(args) != 3 {
			return errUsage
		}
		params := map[string]string{"groups": args[0] + "," + args[1]}
		if len(args) == 3 {
			params["link"] = args[2]
		}
		return s.exec(w, &scenario.Event{Action: action, Params: params})
	}
}

// degradeAPIServer executes a degrade_apiserver event from the optional
// latency-factor and error-prob arguments.
func degradeAPIServer(s *Server, w io.Writer, args []string) error {
	if len(args) > 2 {
		return errUsage
	}
	params := map[string]string{}
	for i, key := range []string{"latency_factor", "error_prob"}[:len(args)] {
		params[key] = args[i]
	}
	return s.exec(w, &scenario.Event{Action: "degrade_apiserver", Params: params})
}

func breakWatch(s *Server, w io.Writer, args []string) error {
	if len(args) != 1 {
		return errUsage
	}
	return s.exec(w, &scenario.Event{Action: "break_watch", Params: map[string]string{"kind": args[0]}})
}

func (s *Server) quit(w io.Writer, _ []string) error {
	if err := s.ops.FlushTelemetry(); err != nil {
		fmt.Fprintf(w, "error: %v\n", err)
	}
	s.printLog(w)
	fmt.Fprintln(w, "bye")
	return errQuit
}

// exec runs one scenario event, prints its narration and returns the
// event's error.
func (s *Server) exec(w io.Writer, ev *scenario.Event) error {
	err := s.run(ev)
	s.printLog(w)
	return err
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

func (s *Server) nodes(w io.Writer, _ []string) error {
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
	return nil
}

func (s *Server) jobsCmd(w io.Writer, _ []string) error {
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
		return nil
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	fmt.Fprintf(w, "%-24s %6s %5s %s\n", "job", "active", "pods", "state")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %6d %5d %s\n", r.key, r.active, r.pods, r.state)
	}
	return nil
}

func (s *Server) links(w io.Writer, args []string) error {
	n := 10
	switch {
	case len(args) == 0:
	case len(args) == 2 && args[0] == "-top":
		v, err := strconv.Atoi(args[1])
		if err != nil || v < 1 {
			return fmt.Errorf("-top wants a positive integer, got %q", args[1])
		}
		n = v
	default:
		return errUsage
	}
	metrics.RenderHotLinks(w, s.ops.Stack().Topo.LinkUtils(), n)
	return nil
}

// runTraffic submits a gang job spanning every node in the ops tenant,
// drives the named collective over it through the scenario run_traffic
// path, and deletes the job — one operator command for the whole cycle.
func (s *Server) runTraffic(w io.Writer, args []string) error {
	if len(args) != 2 {
		return errUsage
	}
	if _, err := workload.ParsePattern(args[0]); err != nil {
		return err
	}
	bytes, err := strconv.Atoi(args[1])
	if err != nil || bytes < 1 {
		return fmt.Errorf("bytes wants a positive integer, got %q", args[1])
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
		if err := s.exec(w, ev); err != nil {
			return fmt.Errorf("%s: %w", ev.Action, err)
		}
	}
	return nil
}

// apiserver renders the control-plane fault layer's counters.
func (s *Server) apiserver(w io.Writer, _ []string) error {
	stats, avail, armed := s.ops.ControlPlaneStatus()
	if !armed {
		fmt.Fprintln(w, "fault layer dormant (no control-plane fault injected); apiserver up")
		return nil
	}
	fmt.Fprintf(w, "availability:   %s\n", avail)
	fmt.Fprintf(w, "retries:        %d\n", stats.Retries)
	fmt.Fprintf(w, "timeouts:       %d\n", stats.Timeouts)
	fmt.Fprintf(w, "exhausted:      %d\n", stats.Exhausted)
	fmt.Fprintf(w, "relists:        %d\n", stats.Relists)
	fmt.Fprintf(w, "stale reads:    %d\n", stats.StaleReads)
	fmt.Fprintf(w, "max staleness:  %.0fus\n", stats.MaxStalenessUs)
	return nil
}

// health renders the daemon's node table, any down or flapping links,
// and the remediation controller's runs.
func (s *Server) health(w io.Writer, _ []string) error {
	nodes, links, ok := s.ops.HealthSnapshot()
	if !ok {
		return errors.New("health loop disabled (boot a scenario with a health: section)")
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
	return nil
}

func (s *Server) step(w io.Writer, args []string) error {
	if len(args) != 1 {
		return errUsage
	}
	d, err := time.ParseDuration(args[0])
	if err != nil || d <= 0 {
		return fmt.Errorf("step wants a positive duration, got %q", args[0])
	}
	if err := s.exec(w, &scenario.Event{Action: "run_for", Params: map[string]string{"duration": args[0]}}); err != nil {
		return err
	}
	fmt.Fprintf(w, "  advanced %s, clock at %s\n", d, s.ops.Stack().Eng.Now())
	return nil
}

// runUntilIdle drains pending work. An attached telemetry sampler keeps
// one perpetual tick event alive, and so does the control-plane gap
// prober once a fault command armed it, so "idle" means nothing else
// pending.
func (s *Server) runUntilIdle(w io.Writer, _ []string) error {
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
		return nil
	}
	s.printLog(w)
	fmt.Fprintf(w, "  %d event(s) still pending after 60s, clock at %s\n", eng.Pending()-floor, eng.Now())
	return nil
}

func (s *Server) metrics(w io.Writer, args []string) error {
	sp := s.ops.Sampler()
	if sp == nil {
		return errors.New("telemetry disabled (boot with -sample-every or a telemetry: section)")
	}
	switch {
	case len(args) == 0:
		return sp.WritePrometheus(w)
	case len(args) == 2 && args[0] == "dump":
		if err := sp.DumpJSONL(args[1]); err != nil {
			return err
		}
		fmt.Fprintf(w, "  wrote %d sample(s) to %s\n", sp.Len(), args[1])
	case len(args) == 2 && args[0] == "prom":
		if err := sp.DumpPrometheus(args[1]); err != nil {
			return err
		}
		fmt.Fprintf(w, "  wrote prometheus exposition to %s\n", args[1])
	default:
		return errUsage
	}
	return nil
}
