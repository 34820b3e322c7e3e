package ctl

import (
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/scenario"
)

// runSession boots a fresh server for sc (nil = default fleet) and serves
// the script as one stdin session, returning the transcript.
func runSession(t *testing.T, sc *scenario.Scenario, script string) string {
	t.Helper()
	srv, err := New(sc)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var out bytes.Buffer
	if err := srv.Serve(strings.NewReader(script), &out); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	return out.String()
}

// goldenScript and goldenTranscript lock the control protocol: the exact
// bytes a scripted session produces, echoes and narration included. Any
// change to the protocol's rendering must update this transcript
// deliberately.
const goldenScript = `# golden protocol session
cordon node0
fail-nic node7
fail-link 0 1 0
nodes
links -top 2
bogus
step 250ms
quit
`

const goldenTranscript = `shs-k8s interactive: interactive — 8 node(s), 2 group(s), clock at 00:01.000 ('help' lists commands)
  [00:01.000] fleet up: 8 nodes, 1 tenants, vni pool 1024-65535, vni service=true
  [00:01.000] topology: 2 group(s) x 2 switch(es), 2 global link(s) per pair
shssim> cordon node0
  [00:01.000] cordoning node0
shssim> fail-nic node7
  [00:01.000] injecting NIC failure on node7
shssim> fail-link 0 1 0
  [00:01.000] failing global link 0 between group 0 and group 1
shssim> nodes
node       group switch nic   sched      pods
node0          0      0 up    cordoned      0
node1          0      0 up    ok            0
node2          0      1 up    ok            0
node3          0      1 up    ok            0
node4          1      2 up    ok            0
node5          1      2 up    ok            0
node6          1      3 up    ok            0
node7          1      3 DOWN  ok            0
shssim> links -top 2
link                     kind           bytes    packets   drops   util%
rosetta0->rosetta1       intra              0          0       0   0.00
rosetta0->rosetta2       global             0          0       0   0.00 DOWN
shssim> bogus
error: unknown command "bogus" (try 'help')
shssim> step 250ms
  advanced 250ms, clock at 00:01.250
shssim> quit
bye
`

func TestGoldenTranscript(t *testing.T) {
	got := runSession(t, nil, goldenScript)
	if got != goldenTranscript {
		t.Errorf("transcript diverged from golden:\n--- got:\n%s\n--- want:\n%s", got, goldenTranscript)
	}
}

// TestSessionDeterminism replays a full operator session — traffic, a
// link failure, rerouted traffic, telemetry dump — twice on fresh fleets
// and requires byte-identical transcripts and telemetry series.
func TestSessionDeterminism(t *testing.T) {
	dir := t.TempDir()
	run := func(n int) (string, []byte) {
		sink := filepath.Join(dir, "tel"+string(rune('0'+n))+".jsonl")
		script := strings.Join([]string{
			"run-traffic alltoall 65536",
			"fail-link 0 1 0",
			"run-traffic alltoall 65536",
			"links -top 10",
			"run-until-idle",
			"metrics dump " + sink,
			"quit",
		}, "\n") + "\n"
		sc := DefaultScenario()
		sc.Telemetry.SampleEvery = 100 * time.Millisecond
		transcript := runSession(t, sc, script)
		// The dump path differs between runs; normalize it out.
		transcript = strings.ReplaceAll(transcript, sink, "SINK")
		data, err := os.ReadFile(sink)
		if err != nil {
			t.Fatalf("telemetry sink: %v", err)
		}
		return transcript, data
	}
	t1, d1 := run(1)
	t2, d2 := run(2)
	if t1 != t2 {
		t.Errorf("transcripts differ:\n--- 1:\n%s\n--- 2:\n%s", t1, t2)
	}
	if !bytes.Equal(d1, d2) {
		t.Error("telemetry series differ between identical sessions")
	}
	// The rerouting story must be visible: the second collective ran with
	// global link 0 down, so its sibling carried traffic.
	for _, want := range []string{
		"20 MB on global links",
		"DOWN",
		"idle, clock at",
	} {
		if !strings.Contains(t1, want) {
			t.Errorf("transcript missing %q:\n%s", want, t1)
		}
	}
}

// TestRunTrafficLifecycle checks one run-traffic command performs the full
// submit → wait → drive → delete cycle and leaves the fleet idle.
func TestRunTrafficLifecycle(t *testing.T) {
	// The delete lands asynchronously on the virtual clock, so the job
	// table empties only after run-until-idle drains the teardown.
	got := runSession(t, nil, "run-traffic allreduce-ring 4096\nrun-until-idle\njobs\nquit\n")
	for _, want := range []string{
		"submitted job ops/traffic-1 (8 pod(s)",
		"8 pod(s) running in ops",
		"traffic traffic-1 on ops/traffic-1: allreduce-ring x10 of 4096 B over 8 ranks",
		"deleted job ops/traffic-1",
		"no jobs",
		"idle, clock at",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("transcript missing %q:\n%s", want, got)
		}
	}
}

func TestCommandErrors(t *testing.T) {
	cases := []struct{ setup, cmd, want string }{
		{"", "run-traffic warp 64", "unknown pattern"},
		{"", "run-traffic alltoall zero", `bytes wants a positive integer, got "zero"`},
		{"", "fail-link a b", `groups: "a" is not a valid group index`},
		{"", "step backwards", "positive duration"},
		{"", "cordon", "usage: cordon <node>"},
		{"", "cordon nope", "error:"},
		{"", "links -top x", "-top wants a positive integer"},
		{"", "metrics", "telemetry disabled"},
		// The default fleet boots without a health: section, so the
		// health-loop commands must refuse with a pointer to the fix, and
		// malformed link coordinates must name the bad value, not panic.
		{"", "health", "health loop disabled"},
		{"", "remediate", "usage: remediate <node>"},
		{"", "remediate node0", "requires a health: section"},
		{"", "fail-link 0 1 9", `link: must be 0..1, got "9"`},
		{"", "fail-link 0 9 0", "error:"},
		// A negative link index must not fall through to "every link of
		// the pair": the validator YAML events pass rejects it.
		{"", "fail-link 0 1 -2", `link: must be 0..1, got "-2"`},
		{"fail-link 0 1 0", "recover-link 0 1 -5", `link: must be 0..1, got "-5"`},
		{"", "degrade-apiserver 0.5", "latency_factor: must be a number ≥ 1"},
		{"", "break-watch vnis", "kind: must be one of"},
	}
	for _, tc := range cases {
		srv, err := New(nil)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		srv.Ops().TakeLog() // the boot narration
		if tc.setup != "" {
			srv.Execute(io.Discard, tc.setup)
		}
		before := linkStates(srv)
		var out bytes.Buffer
		srv.Execute(&out, tc.cmd)
		got := out.String()
		if !strings.Contains(got, tc.want) {
			t.Errorf("%q: output missing %q:\n%s", tc.cmd, tc.want, got)
		}
		// A rejected command has no effect: nothing narrated, no link
		// state changed.
		if strings.Contains(got, "  [") {
			t.Errorf("%q: rejected command narrated an action:\n%s", tc.cmd, got)
		}
		if after := linkStates(srv); after != before {
			t.Errorf("%q: link states changed: %s -> %s", tc.cmd, before, after)
		}
	}
}

// linkStates renders every fabric link's up/down state.
func linkStates(srv *Server) string {
	var b strings.Builder
	for _, l := range srv.Ops().Stack().Topo.Links() {
		if l.Down {
			b.WriteByte('D')
		} else {
			b.WriteByte('u')
		}
	}
	return b.String()
}

// TestMetricsCommands drives the telemetry-backed metrics commands: the
// bare form prints the Prometheus exposition, dump writes JSONL.
func TestMetricsCommands(t *testing.T) {
	sink := filepath.Join(t.TempDir(), "series.jsonl")
	sc := DefaultScenario()
	sc.Telemetry.SampleEvery = 50 * time.Millisecond
	got := runSession(t, sc, "step 500ms\nmetrics\nmetrics dump "+sink+"\nquit\n")
	for _, want := range []string{
		"shssim_virtual_time_microseconds",
		"shssim_link_utilization",
		"wrote 11 sample(s) to " + sink,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("transcript missing %q:\n%s", want, got)
		}
	}
	data, err := os.ReadFile(sink)
	if err != nil {
		t.Fatalf("sink: %v", err)
	}
	if lines := bytes.Count(data, []byte("\n")); lines != 11 {
		t.Errorf("sink holds %d samples, want 11", lines)
	}
}

// TestScenarioFleetSections boots from a scenario file's fleet/topology
// sections; the ops tenant is added automatically for run-traffic.
func TestScenarioFleetSections(t *testing.T) {
	sc, err := scenario.Parse(strings.NewReader(`
name: custom
fleet:
  nodes: 4
  tenants:
    - name: blue
events:
  - at: 0s
    action: start_fleet
`))
	if err != nil {
		t.Fatal(err)
	}
	got := runSession(t, sc, "nodes\nquit\n")
	if !strings.Contains(got, "custom — 4 node(s), 1 group(s)") {
		t.Errorf("banner does not reflect the scenario fleet:\n%s", got)
	}
	if !strings.Contains(got, "2 tenants") {
		t.Errorf("ops tenant not added alongside blue:\n%s", got)
	}
	// Header plus one row per node.
	if strings.Count(got, "\nnode") != 5 {
		t.Errorf("node table does not list 4 nodes:\n%s", got)
	}
}

// TestSocketSession serves the protocol over a Unix socket: one client
// session runs commands and quits, which shuts the server down.
func TestSocketSession(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctl.sock")
	srv, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeSocket(path) }()

	var conn net.Conn
	for i := 0; i < 100; i++ {
		if conn, err = net.Dial("unix", path); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := conn.Write([]byte("nodes\nquit\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(conn); err != nil {
		t.Fatalf("read: %v", err)
	}
	conn.Close()
	for _, want := range []string{"shssim> nodes", "node7", "bye"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("socket transcript missing %q:\n%s", want, out.String())
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("ServeSocket: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("ServeSocket did not return after quit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("socket file not cleaned up: %v", err)
	}
}

// TestSocketSurvivesAbruptDisconnect: a client that drops its connection
// without sending quit must not take the server down — the listener goes
// back to Accept and serves the next session, and only an explicit quit
// ends ServeSocket. The first client hangs up with server output still
// unread, so the server's side of that session always fails with
// ECONNRESET or EPIPE.
func TestSocketSurvivesAbruptDisconnect(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctl.sock")
	srv, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeSocket(path) }()

	dial := func() net.Conn {
		t.Helper()
		var conn net.Conn
		var derr error
		for i := 0; i < 100; i++ {
			if conn, derr = net.Dial("unix", path); derr == nil {
				return conn
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("dial: %v", derr)
		return nil
	}

	// Session 1: queue commands with plenty of output, read one byte of
	// the banner (so the server is writing), then hang up without quit.
	// The banner arrives in one write, so bytes are always left unread.
	conn := dial()
	if _, err := conn.Write([]byte("help\nnodes\nhelp\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := io.ReadFull(conn, make([]byte, 1)); err != nil {
		t.Fatalf("read: %v", err)
	}
	conn.Close()
	select {
	case err := <-done:
		t.Fatalf("server exited on client disconnect: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	// Session 2 on the same listener still works and can end the server.
	conn = dial()
	if _, err := conn.Write([]byte("jobs\nquit\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(conn); err != nil {
		t.Fatalf("read: %v", err)
	}
	conn.Close()
	for _, want := range []string{"shssim> jobs", "bye"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("second session transcript missing %q:\n%s", want, out.String())
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("ServeSocket: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("ServeSocket did not return after quit")
	}
}

// failAfter is a writer that accepts n bytes, then fails every write.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		f.n = 0
		return 0, io.ErrClosedPipe
	}
	f.n -= len(p)
	return len(p), nil
}

// TestSessionEndsOnWriteError: a session stops at its first failed write
// and reports it, instead of running the rest of the script into a dead
// connection.
func TestSessionEndsOnWriteError(t *testing.T) {
	srv, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Ops().Stack().Eng.Now()
	err = srv.Serve(strings.NewReader("help\nstep 5s\nquit\n"), &failAfter{n: 16})
	if err != io.ErrClosedPipe {
		t.Fatalf("Serve = %v, want %v", err, io.ErrClosedPipe)
	}
	if now := srv.Ops().Stack().Eng.Now(); now != before {
		t.Errorf("commands ran after the write error: clock moved %s -> %s", before, now)
	}
}

// TestDocsListCommands keeps the docs/observability.md protocol table and
// the command table in step: the table's first column lists exactly the
// commands' usage strings, so every command is documented under the
// spelling help and usage errors print.
func TestDocsListCommands(t *testing.T) {
	data, err := os.ReadFile("../../docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(string(data), "\n### Protocol reference\n")
	if !ok {
		t.Fatal("docs/observability.md has no protocol reference")
	}
	body, _, _ = strings.Cut(body, "\n#")
	var got, want []string
	for _, line := range strings.Split(body, "\n") {
		if end := strings.Index(line, "` |"); strings.HasPrefix(line, "| `") && end > 0 {
			got = append(got, strings.ReplaceAll(line[3:end], `\|`, "|"))
		}
	}
	for i := range commands {
		want = append(want, commands[i].usage())
	}
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Errorf("protocol table lists %q\ncommand table has     %q", got, want)
	}
}
