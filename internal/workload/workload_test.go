package workload

import (
	"fmt"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/cxi"
	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/libfabric"
	"github.com/caps-sim/shs-k8s/internal/mpi"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/slurm"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
)

// twoGroupStack builds a 2-group dragonfly (4 nodes per group) whose
// global links run at a tenth of the edge rate, so group spill is visible
// in completion time.
func twoGroupStack(t *testing.T, seed int64) *stack.Stack {
	t.Helper()
	opts := stack.DefaultOptions()
	opts.Seed = seed
	opts.Nodes = 8
	opts.Topology = fabric.TopologySpec{
		Groups: 2, SwitchesPerGroup: 1, NodesPerSwitch: 4,
		GlobalLinkBandwidthBits: 20e9,
	}
	return stack.New(opts)
}

// hostComm opens host-process domains on the given nodes and connects
// them.
func hostComm(t *testing.T, st *stack.Stack, nodes []int) *mpi.Comm {
	t.Helper()
	var doms []*libfabric.Domain
	for rank, n := range nodes {
		proc, err := st.Kernel.Spawn(fmt.Sprintf("wl-rank%d", rank), 1000, 1000, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		d, err := libfabric.OpenDomain(st.Eng, libfabric.Info{
			Device: st.Nodes[n].Device, Caller: proc.PID, VNI: 1, TC: fabric.TCDedicated})
		if err != nil {
			t.Fatal(err)
		}
		doms = append(doms, d)
	}
	comm, err := mpi.Connect(st.Eng, doms...)
	if err != nil {
		t.Fatal(err)
	}
	return comm
}

// runReport drives one spec to completion and returns the report.
func runReport(t *testing.T, st *stack.Stack, comm *mpi.Comm, spec Spec) Report {
	t.Helper()
	var rep Report
	done := false
	if err := RunProgress(st.Eng, comm, st.Topo, spec, nil, func(r Report) { rep = r; done = true }); err != nil {
		t.Fatal(err)
	}
	st.Eng.Run()
	if !done {
		t.Fatal("workload never completed")
	}
	return rep
}

// TestPlacementSensitivity is the engine-level version of the bundled
// allreduce-colocated-vs-spilled scenario: the same allreduce gang runs
// measurably slower spilled across groups than co-located inside one, and
// the report's global-link counter explains why.
func TestPlacementSensitivity(t *testing.T) {
	spec := Spec{Pattern: AllreduceRing, Bytes: 256 << 10, Iterations: 5}

	st := twoGroupStack(t, 1)
	colo := runReport(t, st, hostComm(t, st, []int{0, 1, 2, 3}), spec)

	st = twoGroupStack(t, 1)
	spill := runReport(t, st, hostComm(t, st, []int{0, 1, 4, 5}), spec)

	if colo.GlobalLinkBytes != 0 {
		t.Errorf("co-located run crossed global links: %d bytes", colo.GlobalLinkBytes)
	}
	if spill.GlobalLinkBytes == 0 {
		t.Error("spilled run shows no global-link traffic")
	}
	if spill.Elapsed < colo.Elapsed*3/2 {
		t.Errorf("spill not measurably slower: colo %v vs spill %v", colo.Elapsed, spill.Elapsed)
	}
	if colo.MPIBytes != uint64(spec.Iterations)*mpi.AllreduceRingBytes(4, spec.Bytes) {
		t.Errorf("colo MPI bytes = %d", colo.MPIBytes)
	}
}

// TestRunDeterminism: same seed, same placement ⇒ identical report.
func TestRunDeterminism(t *testing.T) {
	spec := Spec{Pattern: Alltoall, Bytes: 32 << 10, Iterations: 3, Compute: time.Millisecond}
	run := func() Report {
		st := twoGroupStack(t, 42)
		return runReport(t, st, hostComm(t, st, []int{0, 1, 4, 5}), spec)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed, different reports:\n%+v\n%+v", a, b)
	}
	if a.Elapsed <= sim.Duration(3*time.Millisecond) {
		t.Errorf("elapsed %v does not cover the compute phases", a.Elapsed)
	}
}

// TestRunValidatesSpec rejects malformed specs without scheduling events.
func TestRunValidatesSpec(t *testing.T) {
	st := twoGroupStack(t, 1)
	comm := hostComm(t, st, []int{0, 1})
	for _, spec := range []Spec{
		{Pattern: "warp-drive", Bytes: 1, Iterations: 1},
		{Pattern: AllreduceRing, Bytes: -1, Iterations: 1},
		{Pattern: AllreduceRing, Bytes: 1, Iterations: 0},
		{Pattern: AllreduceRing, Bytes: 1, Iterations: 1, Compute: -time.Second},
	} {
		if err := RunProgress(st.Eng, comm, st.Topo, spec, nil, func(Report) {}); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

// TestGangFromScheduledJob builds a communicator over a real scheduled
// job's pods (netns-authenticated domains on the job's private VNI) and
// runs a collective through the full stack.
func TestGangFromScheduledJob(t *testing.T) {
	st := twoGroupStack(t, 1)
	st.Cluster.CreateNamespace("team")
	st.Cluster.SubmitJob(&k8s.Job{
		Meta: k8s.Meta{Kind: k8s.KindJob, Namespace: "team", Name: "solver",
			Annotations: map[string]string{vniapi.Annotation: vniapi.AnnotationValueTrue}},
		Spec: k8s.JobSpec{Parallelism: 4,
			Template: k8s.PodSpec{Image: "solver:1", RunDuration: time.Hour}},
	})
	deadline := st.Eng.Now().Add(2 * time.Minute)
	var vni fabric.VNI
	ok := st.Eng.RunUntilDone(func() bool {
		running := 0
		for _, obj := range st.Cluster.Client.Lister(k8s.KindPod).List("team") {
			if obj.(*k8s.Pod).Status.Phase == k8s.PodRunning {
				running++
			}
		}
		if running < 4 {
			return false
		}
		for _, obj := range vniapi.VNILister(st.Cluster.Client).List("team") {
			cr := obj.(*k8s.Custom)
			if cr.Spec[vniapi.SpecVNI] != "" {
				fmt.Sscanf(cr.Spec[vniapi.SpecVNI], "%d", &vni)
				return vni != 0
			}
		}
		return false
	}, deadline)
	if !ok {
		t.Fatal("job pods never came up with a VNI")
	}
	doms, err := Gang(st, "team", "solver", vni, fabric.TCDedicated)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(doms)
	if len(doms) != 4 {
		t.Fatalf("gang size %d, want 4", len(doms))
	}
	comm, err := mpi.Connect(st.Eng, doms...)
	if err != nil {
		t.Fatal(err)
	}
	rep := runReport(t, st, comm, Spec{Pattern: AllreduceRecDbl, Bytes: 4096, Iterations: 2})
	if rep.Ranks != 4 || rep.Elapsed <= 0 {
		t.Errorf("report %+v", rep)
	}
	if want := 2 * mpi.AllreduceRecursiveDoublingBytes(4, 4096); rep.MPIBytes != want {
		t.Errorf("MPI bytes %d, want %d", rep.MPIBytes, want)
	}
}

// TestGangNeedsRunningPods: a job with fewer than two running pods is not
// a gang.
func TestGangNeedsRunningPods(t *testing.T) {
	st := twoGroupStack(t, 1)
	st.Cluster.CreateNamespace("team")
	if _, err := Gang(st, "team", "ghost", 1, fabric.TCDedicated); err == nil {
		t.Error("gang over nonexistent job accepted")
	}
}

// TestSlurmGang runs a collective over a Slurm allocation: slurmd's
// UID-member services authenticate the ranks, and the job's VNI carries
// the traffic.
func TestSlurmGang(t *testing.T) {
	st := twoGroupStack(t, 1)
	root, err := st.Kernel.Spawn("slurm-root", 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*slurm.Node
	devices := map[string]*cxi.Device{}
	for _, n := range st.Nodes[:4] {
		nodes = append(nodes, &slurm.Node{Name: n.Name, Device: n.Device})
		devices[n.Name] = n.Device
	}
	ctl := slurm.NewController(st.DB, st.Eng, root.PID, nodes)
	job, err := ctl.Submit(3001, 3001, []string{"node0", "node1", "node2", "node3"})
	if err != nil {
		t.Fatal(err)
	}
	doms, err := SlurmGang(st.Eng, st.Kernel, job, devices, fabric.TCDedicated)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := mpi.Connect(st.Eng, doms...)
	if err != nil {
		t.Fatal(err)
	}
	rep := runReport(t, st, comm, Spec{Pattern: Halo, Bytes: 8192, Iterations: 3})
	if want := 3 * mpi.HaloExchangeBytes(4, 8192); rep.MPIBytes != want {
		t.Errorf("MPI bytes %d, want %d", rep.MPIBytes, want)
	}
	// The allocation is intra-group: no global-link traffic.
	if rep.GlobalLinkBytes != 0 {
		t.Errorf("intra-group slurm gang crossed global links: %d bytes", rep.GlobalLinkBytes)
	}
	CloseAll(doms)
	if err := ctl.Complete(job.ID); err != nil {
		t.Errorf("complete after closing endpoints: %v", err)
	}
}
