package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/mpi"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
	"github.com/caps-sim/shs-k8s/internal/workload"
)

// The tenant-collectives fleet: a 4-group dragonfly, one edge switch of
// groupNodes nodes per group, global links tapered 8:1 against the edge.
// With one pod per node, the small gang fits inside group 0 and the large
// one fills group 0's last nodes and spills into group 1, so the two
// tenants share switch 0 and only the spilled gang crosses a global link.
const (
	groups     = 4
	groupNodes = 6
	globalGbps = 25
)

// tenantSpec is one tenant's gang.
type tenantSpec struct {
	name  string
	ranks int
}

var tenants = []tenantSpec{{"red", 4}, {"blue", 8}}

// roundDeadline bounds one round in simulated time.
const roundDeadline = time.Second

// checkEvery is how many rounds pass between checks of the fabric drop and
// CXI auth-failure counters; a round fails if its block saw either grow.
const checkEvery = 256

type gang struct {
	spec tenantSpec
	comm *mpi.Comm
}

// buildTenants builds the fleet, admits every tenant's gang as a multi-pod
// vni:"true" job and connects its ranks over netns-member authentication.
func buildTenants(p *phase, stackSeed int64) (*stack.Stack, []gang, error) {
	t0 := time.Now()
	opts := stack.DefaultOptions()
	opts.Seed = stackSeed
	opts.Nodes = groups * groupNodes
	opts.Topology = fabric.TopologySpec{
		Groups: groups, SwitchesPerGroup: 1, NodesPerSwitch: groupNodes,
		GlobalLinkBandwidthBits: globalGbps * 1e9,
	}
	opts.Cluster.Scheduler.NodeCapacity = 1
	st := stack.New(opts)
	p.span("stack.new_ms", time.Since(t0))

	cli := st.Cluster.Client
	pods := cli.Lister(k8s.KindPod)
	vnis := vniapi.VNILister(cli)
	var gangs []gang
	for _, ts := range tenants {
		st.Cluster.CreateNamespace(ts.name)
		job := &k8s.Job{
			Meta: k8s.Meta{Namespace: ts.name, Name: "gang",
				Annotations: map[string]string{vniapi.Annotation: vniapi.AnnotationValueTrue}},
			Spec: k8s.JobSpec{Parallelism: ts.ranks,
				Template: k8s.PodSpec{Image: "mpi:latest", RunDuration: 1000 * time.Hour}},
		}
		tSubmit := time.Now()
		st.Cluster.SubmitJob(job)
		p.span("k8s.submit_ms", time.Since(tSubmit))
		running := func() bool {
			n := 0
			for _, obj := range pods.List(ts.name) {
				if obj.(*k8s.Pod).Status.Phase == k8s.PodRunning {
					n++
				}
			}
			return n == ts.ranks
		}
		tRun := time.Now()
		ok := st.Eng.RunUntilDone(running, st.Eng.Now().Add(time.Minute))
		p.span("sim.run_s", time.Since(tRun))
		if !ok {
			return nil, nil, fmt.Errorf("tenant-collectives: gang %s never reached %d running pods", ts.name, ts.ranks)
		}
		crds := vnis.ByIndex(vniapi.IndexVNIByJob, ts.name+"/gang")
		if len(crds) == 0 {
			return nil, nil, fmt.Errorf("tenant-collectives: gang %s has no VNI", ts.name)
		}
		v, err := strconv.ParseUint(crds[0].(*k8s.Custom).Spec[vniapi.SpecVNI], 10, 32)
		if err != nil {
			return nil, nil, fmt.Errorf("tenant-collectives: gang %s: %w", ts.name, err)
		}
		tGang := time.Now()
		doms, err := workload.Gang(st, ts.name, "gang", fabric.VNI(v), fabric.TCBulkData)
		p.span("workload.gang_ms", time.Since(tGang))
		if err != nil {
			return nil, nil, err
		}
		tConn := time.Now()
		comm, err := mpi.Connect(st.Eng, doms...)
		p.span("mpi.connect_ms", time.Since(tConn))
		if err != nil {
			return nil, nil, err
		}
		gangs = append(gangs, gang{spec: ts, comm: comm})
	}
	if g := groupsOf(st, pods, "red"); len(g) != 1 {
		return nil, nil, fmt.Errorf("tenant-collectives: red gang spans groups %v, want one", g)
	}
	if g := groupsOf(st, pods, "blue"); len(g) < 2 {
		return nil, nil, fmt.Errorf("tenant-collectives: blue gang spans groups %v, want several", g)
	}
	return st, gangs, nil
}

// groupsOf returns the dragonfly groups a tenant's pods run in.
func groupsOf(st *stack.Stack, pods k8s.Lister, tenant string) map[int]bool {
	out := map[int]bool{}
	for _, obj := range pods.List(tenant) {
		if n, ok := st.NodeByName(obj.(*k8s.Pod).Spec.NodeName); ok {
			out[n.Group] = true
		}
	}
	return out
}

// collectiveBytes is the closed-form payload of one collective call.
func collectiveBytes(pat workload.Pattern, n, size int) uint64 {
	switch pat {
	case workload.AllreduceRing:
		return mpi.AllreduceRingBytes(n, size)
	case workload.AllreduceRecDbl:
		return mpi.AllreduceRecursiveDoublingBytes(n, size)
	case workload.Alltoall:
		return mpi.AlltoallPairwiseBytes(n, size)
	default:
		return mpi.HaloExchangeBytes(n, size)
	}
}

// runCollectives drives tenant-collectives: a closed loop of rounds in
// which every tenant runs one collective concurrently. Tenant t runs
// pattern (round+t) mod 4 with a payload drawn per round from the seed.
func runCollectives(p *phase) error {
	rng := rand.New(rand.NewSource(p.seed))
	stackSeed := 1 + rng.Int63n(1<<31)
	var st *stack.Stack
	var gangs []gang
	for i := 0; i < p.size.setupReps; i++ {
		var err error
		p.timeSetup(func() { st, gangs, err = buildTenants(p, stackSeed) })
		if err != nil {
			return err
		}
	}
	hashAudit(p.fp, st)

	pats := workload.Patterns()
	before := snapshot(st)
	last := before
	blockStart, blockFailed := 0, 0
	sent := make([]uint64, len(gangs))
	finished := 0
	done := func() { finished++ }
	allDone := func() bool { return finished == len(gangs) }
	p.beginTimed()
	for r := 0; r < p.size.window || p.more(); r++ {
		size := 32<<10 + rng.Intn(64<<10) // 32–96 KiB per call
		t0 := time.Now()
		simStart := st.Eng.Now()
		finished = 0
		for t, g := range gangs {
			sent[t] = g.comm.BytesSent()
			if err := g.comm.RunCollective(string(pats[(r+t)%len(pats)]), size, done); err != nil {
				return err
			}
		}
		ok := st.Eng.RunUntilDone(allDone, simStart.Add(roundDeadline))
		d := time.Since(t0)
		simD := st.Eng.Now().Sub(simStart)
		p.simAdv += simD
		p.opMs = append(p.opMs, ms(d))
		p.attempted++

		var mpiBytes uint64
		for t, g := range gangs {
			got := g.comm.BytesSent() - sent[t]
			mpiBytes += got
			if want := collectiveBytes(pats[(r+t)%len(pats)], g.spec.ranks, size); got != want {
				ok = false
			}
		}
		if !ok {
			p.fail(1, "tenant-collectives: round %d did not complete with the closed-form payload", r)
			blockFailed++
		}
		if r < p.size.window {
			p.simOpMs = append(p.simOpMs, ms(simD))
			p.counts["mpi.bytes"] += float64(mpiBytes)
			p.fp.f("round %d size %d sim %d bytes %d ok %v\n", r, size, simD, mpiBytes, ok)
		}
		if (r+1)%checkEvery == 0 || r+1 == p.size.window {
			last = checkBlock(p, st, last, blockStart, r+1, blockFailed)
			blockStart, blockFailed = r+1, 0
		}
		if r+1 == p.size.window {
			p.counts.add(before, last)
			p.counts["ops"] = float64(p.size.window)
			hashCounters(p.fp, before, last)
		}
		if r%64 == 0 {
			p.rt.sampleHeap()
		}
	}
	p.endTimed()
	p.chunkOps()
	checkBlock(p, st, last, blockStart, p.attempted, blockFailed)
	return nil
}

// checkBlock fails rounds [from, to) that have not failed already when the
// fabric dropped a packet or a CXI endpoint failed authentication since
// the snapshot last. It returns the new snapshot.
func checkBlock(p *phase, st *stack.Stack, last counters, from, to, failed int) counters {
	now := snapshot(st)
	if now["fabric.drops"] > last["fabric.drops"] || now["cxi.auth_failures"] > last["cxi.auth_failures"] {
		p.fail(to-from-failed, "tenant-collectives: rounds %d-%d saw fabric drops or CXI auth failures", from, to-1)
	}
	return now
}
