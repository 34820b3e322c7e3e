package workload

import (
	"fmt"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/libfabric"
	"github.com/caps-sim/shs-k8s/internal/mpi"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// Env is the control-plane glue a migratable run needs. The workload
// engine stays ignorant of Kubernetes: the caller (internal/scenario's
// Ops) supplies closures over the job, the scheduler's cordon set and
// the gang machinery.
type Env struct {
	// Connect gangs the job's current running pods and returns a ready
	// communicator plus the domains backing it. Called once at start and
	// once per migration; RunMigratable owns closing the domains.
	Connect func() (*mpi.Comm, []*libfabric.Domain, error)
	// Preempted reports whether the gang must vacate — any member sits
	// on a node the health loop cordoned. Checked between iterations,
	// when no collective is in flight, so domains close cleanly.
	Preempted func() bool
	// Ready reports whether the rescheduled gang is whole again (every
	// rank Running on schedulable nodes).
	Ready func() bool
}

// recheckEvery is the poll period while a gang is vacated.
const recheckEvery = 10 * time.Millisecond

// RunMigratable is RunProgress for a gang that survives preemption; it is
// the one collective iteration loop. At each iteration boundary it checks
// Env.Preempted (nil: never), and if the placement has gone bad it closes
// the gang's domains (releasing VNI grants and netns membership), waits
// for the control plane to reschedule the pods, re-gangs over the new
// placement, and resumes at the same iteration. Completed iterations are never redone — the checkpoint
// granularity is one collective call. The final Report counts the
// migrations and accumulates MPI bytes across all placements.
func RunMigratable(eng *sim.Engine, topo *fabric.Topology, spec Spec, env Env, progress func(iter int), done func(Report)) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if env.Connect == nil {
		return fmt.Errorf("workload: migratable run needs Env.Connect")
	}
	comm, doms, err := env.Connect()
	if err != nil {
		return err
	}
	comm.SetFidelity(spec.Fidelity)
	r := &migratableRun{eng: eng, topo: topo, spec: spec, env: env, progress: progress, done: done,
		comm: comm, doms: doms, start: eng.Now(), startBytes: comm.BytesSent()}
	if topo != nil {
		r.startGlobal = topo.GlobalLinkBytes()
		r.startDrops = topo.TrunkDrops()
	}
	r.loop, r.next, r.await = r.iterate, r.completed, r.reconnect
	eng.After(0, r.loop)
	return nil
}

// migratableRun is the state of one RunMigratable call. loop, next and
// await are its method values, bound once so that iterations allocate no
// callbacks.
type migratableRun struct {
	eng      *sim.Engine
	topo     *fabric.Topology
	spec     Spec
	env      Env
	progress func(iter int)
	done     func(Report)

	comm                    *mpi.Comm
	doms                    []*libfabric.Domain
	start                   sim.Time
	startBytes, bytesAccum  uint64
	startGlobal, startDrops uint64
	iter, migrations        int

	loop, next, await func()
}

// iterate runs at an iteration boundary: it ends the run, vacates a
// preempted gang, or starts the next collective call.
func (r *migratableRun) iterate() {
	if r.iter == r.spec.Iterations {
		r.finish()
		return
	}
	if r.env.Preempted != nil && r.env.Preempted() {
		r.migrate()
		return
	}
	r.iter++
	// Validate guaranteed the pattern, so the dispatch cannot fail.
	if err := r.comm.RunCollective(string(r.spec.Pattern), r.spec.Bytes, r.next); err != nil {
		panic(err)
	}
}

// completed runs when iteration iter's collective call completes.
func (r *migratableRun) completed() {
	if r.progress != nil {
		r.progress(r.iter)
	}
	if r.spec.Compute > 0 {
		r.eng.After(r.spec.Compute, r.loop)
	} else {
		r.iterate()
	}
}

func (r *migratableRun) finish() {
	CloseAll(r.doms)
	rep := Report{
		Spec:       r.spec,
		Ranks:      r.comm.Size(),
		Elapsed:    r.eng.Now().Sub(r.start),
		MPIBytes:   r.bytesAccum + r.comm.BytesSent() - r.startBytes,
		Migrations: r.migrations,
	}
	if r.topo != nil {
		rep.GlobalLinkBytes = r.topo.GlobalLinkBytes() - r.startGlobal
		rep.TrunkDrops = r.topo.TrunkDrops() - r.startDrops
		for _, l := range r.topo.Links() {
			if l.Utilization > rep.MaxLinkUtilization {
				rep.MaxLinkUtilization = l.Utilization
			}
		}
	}
	r.done(rep)
}

func (r *migratableRun) migrate() {
	// No collective is in flight at an iteration boundary, so the
	// domains are idle and release cleanly; the evicted pods can then
	// terminate without tearing down live transports.
	r.bytesAccum += r.comm.BytesSent() - r.startBytes
	CloseAll(r.doms)
	r.comm, r.doms = nil, nil
	r.migrations++
	r.reconnect()
}

// reconnect re-gangs a vacated run once the placement is whole again,
// polling until then.
func (r *migratableRun) reconnect() {
	if r.env.Ready == nil || r.env.Ready() {
		comm, doms, err := r.env.Connect()
		if err == nil {
			r.comm, r.doms = comm, doms
			comm.SetFidelity(r.spec.Fidelity)
			r.startBytes = comm.BytesSent()
			r.iterate()
			return
		}
		// The placement looked whole but gang setup raced a teardown;
		// poll again.
	}
	r.eng.After(recheckEvery, r.await)
}
