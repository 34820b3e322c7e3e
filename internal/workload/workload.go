package workload

import (
	"fmt"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/libfabric"
	"github.com/caps-sim/shs-k8s/internal/mpi"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// Pattern names a collective communication pattern the engine can drive.
type Pattern string

// The supported patterns; docs/workloads.md describes each algorithm and
// its cost model.
const (
	// AllreduceRing is the bandwidth-optimal ring allreduce
	// (reduce-scatter + allgather), the pattern of data-parallel training
	// and iterative solvers.
	AllreduceRing Pattern = "allreduce-ring"
	// AllreduceRecDbl is the latency-optimal recursive-doubling
	// allreduce; its doubling distances make the later rounds cross-group.
	AllreduceRecDbl Pattern = "allreduce-rd"
	// Alltoall is the pairwise-exchange complete exchange, the classic
	// global-link hotspot (FFT transposes, shuffle phases).
	Alltoall Pattern = "alltoall"
	// Halo is a periodic 1-D nearest-neighbor halo exchange, the stencil
	// pattern that placement-aware scheduling keeps inside a group.
	Halo Pattern = "halo"
)

// Patterns lists every supported pattern, in documentation order.
func Patterns() []Pattern {
	return []Pattern{AllreduceRing, AllreduceRecDbl, Alltoall, Halo}
}

// ParsePattern validates a pattern name from a scenario file or flag.
func ParsePattern(s string) (Pattern, error) {
	for _, p := range Patterns() {
		if s == string(p) {
			return p, nil
		}
	}
	return "", fmt.Errorf("workload: unknown pattern %q (have %v)", s, Patterns())
}

// Spec configures one traffic run: Iterations repetitions of Pattern with
// Bytes per collective call, separated by Compute of simulated
// application compute.
type Spec struct {
	Pattern Pattern
	// Bytes is the per-call payload: the vector size for allreduce, the
	// per-destination block for alltoall, the halo width for halo.
	Bytes int
	// Iterations is the number of collective calls (≥ 1).
	Iterations int
	// Compute is simulated application compute between iterations
	// (0 = back-to-back communication).
	Compute sim.Duration
	// Fidelity is the fabric execution mode for the run; the zero value is
	// exact packet fidelity (see fabric.Fidelity).
	Fidelity fabric.Fidelity
}

// DefaultSpec is a moderate allreduce loop.
func DefaultSpec() Spec {
	return Spec{Pattern: AllreduceRing, Bytes: 64 << 10, Iterations: 10}
}

// Validate rejects malformed specs before they reach the engine.
func (s Spec) Validate() error {
	if _, err := ParsePattern(string(s.Pattern)); err != nil {
		return err
	}
	if s.Bytes < 0 {
		return fmt.Errorf("workload: negative payload %d", s.Bytes)
	}
	if s.Iterations < 1 {
		return fmt.Errorf("workload: iterations must be ≥ 1, got %d", s.Iterations)
	}
	if s.Compute < 0 {
		return fmt.Errorf("workload: negative compute %v", s.Compute)
	}
	if s.Fidelity > fabric.FidelityHybrid {
		return fmt.Errorf("workload: unknown fidelity %d", s.Fidelity)
	}
	return nil
}

// Report is the outcome of one traffic run.
type Report struct {
	Spec  Spec
	Ranks int
	// Elapsed is the virtual time from first call to last completion —
	// the job's communication time.
	Elapsed sim.Duration
	// MPIBytes is the payload volume the ranks pushed through the MPI
	// layer during the run.
	MPIBytes uint64
	// GlobalLinkBytes is the traffic that crossed dragonfly global links
	// during the run; zero means the placement kept the job inside one
	// group. Zero when no topology was attached.
	GlobalLinkBytes uint64
	// MaxLinkUtilization is the busiest directional trunk's utilization at
	// the end of the run (fabric-lifetime ratio, as the scenario assertion
	// of the same name reports).
	MaxLinkUtilization float64
	// TrunkDrops counts packets lost on down trunks during the run.
	TrunkDrops uint64
	// Migrations counts how many times the gang vacated a degrading
	// placement mid-run and resumed elsewhere (always zero for
	// RunProgress).
	Migrations int
}

// RunProgress executes spec over the communicator and calls done with the
// report when the final iteration completes; progress, when non-nil, runs
// after each collective call completes (iter counts from 1 to
// spec.Iterations), which is how the telemetry sampler exposes live
// workload progress. topo, when non-nil, scopes the fabric counters to the
// run (byte and drop counters are deltas). The caller drives the engine;
// like every simulated component, RunProgress only schedules events. It is
// RunMigratable over a fixed communicator that never moves.
func RunProgress(eng *sim.Engine, comm *mpi.Comm, topo *fabric.Topology, spec Spec, progress func(iter int), done func(Report)) error {
	env := Env{Connect: func() (*mpi.Comm, []*libfabric.Domain, error) { return comm, nil, nil }}
	return RunMigratable(eng, topo, spec, env, progress, done)
}
