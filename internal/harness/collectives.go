// Collectives sweep: run every workload pattern across message sizes and
// placements (flat single-switch, group-colocated, group-spilled) and
// table completion time plus global-link traffic. This is the placement-
// sensitivity experiment behind scenarios/allreduce-colocated-vs-spilled
// .yaml, generalized into the pattern × size × topology grid
// EXPERIMENTS.md records.
package harness

import (
	"fmt"
	"io"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/libfabric"
	"github.com/caps-sim/shs-k8s/internal/mpi"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/workload"
)

// Placement names how the gang's ranks map onto the dragonfly.
type Placement string

// The three placements of the sweep.
const (
	// PlacementFlat is the baseline: every rank on one switch, no global
	// links anywhere (the paper's single-switch pilot, scaled out).
	PlacementFlat Placement = "flat"
	// PlacementColocated puts all ranks inside one group of a 4-group
	// dragonfly — the topology-aware scheduler's preferred outcome.
	PlacementColocated Placement = "colocated"
	// PlacementSpilled stripes the ranks round-robin across all four
	// groups — the worst-case fragmentation outcome.
	PlacementSpilled Placement = "spilled"
)

// CollectivesConfig shapes the sweep.
type CollectivesConfig struct {
	// Ranks is the gang size (must be divisible by the 4 dragonfly groups
	// for the spilled placement).
	Ranks int
	// Sizes are the per-call payloads swept.
	Sizes []int
	// Iterations is the collective calls per measurement.
	Iterations int
	// Patterns are the collectives swept.
	Patterns []workload.Pattern
	// GlobalGbps is the per-global-link rate; the default undersizes the
	// global links 8:1 against the 200 Gbps edge, a common dragonfly
	// taper, so placement differences are visible.
	GlobalGbps float64
	Seed       int64
	// Fidelity is the fabric execution mode for every cell (see
	// fabric.Fidelity); the zero value is exact packet fidelity.
	Fidelity fabric.Fidelity
}

// DefaultCollectivesConfig is the EXPERIMENTS.md grid: 8 ranks, three
// sizes per pattern.
func DefaultCollectivesConfig() CollectivesConfig {
	return CollectivesConfig{
		Ranks:      8,
		Sizes:      []int{4 << 10, 64 << 10, 1 << 20},
		Iterations: 5,
		Patterns:   workload.Patterns(),
		GlobalGbps: 25,
		Seed:       1,
	}
}

// CollectiveRow is one sweep cell.
type CollectiveRow struct {
	Pattern   workload.Pattern
	Bytes     int
	Placement Placement
	Report    workload.Report
}

// RunCollectivesSweep executes the full grid. Every cell gets a fresh
// deployment so fabric counters are per-cell.
func RunCollectivesSweep(cfg CollectivesConfig) ([]CollectiveRow, error) {
	if cfg.Ranks < 4 || cfg.Ranks%4 != 0 {
		return nil, fmt.Errorf("harness: collectives sweep needs a rank count divisible by 4, got %d", cfg.Ranks)
	}
	if cfg.GlobalGbps <= 0 {
		return nil, fmt.Errorf("harness: collectives sweep needs a positive global-link rate")
	}
	var rows []CollectiveRow
	for _, placement := range []Placement{PlacementFlat, PlacementColocated, PlacementSpilled} {
		for _, pattern := range cfg.Patterns {
			for _, size := range cfg.Sizes {
				rep, err := runCollectiveCell(cfg, placement, pattern, size)
				if err != nil {
					return nil, fmt.Errorf("harness: %s/%s/%d: %w", placement, pattern, size, err)
				}
				rows = append(rows, CollectiveRow{Pattern: pattern, Bytes: size, Placement: placement, Report: rep})
			}
		}
	}
	return rows, nil
}

// runCollectiveCell builds the placement's deployment, opens one host
// domain per rank on the chosen nodes, and runs the iteration loop.
func runCollectiveCell(cfg CollectivesConfig, placement Placement, pattern workload.Pattern, size int) (workload.Report, error) {
	sopts := stack.DefaultOptions()
	sopts.Seed = cfg.Seed
	var nodes []int
	switch placement {
	case PlacementFlat:
		sopts.Nodes = cfg.Ranks
		sopts.Topology = fabric.TopologySpec{Groups: 1, SwitchesPerGroup: 1, NodesPerSwitch: cfg.Ranks}
		for i := 0; i < cfg.Ranks; i++ {
			nodes = append(nodes, i)
		}
	case PlacementColocated, PlacementSpilled:
		// A 4-group dragonfly with one full gang's worth of nodes per
		// group; nodes are block-striped, so group g owns nodes
		// [g*Ranks, (g+1)*Ranks).
		sopts.Nodes = 4 * cfg.Ranks
		sopts.Topology = fabric.TopologySpec{
			Groups: 4, SwitchesPerGroup: 1, NodesPerSwitch: cfg.Ranks,
			GlobalLinkBandwidthBits: cfg.GlobalGbps * 1e9,
		}
		if placement == PlacementColocated {
			for i := 0; i < cfg.Ranks; i++ {
				nodes = append(nodes, i) // all of group 0
			}
		} else {
			for i := 0; i < cfg.Ranks; i++ {
				group, slot := i%4, i/4
				nodes = append(nodes, group*cfg.Ranks+slot)
			}
		}
	default:
		return workload.Report{}, fmt.Errorf("unknown placement %q", placement)
	}
	st := stack.New(sopts)

	var doms []*libfabric.Domain
	for rank, n := range nodes {
		proc, err := st.Kernel.Spawn(fmt.Sprintf("sweep-rank%d", rank), 1000, 1000, 0, 0)
		if err != nil {
			return workload.Report{}, err
		}
		d, err := libfabric.OpenDomain(st.Eng, libfabric.Info{
			Device: st.Nodes[n].Device, Caller: proc.PID, VNI: 1, TC: fabric.TCBulkData})
		if err != nil {
			return workload.Report{}, err
		}
		doms = append(doms, d)
	}
	comm, err := mpi.Connect(st.Eng, doms...)
	if err != nil {
		return workload.Report{}, err
	}
	var rep workload.Report
	finished := false
	err = workload.RunProgress(st.Eng, comm, st.Topo,
		workload.Spec{Pattern: pattern, Bytes: size, Iterations: cfg.Iterations, Fidelity: cfg.Fidelity},
		nil, func(r workload.Report) { rep, finished = r, true })
	if err != nil {
		return workload.Report{}, err
	}
	st.Eng.Run()
	if !finished {
		return workload.Report{}, fmt.Errorf("collective never completed")
	}
	return rep, nil
}

// RenderCollectives writes the sweep as one row per pattern × size with
// the three placements side by side and the spill penalty called out.
func RenderCollectives(w io.Writer, rows []CollectiveRow) {
	type cell = map[Placement]workload.Report
	grid := map[string]cell{}
	var order []string
	key := func(p workload.Pattern, b int) string { return fmt.Sprintf("%s/%d", p, b) }
	for _, r := range rows {
		k := key(r.Pattern, r.Bytes)
		if grid[k] == nil {
			grid[k] = cell{}
			order = append(order, k)
		}
		grid[k][r.Placement] = r.Report
	}
	fmt.Fprintf(w, "%-16s %10s %12s %12s %12s %12s %14s\n",
		"pattern", "size_B", "flat_us", "colo_us", "spill_us", "spill/colo", "spill_globalMB")
	for _, k := range order {
		c := grid[k]
		flat, colo, spill := c[PlacementFlat], c[PlacementColocated], c[PlacementSpilled]
		ratio := 0.0
		if colo.Elapsed > 0 {
			ratio = float64(spill.Elapsed) / float64(colo.Elapsed)
		}
		fmt.Fprintf(w, "%-16s %10d %12.1f %12.1f %12.1f %12.2f %14.1f\n",
			spill.Spec.Pattern, spill.Spec.Bytes,
			float64(flat.Elapsed)/1e3, float64(colo.Elapsed)/1e3, float64(spill.Elapsed)/1e3,
			ratio, float64(spill.GlobalLinkBytes)/1e6)
	}
}
