// Command shsbench regenerates the paper's evaluation artefacts: Table I
// and Figures 5-12, printed as data tables (the same series the paper
// plots). It also hosts the hot-path perf suite: `-exp perf` runs the
// allocation-tracking benchmarks (internal/perfsuite) in-process and
// writes the machine-readable BENCH_*.json trajectory snapshot.
//
// Usage:
//
//	shsbench -exp all
//	shsbench -exp fig5 -runs 10
//	shsbench -exp fig12 -runs 5 -seed 42
//	shsbench -exp perf -benchjson BENCH_FRESH.json
//	shsbench -exp collectives -fidelity flow
//
// Experiments: table1, fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12,
// comm (fig5-8), admission (fig9-12), fabric (multi-group hot-link
// report), collectives (pattern × size × placement sweep), perf (hot-path
// benchmark suite + BENCH_*.json), all (every paper artefact; perf stays
// opt-in so figure regeneration time is unchanged).
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/harness"
	"github.com/caps-sim/shs-k8s/internal/perfsuite"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (table1, fig5..fig12, comm, admission, fabric, collectives, perf, all)")
	runs := flag.Int("runs", 0, "repetitions per mode (0 = paper defaults: 10 comm / 5 admission)")
	seed := flag.Int64("seed", 1, "base RNG seed")
	benchJSON := flag.String("benchjson", "BENCH_FRESH.json", "output path for the -exp perf JSON snapshot")
	fidelity := flag.String("fidelity", "", "fabric fidelity for the collectives sweep (packet, flow or hybrid)")
	flag.Parse()

	fid, err := fabric.ParseFidelity(*fidelity)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shsbench: %v\n", err)
		os.Exit(2)
	}
	if *exp == "perf" {
		if err := runPerf(*benchJSON); err != nil {
			fmt.Fprintf(os.Stderr, "shsbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*exp, *runs, *seed, fid); err != nil {
		fmt.Fprintf(os.Stderr, "shsbench: %v\n", err)
		os.Exit(1)
	}
}

// runPerf executes the hot-path benchmark suite and writes the JSON
// trajectory snapshot next to a printed table. Timing varies run to run;
// only execution failures are fatal, so CI can emit the artefact without
// gating on noise.
func runPerf(jsonPath string) error {
	// Open the artefact first so an unwritable path fails before the
	// multi-second benchmark run, not after.
	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Printf("===== Hot-path perf suite (%d cases, ~1s each) =====\n", len(perfsuite.Suite()))
	results, err := perfsuite.Run()
	if err != nil {
		return err
	}
	perfsuite.RenderTable(os.Stdout, results)
	if err := perfsuite.WriteJSON(f, "shs-k8s-hotpath", results); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", jsonPath)
	return nil
}

func run(exp string, runs int, seed int64, fid fabric.Fidelity) error {
	selected := func(names ...string) bool {
		if exp == "all" {
			return true
		}
		for _, n := range names {
			if exp == n {
				return true
			}
		}
		return false
	}
	header := func(title string) {
		fmt.Printf("\n===== %s =====\n", title)
	}

	if selected("table1") {
		header("Table I: Software versions")
		harness.RenderTable1(os.Stdout)
	}

	commRuns := runs
	if commRuns == 0 {
		commRuns = 10
	}
	if selected("fig5", "fig6", "comm") {
		fig, err := harness.RunCommFigure(harness.BenchBw, commRuns, seed)
		if err != nil {
			return err
		}
		if selected("fig5", "comm") {
			header("Figure 5: Average Throughput via osu_bw (MB/s)")
			harness.RenderCommValues(os.Stdout, fig, "MB/s")
		}
		if selected("fig6", "comm") {
			header("Figure 6: Average Throughput Overhead via osu_bw")
			harness.RenderCommOverhead(os.Stdout, fig)
		}
	}
	if selected("fig7", "fig8", "comm") {
		lruns := commRuns
		if exp == "fig8" && runs == 0 {
			lruns = 25 // the paper uses 25 runs for the latency overhead
		}
		fig, err := harness.RunCommFigure(harness.BenchLatency, lruns, seed+1)
		if err != nil {
			return err
		}
		if selected("fig7", "comm") {
			header("Figure 7: Average Latency via osu_latency (us)")
			harness.RenderCommValues(os.Stdout, fig, "us")
		}
		if selected("fig8", "comm") {
			header("Figure 8: Average Latency Overhead via osu_latency")
			harness.RenderCommOverhead(os.Stdout, fig)
		}
	}

	admRuns := runs
	if admRuns == 0 {
		admRuns = 5
	}
	var ramp, spike *harness.AdmissionFigure
	var err error
	if selected("fig9", "fig10", "fig12", "admission") {
		ramp, err = harness.RunAdmissionFigure(harness.PatternRamp, admRuns, seed+2)
		if err != nil {
			return err
		}
	}
	if selected("fig11", "fig12", "admission") {
		spike, err = harness.RunAdmissionFigure(harness.PatternSpike, admRuns, seed+3)
		if err != nil {
			return err
		}
	}
	if selected("fig9", "admission") {
		header("Figure 9: Running Jobs during Ramp Test")
		harness.RenderRunningJobs(os.Stdout, ramp)
	}
	if selected("fig10", "admission") {
		header("Figure 10: Job Admission Delay per Batch (Ramp)")
		harness.RenderAdmissionDelayPerBatch(os.Stdout, ramp)
	}
	if selected("fig11", "admission") {
		header("Figure 11: Running Jobs during Spike Test")
		harness.RenderRunningJobs(os.Stdout, spike)
	}
	if selected("fig12", "admission") {
		header("Figure 12: Admission Delay Boxplots")
		harness.RenderAdmissionBoxplot(os.Stdout, ramp)
		harness.RenderAdmissionBoxplot(os.Stdout, spike)
	}
	if selected("overlay") {
		// Extension experiment: overlay datapath vs Slingshot RDMA, the
		// paper's §II-D motivation.
		rows, err := harness.RunOverlayComparison(seed, nil)
		if err != nil {
			return err
		}
		header("Extension: Overlay vs Slingshot RDMA")
		harness.RenderOverlayComparison(os.Stdout, rows)
	}
	if selected("collectives") {
		// Extension experiment: the placement-sensitivity grid — every
		// collective pattern × message size × placement (flat, group-
		// colocated, group-spilled), the job-scale communication view of
		// the dragonfly topology.
		cfg := harness.DefaultCollectivesConfig()
		cfg.Seed = seed
		cfg.Fidelity = fid
		rows, err := harness.RunCollectivesSweep(cfg)
		if err != nil {
			return err
		}
		header("Extension: Collectives vs Placement (8 ranks, 4-group dragonfly)")
		harness.RenderCollectives(os.Stdout, rows)
	}
	if selected("fabric") {
		// Extension experiment: multi-group dragonfly hot-link report —
		// which trunks an all-to-all load saturates, the observability
		// fleet-scale scenarios lean on.
		cfg := harness.DefaultFabricReportConfig()
		cfg.Seed = seed
		rep, err := harness.RunFabricReport(cfg)
		if err != nil {
			return err
		}
		header("Extension: Fabric Hot Links (multi-group all-to-all)")
		harness.RenderFabricReport(os.Stdout, rep, 12)
	}
	if selected("tc") {
		// Extension experiment (not a paper figure): traffic-class
		// isolation for co-scheduled applications, use-case (1) of the
		// paper's introduction.
		res, err := harness.RunTrafficClassExperiment(harness.DefaultTCOptions())
		if err != nil {
			return err
		}
		header("Extension: Traffic-Class Interference (use-case 1)")
		harness.RenderTrafficClasses(os.Stdout, res)
	}
	return nil
}
