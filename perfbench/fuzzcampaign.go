package main

import (
	"math/rand"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fuzz"
	"github.com/caps-sim/shs-k8s/internal/scenario"
	"github.com/caps-sim/shs-k8s/internal/stack"
)

// maxDrainSteps bounds the end-of-run drain of a counting replay, as the
// fuzz harness bounds its own.
const maxDrainSteps = 5_000_000

// runFuzz drives fuzz-campaign: a closed loop that generates one spec from
// the seeded stream and executes it under the full invariant battery (two
// runs, every invariant). A spec with any violation is a failed op.
//
// Execute keeps its deployments to itself, so the per-layer counts come
// from a replay of the window's specs after the timed loop: one plain run
// of each, drained as Execute drains it, with the counts doubled because
// Execute runs every spec twice.
func runFuzz(p *phase) error {
	cfg := fuzz.DefaultConfig()
	// Set-up: the same warm-up batch, from a second stream derived from
	// the seed, once per repetition.
	for i := 0; i < p.size.setupReps; i++ {
		p.timeSetup(func() {
			warm := rand.New(rand.NewSource(^p.seed))
			for j := 0; j < p.size.fuzzWarmup; j++ {
				if rep := fuzz.Execute(fuzz.Generate(warm, cfg)); len(rep.Violations) > 0 {
					// A violating warm-up spec counts as a failed op.
					p.attempted++
					p.fail(1, "fuzz-campaign: warm-up spec %s: %s", rep.Spec.Name, rep.Violations[0])
				}
			}
		})
	}

	rng := rand.New(rand.NewSource(p.seed))
	var window []*scenario.Scenario
	p.beginTimed()
	for i := 0; i < p.size.window || p.more(); i++ {
		t0 := time.Now()
		spec := fuzz.Generate(rng, cfg)
		p.span("fuzz.generate_ms", time.Since(t0))
		rep := fuzz.Execute(spec)
		p.opMs = append(p.opMs, ms(time.Since(t0)))
		p.attempted++
		res := rep.Result
		p.simAdv += 2 * res.SimTime.Duration()
		if len(rep.Violations) > 0 {
			p.fail(1, "fuzz-campaign: spec %d (%s, seed %d): %s", i, spec.Name, spec.Seed, rep.Violations[0])
		}
		if i < p.size.window {
			window = append(window, spec)
			p.simOpMs = append(p.simOpMs, ms(res.SimTime.Duration()))
			p.fp.f("spec %d %s %d sim %d violations %d\n", i, spec.Name, spec.Seed, res.SimTime, len(rep.Violations))
			for _, l := range res.Log {
				p.fp.f("%s\n", l)
			}
			for _, a := range res.Asserts {
				p.fp.f("%s\n", a)
			}
		}
		p.rt.sampleHeap()
	}
	p.endTimed()
	p.chunkOps()

	for _, spec := range window {
		scenario.RunHooked(spec, scenario.Hooks{AfterRun: func(st *stack.Stack, _ *scenario.Result) {
			for steps := 0; steps < maxDrainSteps && st.Eng.Step(); steps++ {
			}
			after := snapshot(st)
			for k, v := range after {
				p.counts[k] += 2 * v
			}
			hashCounters(p.fp, counters{}, after)
			hashAudit(p.fp, st)
			dbs := st.DB.Stats()
			p.counts["vnidb.rows_end"] += float64(dbs.Allocated + dbs.Quarantined)
		}})
	}
	p.counts["ops"] = float64(len(window))
	p.counts["vnidb.rows_end"] /= float64(len(window))
	return nil
}
