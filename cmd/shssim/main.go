// Command shssim runs declarative cluster scenarios (internal/scenario)
// against the simulated Slingshot-Kubernetes deployment: a scenario file
// describes a fleet, a timed event sequence (jobs, fault injection, churn,
// isolation probes) and end-state assertions. Runs execute on the virtual
// clock, so a multi-minute cluster scenario finishes in milliseconds and is
// bit-for-bit reproducible for a given seed.
//
// Usage:
//
//	shssim run <file-or-dir> [...]   run scenarios; non-zero exit on failure
//	shssim validate <file> [...]     check scenario files without running
//	shssim list [dir]                list scenarios with their descriptions
//	shssim interactive [flags]       drive a live fleet from a command prompt
//
// Flags for run: -v (print the event narration), -parallel N
// (parallel scenario runs for directories; results print in deterministic
// order), -seed N (override every scenario's baked-in seed; the effective
// seed is printed either way, so any run can be reproduced exactly),
// -repeat N (run every scenario N times at consecutive seeds — base,
// base+1, … — reusing the parsed spec, so seed sweeps pay YAML parsing and
// validation once per file instead of once per run), -fidelity M (override
// every traffic spec's fabric fidelity: packet, flow or hybrid — see
// docs/performance.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/caps-sim/shs-k8s/internal/ctl"
	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/fuzz"
	"github.com/caps-sim/shs-k8s/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "validate":
		return cmdValidate(args[1:], stdout, stderr)
	case "list":
		return cmdList(args[1:], stdout, stderr)
	case "fuzz":
		return cmdFuzz(args[1:], stdout, stderr)
	case "interactive":
		return cmdInteractive(args[1:], os.Stdin, stdout, stderr)
	case "-h", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "shssim: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  shssim run [-v] [-parallel N] [-seed N] [-repeat N] [-fidelity M] <file-or-dir> [...]
  shssim validate <file> [...]
  shssim list [dir]
  shssim fuzz [-n N] [-seed N] [-corpus dir] [-v]
  shssim fuzz -replay <file> [...]
  shssim interactive [-scenario file] [-seed N] [-sample-every D] [-stdin | -socket path]
`)
}

// collectFiles expands directories into their sorted *.yaml/*.yml files.
func collectFiles(paths []string) ([]string, error) {
	var files []string
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			files = append(files, p)
			continue
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return nil, err
		}
		var dir []string
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			switch filepath.Ext(e.Name()) {
			case ".yaml", ".yml":
				dir = append(dir, filepath.Join(p, e.Name()))
			}
		}
		sort.Strings(dir)
		files = append(files, dir...)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no scenario files found in %s", strings.Join(paths, " "))
	}
	return files, nil
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verbose := fs.Bool("v", false, "print the event narration for each run")
	parallel := fs.Int("parallel", 4, "scenarios run in parallel")
	seed := fs.Int64("seed", 0, "override the scenario seed (0 = use each file's seed)")
	repeat := fs.Int("repeat", 1, "runs per scenario at consecutive seeds (base, base+1, ...)")
	fidelity := fs.String("fidelity", "", "override every traffic spec's fabric fidelity (packet, flow or hybrid)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *fidelity != "" {
		if _, err := fabric.ParseFidelity(*fidelity); err != nil {
			fmt.Fprintf(stderr, "shssim run: %v\n", err)
			return 2
		}
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "shssim run: need at least one scenario file or directory")
		return 2
	}
	if *repeat < 1 {
		*repeat = 1
	}
	files, err := collectFiles(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "shssim: %v\n", err)
		return 1
	}
	// Parse and validate each file exactly once; repeats share the parsed
	// spec. scenario.Run never mutates its input, so one immutable spec
	// can back any number of runs — each run takes a shallow copy carrying
	// only its effective seed.
	scenarios := make([]*scenario.Scenario, len(files))
	for i, f := range files {
		sc, err := scenario.ParseFile(f)
		if err != nil {
			fmt.Fprintf(stderr, "shssim: %v\n", err)
			return 1
		}
		if *fidelity != "" {
			// Override once per file; the repeats' shallow copies share the
			// rewritten slice (Run treats traffic specs as read-only).
			traffic := append([]scenario.TrafficSpec(nil), sc.Traffic...)
			for j := range traffic {
				traffic[j].Fidelity = *fidelity
			}
			sc.Traffic = traffic
		}
		scenarios[i] = sc
	}

	// One job per (file, repeat): seeds step from the base (the -seed
	// override, or the file's own seed) so sweeps are reproducible.
	type job struct {
		file string
		sc   *scenario.Scenario
	}
	var jobs []job
	for i, sc := range scenarios {
		base := sc.Seed
		if *seed != 0 {
			base = *seed
		}
		for rep := 0; rep < *repeat; rep++ {
			cp := *sc // shallow copy: Run treats events/assertions as read-only
			cp.Seed = base + int64(rep)
			jobs = append(jobs, job{file: files[i], sc: &cp})
		}
	}

	// Independent runs execute in parallel worker goroutines; each gets
	// its own stack and virtual clock, so parallelism cannot perturb
	// results. Output is collected per index and printed in input order.
	results := make([]*scenario.Result, len(jobs))
	if *parallel < 1 {
		*parallel = 1
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, *parallel)
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, sc *scenario.Scenario) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = scenario.Run(sc)
		}(i, j.sc)
	}
	wg.Wait()

	failures := 0
	for i, res := range results {
		printResult(stdout, jobs[i].file, res, *verbose)
		if !res.Passed() {
			failures++
		}
	}
	fmt.Fprintf(stdout, "\n%d scenario run(s): %d passed, %d failed\n", len(results), len(results)-failures, failures)
	if failures > 0 {
		return 1
	}
	return 0
}

func printResult(w io.Writer, file string, res *scenario.Result, verbose bool) {
	fmt.Fprintf(w, "\n=== %s (%s, seed %d)\n", res.Scenario.Name, file, res.Scenario.Seed)
	if verbose {
		for _, line := range res.Log {
			fmt.Fprintf(w, "    %s\n", line)
		}
	}
	if res.Err != nil {
		fmt.Fprintf(w, "  ERROR: %v\n--- FAIL %s\n", res.Err, res.Scenario.Name)
		return
	}
	for _, a := range res.Asserts {
		fmt.Fprintf(w, "  %s\n", a)
	}
	verdict := "PASS"
	if !res.Passed() {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "--- %s %s (simulated %s)\n", verdict, res.Scenario.Name, res.SimTime)
}

// cmdFuzz runs a randomized-scenario campaign under the invariant harness
// (internal/fuzz): N generated specs, each executed twice with per-event
// integrity and routing-oracle checks plus end-of-run conservation,
// stuck-work and determinism oracles. Violations are shrunk to minimal
// reproducers and written under -corpus as replayable scenario files;
// -replay re-runs such a file (or any scenario) under the same battery.
func cmdFuzz(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 200, "number of generated scenarios to execute")
	seed := fs.Int64("seed", 1, "generator seed; spec i is a pure function of (seed, i)")
	corpus := fs.String("corpus", "scenarios/fuzz-corpus", "directory for shrunk reproducers (\"\" disables writing)")
	replay := fs.String("replay", "", "replay one scenario file under the invariant harness instead of generating")
	verbose := fs.Bool("v", false, "print one line per executed spec")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *replay != "" {
		files := append([]string{*replay}, fs.Args()...)
		bad := 0
		for _, f := range files {
			violations, err := fuzz.Replay(f, stdout)
			if err != nil {
				fmt.Fprintf(stderr, "shssim: %v\n", err)
				return 1
			}
			if len(violations) > 0 {
				bad++
			}
		}
		if bad > 0 {
			return 1
		}
		return 0
	}
	findings, err := fuzz.Run(fuzz.Options{
		N: *n, Seed: *seed, Corpus: *corpus, Verbose: *verbose, Out: stdout,
	})
	if err != nil {
		fmt.Fprintf(stderr, "shssim: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "\n%d spec(s) executed, %d invariant finding(s)\n", *n, len(findings))
	if len(findings) > 0 {
		return 1
	}
	return 0
}

func cmdValidate(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "shssim validate: need at least one scenario file or directory")
		return 2
	}
	files, err := collectFiles(args)
	if err != nil {
		fmt.Fprintf(stderr, "shssim: %v\n", err)
		return 1
	}
	bad := 0
	for _, f := range files {
		if _, err := scenario.ParseFile(f); err != nil {
			fmt.Fprintf(stdout, "INVALID %v\n", err)
			bad++
			continue
		}
		fmt.Fprintf(stdout, "OK      %s\n", f)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func cmdList(args []string, stdout, stderr io.Writer) int {
	dir := "scenarios"
	if len(args) > 0 {
		dir = args[0]
	}
	files, err := collectFiles([]string{dir})
	if err != nil {
		fmt.Fprintf(stderr, "shssim: %v\n", err)
		return 1
	}
	bad := 0
	for _, f := range files {
		sc, err := scenario.ParseFile(f)
		if err != nil {
			fmt.Fprintf(stderr, "shssim: invalid scenario: %v\n", err)
			bad++
			continue
		}
		fmt.Fprintf(stdout, "%-28s %-40s %s\n", sc.Name, f, sc.Description)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// cmdInteractive boots a fleet paused on the virtual clock and serves the
// operator protocol (internal/ctl) on stdin or a Unix socket. The
// scenario file contributes its fleet/topology/traffic/telemetry
// sections; its event timeline is ignored — the operator is the timeline.
func cmdInteractive(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("interactive", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenarioPath := fs.String("scenario", "", "scenario file supplying the fleet (default: built-in 2-group fleet)")
	seed := fs.Int64("seed", 0, "override the scenario seed (0 = use the scenario's)")
	sampleEvery := fs.Duration("sample-every", 0, "enable telemetry sampling at this virtual period")
	useStdin := fs.Bool("stdin", false, "serve the session on stdin/stdout (the default; kept for scripts)")
	socket := fs.String("socket", "", "serve sessions on a Unix socket at this path instead of stdin")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "shssim interactive: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *useStdin && *socket != "" {
		fmt.Fprintln(stderr, "shssim interactive: -stdin and -socket are mutually exclusive")
		return 2
	}
	sc := ctl.DefaultScenario()
	if *scenarioPath != "" {
		var err error
		if sc, err = scenario.ParseFile(*scenarioPath); err != nil {
			fmt.Fprintf(stderr, "shssim: %v\n", err)
			return 1
		}
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *sampleEvery > 0 {
		sc.Telemetry.SampleEvery = *sampleEvery
	}
	srv, err := ctl.New(sc)
	if err != nil {
		fmt.Fprintf(stderr, "shssim: %v\n", err)
		return 1
	}
	if *socket != "" {
		err = srv.ServeSocket(*socket)
	} else {
		err = srv.Serve(stdin, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "shssim: %v\n", err)
		return 1
	}
	return 0
}
