// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed for a host-time budget, checks the workload's
// outputs, and prints every metric by name with its unit. With -trace 1 it
// runs the workload twice, once plain and once under a CPU profile, and
// prints the per-layer metrics instead of the end-to-end ones.
//
// It drives the simulator only through public APIs (stack.New, k8s.Client,
// workload/mpi, fuzz.Generate/Execute) and measures every layer from the
// outside: spans around its own calls, the layers' public counters, and
// sampled host CPU per package. README.md explains the output.
//
// Usage (from the repository root, normally through run.py):
//
//	perfbench -workload admission-spike -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*phase) error{
	"admission-spike":    runAdmission,
	"tenant-collectives": runCollectives,
	"fuzz-campaign":      runFuzz,
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p99", "ms"},
	{"sim_s_per_wall_s", "ratio"},
	{"allocs_per_op", "1/op"},
	{"peak_heap_mb", "MiB"},
	{"sim_op_ms_p50", "sim_ms"},
	{"sim_op_ms_p99", "sim_ms"},
}

// perOp are the exact counts reported per op, keyed by counter name.
var perOp = []struct{ metric, counter, unit string }{
	{"sim.events_per_op", "sim.events", "1/op"},
	{"fabric.packets", "fabric.packets", "1/op"},
	{"fabric.trunk_hops", "fabric.trunk_hops", "1/op"},
	{"fabric.global_link_bytes", "fabric.global_link_bytes", "B/op"},
	{"fabric.drops", "fabric.drops", "1/op"},
	{"cxi.msgs", "cxi.msgs", "1/op"},
	{"cxi.auth_ok", "cxi.auth_ok", "1/op"},
	{"cxi.auth_failures", "cxi.auth_failures", "1/op"},
	{"mpi.bytes", "mpi.bytes", "B/op"},
	{"k8s.writes_per_op", "k8s.writes", "1/op"},
	{"k8s.writes_job", "k8s.writes_job", "1/op"},
	{"k8s.writes_pod", "k8s.writes_pod", "1/op"},
	{"k8s.writes_vni", "k8s.writes_vni", "1/op"},
	{"k8s.retries", "k8s.retries", "1/op"},
	{"k8s.conflicts", "k8s.conflicts", "1/op"},
	{"k8s.relists", "k8s.relists", "1/op"},
	{"k8s.stale_reads", "k8s.stale_reads", "1/op"},
	{"k8s.retries_exhausted", "k8s.retries_exhausted", "1/op"},
	{"vnisvc.syncs", "vnisvc.syncs", "1/op"},
	{"vnisvc.acquisitions", "vnisvc.acquisitions", "1/op"},
	{"vnisvc.releases", "vnisvc.releases", "1/op"},
	{"vnisvc.sync_errors", "vnisvc.sync_errors", "1/op"},
	{"cni.adds", "cni.adds", "1/op"},
	{"cni.adds_failed", "cni.adds_failed", "1/op"},
	{"cni.dels", "cni.dels", "1/op"},
}

// ratios are waste ratios: counter num over counter den (0 when den is 0).
var ratios = []struct{ metric, num, den string }{
	{"vnisvc.syncs_per_acquisition", "vnisvc.syncs", "vnisvc.acquisitions"},
	{"k8s.conflicts_per_write", "k8s.conflicts", "k8s.writes"},
	{"cni.failed_per_add", "cni.adds_failed", "cni.adds"},
}

// spans are host times of the benchmark's own calls into a layer, each the
// median over the calls made in the traced pass.
var spans = []metricDef{
	{"stack.new_ms", "ms"},
	{"k8s.submit_ms", "ms"},
	{"sim.run_s", "s"},
	{"workload.gang_ms", "ms"},
	{"mpi.connect_ms", "ms"},
	{"fuzz.generate_ms", "ms"},
}

// stages are admission-spike's simulated stage waits.
var stages = []string{"admission.vni_ms", "admission.start_ms", "admission.run_ms", "admission.release_ms"}

// perLayerDefs lists every per-layer metric of a traced run, in output
// order.
func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_s", "s"})
	}
	defs = append(defs, metricDef{"trace.samples", "count"}, metricDef{"trace.overhead_pct", "%"})
	defs = append(defs, spans...)
	for _, c := range perOp {
		defs = append(defs, metricDef{c.metric, c.unit})
	}
	defs = append(defs, metricDef{"vnidb.rows_end", "rows"})
	for _, r := range ratios {
		defs = append(defs, metricDef{r.metric, "ratio"})
	}
	defs = append(defs,
		metricDef{"go.gc_cpu_s", "s"}, metricDef{"go.gc_cycles", "count"}, metricDef{"go.alloc_bytes_per_op", "B/op"})
	for _, s := range stages {
		defs = append(defs, metricDef{s + "_p50", "sim_ms"}, metricDef{s + "_p99", "sim_ms"})
	}
	return append(defs, metricDef{"sim.fingerprint", "hash"})
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string // traced runs write CPU profiles below it
	goTool   string // go command that decodes CPU profiles
	size     size
}

// report is the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	o := options{size: defaultSize}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: admission-spike, tenant-collectives or fuzz-campaign")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "host seconds of timed work")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&o.workdir, "workdir", os.TempDir(), "directory for the traced run's CPU profiles")
	flag.StringVar(&o.goTool, "go", "go", "go command used to decode CPU profiles")
	flag.Parse()
	if _, ok := workloads[o.workload]; !ok || o.seconds <= 0 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", o.workload, o.seconds, trace)
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace == 1
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d %s\n",
		o.workload, o.seed, o.seconds, trace, runtime.GOMAXPROCS(0), runtime.Version())
	rep, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark invocation and returns its report; the
// fingerprint and the traced layer split go to log, failures to stderr.
func run(o options, log io.Writer) (*report, error) {
	drive := workloads[o.workload]
	budget := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		p := newPhase(o.seed, budget, o.size)
		if err := drive(p); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "fingerprint %s\n", p.fp.hex())
		logFailures(p)
		return &report{
			Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed,
			Metrics: withUnits(endToEnd, endToEndValues(p)),
		}, nil
	}

	// Traced: a plain pass for reference, then the profiled pass, each
	// given half the budget.
	ref := newPhase(o.seed, budget/2, o.size)
	if err := drive(ref); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "perfbench-prof-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := newPhase(o.seed, budget/2, o.size)
	tr.prof = &profiler{dir: dir}
	if err := drive(tr); err != nil {
		return nil, err
	}
	self, samples, err := tr.prof.selfTimes(o.goTool)
	if err != nil {
		return nil, err
	}
	logFailures(ref)
	logFailures(tr)
	same := ref.fp.hex() == tr.fp.hex()
	fmt.Fprintf(log, "fingerprint %s (untraced %s)\n", tr.fp.hex(), ref.fp.hex())
	if !same {
		fmt.Fprintln(os.Stderr, "perfbench: the traced pass's fingerprint differs from the untraced pass's")
	}
	vals := perLayerValues(tr, ref, self, samples)
	printLayers(log, self)
	return &report{
		Correct:   same && ref.failed == 0 && tr.failed == 0,
		Attempted: ref.attempted + tr.attempted,
		Failed:    ref.failed + tr.failed,
		Metrics:   withUnits(perLayerDefs(), vals),
	}, nil
}

func logFailures(p *phase) {
	for _, f := range p.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
}

// opsPerSecond is the median rate over the timed loop's chunks, counting
// only ops that did not fail.
func opsPerSecond(p *phase) float64 {
	return median(p.chunks) * float64(p.attempted-p.failed) / float64(p.attempted)
}

// opMsQuantiles returns op_ms_p50 and op_ms_p99: the medians over an open
// loop's batches of each batch's quantile, or a closed loop's quantiles
// over all its ops.
func opMsQuantiles(p *phase) (p50, p99 float64) {
	if len(p.batchP50) > 0 {
		return median(p.batchP50), median(p.batchP99)
	}
	return quantile(p.opMs, 0.50), quantile(p.opMs, 0.99)
}

func endToEndValues(p *phase) map[string]float64 {
	p50, p99 := opMsQuantiles(p)
	return map[string]float64{
		"setup_s":          median(p.setupS),
		"ops_per_s":        opsPerSecond(p),
		"op_ms_p50":        p50,
		"op_ms_p99":        p99,
		"sim_s_per_wall_s": p.simAdv.Seconds() / float64(p.attempted) * opsPerSecond(p),
		"allocs_per_op":    p.rt.allocs / float64(p.attempted),
		"peak_heap_mb":     p.rt.peakHeap() / (1 << 20),
		"sim_op_ms_p50":    quantile(p.simOpMs, 0.50),
		"sim_op_ms_p99":    quantile(p.simOpMs, 0.99),
	}
}

func perLayerValues(tr, ref *phase, self map[string]float64, samples int) map[string]float64 {
	v := map[string]float64{}
	for _, l := range layers {
		v[l+".self_s"] = self[l]
	}
	v["trace.samples"] = float64(samples)
	if rate := opsPerSecond(tr); rate > 0 {
		v["trace.overhead_pct"] = (opsPerSecond(ref)/rate - 1) * 100
	}
	for _, s := range spans {
		scale := 1.0
		if s.unit == "ms" {
			scale = 1e3
		}
		v[s.name] = median(tr.spans[s.name]) * scale
	}
	ops := tr.counts["ops"]
	for _, c := range perOp {
		v[c.metric] = tr.counts[c.counter] / ops
	}
	v["vnidb.rows_end"] = tr.counts["vnidb.rows_end"]
	for _, r := range ratios {
		if den := tr.counts[r.den]; den > 0 {
			v[r.metric] = tr.counts[r.num] / den
		}
	}
	v["go.gc_cpu_s"] = tr.rt.gcCPU
	v["go.gc_cycles"] = tr.rt.gcCycles
	v["go.alloc_bytes_per_op"] = tr.rt.allocB / float64(tr.attempted)
	for _, s := range stages {
		v[s+"_p50"] = quantile(tr.stages[s], 0.50)
		v[s+"_p99"] = quantile(tr.stages[s], 0.99)
	}
	v["sim.fingerprint"] = tr.fp.value48()
	return v
}

func withUnits(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// printLayers writes the sampled self-time split, largest layer first.
func printLayers(log io.Writer, self map[string]float64) {
	total := 0.0
	for _, s := range self {
		total += s
	}
	names := append([]string(nil), layers...)
	sort.SliceStable(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(log, "%-10s %9s %7s\n", "layer", "self_s", "share")
	for _, l := range names {
		share := 0.0
		if total > 0 {
			share = 100 * self[l] / total
		}
		fmt.Fprintf(log, "%-10s %9.2f %6.1f%%\n", l, self[l], share)
	}
}
