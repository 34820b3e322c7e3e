package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// TestWorkloadsTiny runs every workload at tinySize, untraced and traced,
// and checks that no op fails, that both passes of the traced run and the
// untraced run agree on the fingerprint, and that each run reports exactly
// the metrics BENCHMARK.json declares.
func TestWorkloadsTiny(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to decode CPU profiles")
	}
	decl := readBenchmarkJSON(t)
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			o := options{workload: name, seed: 3, seconds: 0.001, workdir: t.TempDir(), goTool: goTool, size: tinySize}
			var plain, traced strings.Builder
			rep, err := run(o, &plain)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, decl.EndToEnd)
			o.trace = true
			trep, err := run(o, &traced)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, trep, decl.PerLayer)
			fp := fingerprintLine(t, plain.String())
			if got := fingerprintLine(t, traced.String()); got != fp+" (untraced "+fp+")" {
				t.Errorf("fingerprints differ: untraced run %s, traced run %s", fp, got)
			}
		})
	}
}

func checkReport(t *testing.T, rep *report, want []declaredMetric) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		got, ok := rep.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(rep.Metrics) != len(names) {
		var extra []string
		for k := range rep.Metrics {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		t.Errorf("reported %d metrics, BENCHMARK.json declares %d: %v", len(rep.Metrics), len(names), extra)
	}
}

func fingerprintLine(t *testing.T, out string) string {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if fp, ok := strings.CutPrefix(l, "fingerprint "); ok {
			return fp
		}
	}
	t.Fatalf("no fingerprint line in output:\n%s", out)
	return ""
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	return b
}

// TestReadmeNamesEveryPerLayerMetric keeps the guide to the traced output
// in step with the metrics the program reports.
func TestReadmeNamesEveryPerLayerMetric(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayerDefs() {
		if !strings.Contains(string(raw), "`"+m.name+"`") {
			t.Errorf("README.md does not describe %s", m.name)
		}
	}
}

// TestSelfTimesAttribution checks how profile stacks are charged to layers.
func TestSelfTimesAttribution(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"memeqbody", "github.com/caps-sim/shs-k8s/internal/vnidb.(*Tx).FindByOwner", "main.main", "runtime.main"}, "vnidb"},
		{[]string{"internal/runtime/maps.(*Iter).Next", "runtime.mapIterNext", "github.com/caps-sim/shs-k8s/internal/k8s.(*APIServer).collectOrphans"}, "k8s"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "github.com/caps-sim/shs-k8s/internal/k8s.copyMeta"}, "go"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "go"},
		{[]string{"sort.Float64s", "main.quantile", "main.main", "runtime.main"}, "other"},
		{[]string{"github.com/caps-sim/shs-k8s/internal/workload.Gang"}, "mpi"},
		{[]string{"time.Now", "runtime.nanotime"}, "go"},
	}
	for _, c := range cases {
		if got := stackLayer(c.frames); got != c.want {
			t.Errorf("%v: got %s, want %s", c.frames, got, c.want)
		}
	}
}
