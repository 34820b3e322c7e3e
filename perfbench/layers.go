package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
)

// layers are the layers a traced run splits host time into. "go" is the Go
// runtime and GC; "other" is the benchmark's own code and any frame layerOf
// does not place.
var layers = []string{
	"sim", "fabric", "cxi", "libfabric", "mpi",
	"k8s", "metactl", "vnisvc", "vnidb",
	"cni", "container", "nsmodel", "stack",
	"scenario", "fuzz", "health", "remediate", "go", "other",
}

// layerOf maps a package under internal/ to its layer. Packages the
// workloads never reach are left out and land in "other".
var layerOf = map[string]string{
	"sim":       "sim",
	"fabric":    "fabric",
	"fabmgr":    "fabric",
	"cxi":       "cxi",
	"libcxi":    "cxi",
	"drc":       "cxi",
	"libfabric": "libfabric",
	"mpi":       "mpi",
	"workload":  "mpi",
	"k8s":       "k8s",
	"metactl":   "metactl",
	"vnisvc":    "vnisvc",
	"vniapi":    "vnisvc",
	"vnidb":     "vnidb",
	"cni":       "cni",
	"container": "container",
	"nsmodel":   "nsmodel",
	"stack":     "stack",
	"scenario":  "scenario",
	"fuzz":      "fuzz",
	"health":    "health",
	"remediate": "remediate",
}

const modulePrefix = "github.com/caps-sim/shs-k8s/internal/"

// runtimeHelpers are prefixes of runtime functions that ordinary code
// calls for map, memory, hashing, string, interface and clock operations.
// Their samples belong to the calling layer; every other runtime function
// (allocation, GC, write barriers, scheduling) is the "go" layer.
var runtimeHelpers = []string{
	"runtime.map", "runtime.mem", "runtime.aeshash", "runtime.strhash",
	"runtime.nilinterhash", "runtime.interhash", "runtime.typehash",
	"runtime.efaceeq", "runtime.ifaceeq", "runtime.cmpstring", "runtime.duff",
	"runtime.typedmemmove", "runtime.typedslicecopy", "runtime.conv",
	"runtime.assert", "runtime.typeAssert", "runtime.getitab",
	"runtime.concatstring", "runtime.slicebytetostring", "runtime.stringtoslice",
	"runtime.intstring", "runtime.encoderune", "runtime.decoderune",
	"runtime.nanotime", "runtime.walltime", "runtime.rand", "runtime.cheaprand",
	"runtime.panicIndex", "runtime.panicBounds", "internal/runtime/maps.",
}

// frameLayer places one symbolized frame: frames of the repository's
// packages are their layer, frames of the benchmark itself are "other",
// runtime frames other than runtimeHelpers are "go", and any other frame
// (runtime helper, standard library) reports ok=false so the caller
// charges the sample to the nearest placed caller.
func frameLayer(fn string) (layer string, ok bool) {
	if rest, found := strings.CutPrefix(fn, modulePrefix); found {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		if l, known := layerOf[pkg]; known {
			return l, true
		}
		return "other", true
	}
	if strings.HasPrefix(fn, "main.") {
		return "other", true
	}
	for _, h := range runtimeHelpers {
		if strings.HasPrefix(fn, h) {
			return "", false
		}
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "gcWriteBarrier") {
		return "go", true
	}
	return "", false
}

// kinds are every object kind the apiserver commits.
var kinds = []k8s.Kind{k8s.KindNamespace, k8s.KindNode, k8s.KindPod, k8s.KindJob, vniapi.KindVNI, vniapi.KindVniClaim}

// counters is a snapshot of a deployment's public counters, keyed by the
// per-layer metric they feed.
type counters map[string]float64

func snapshot(st *stack.Stack) counters {
	c := counters{"sim.events": float64(st.Eng.Steps + st.Eng.Elided)}
	ts := st.Topo.Stats()
	c["fabric.packets"] = float64(ts.Injected)
	c["fabric.trunk_hops"] = float64(ts.TrunkForwarded)
	c["fabric.global_link_bytes"] = float64(st.Topo.GlobalLinkBytes())
	c["fabric.drops"] = float64(ts.DropTotal())
	for _, n := range st.Nodes {
		ds := n.Device.Stats()
		c["cxi.msgs"] += float64(ds.MsgsSent)
		c["cxi.auth_ok"] += float64(ds.AuthSuccesses)
		for _, v := range ds.AuthFailures {
			c["cxi.auth_failures"] += float64(v)
		}
		cs := n.CXICNI.Stats()
		c["cni.adds"] += float64(cs.AddsTotal)
		c["cni.adds_failed"] += float64(cs.AddsFailed)
		c["cni.dels"] += float64(cs.DelsTotal)
	}
	api := st.Cluster.API
	for _, k := range kinds {
		c["k8s.writes"] += float64(api.KindSeq(k))
	}
	c["k8s.writes_job"] = float64(api.KindSeq(k8s.KindJob))
	c["k8s.writes_pod"] = float64(api.KindSeq(k8s.KindPod))
	c["k8s.writes_vni"] = float64(api.KindSeq(vniapi.KindVNI))
	cp := st.Cluster.Client.Stats()
	c["k8s.retries"] = float64(cp.Retries)
	c["k8s.conflicts"] = float64(cp.Conflicts)
	c["k8s.relists"] = float64(cp.Relists)
	c["k8s.stale_reads"] = float64(cp.StaleReads)
	c["k8s.retries_exhausted"] = float64(cp.Exhausted)
	if st.VNISvc != nil {
		es := st.VNISvc.Endpoint.Stats()
		c["vnisvc.syncs"] = float64(es.JobSyncs + es.ClaimSyncs)
		c["vnisvc.acquisitions"] = float64(es.Acquisitions)
		c["vnisvc.releases"] = float64(es.Releases)
		c["vnisvc.sync_errors"] = float64(es.SyncErrors)
	}
	return c
}

// add accumulates b-a into c.
func (c counters) add(a, b counters) {
	for k, v := range b {
		c[k] += v - a[k]
	}
}

// hashAudit feeds a deployment's VNI audit log into a fingerprint.
func hashAudit(d digest, st *stack.Stack) {
	for _, e := range st.DB.Audit() {
		d.f("audit %d %d %s %d %s %s\n", e.Seq, e.At, e.Op, e.VNI, e.Owner, e.User)
	}
}

// hashCounters feeds the counter deltas b-a into a fingerprint, in key
// order.
func hashCounters(d digest, a, b counters) {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.f("%s %v\n", k, b[k]-a[k])
	}
}

// profiler samples host CPU during the timed sections of a traced pass,
// one profile file per section.
type profiler struct {
	dir   string
	files []string
	cur   *os.File
}

func (pf *profiler) start() {
	f, err := os.Create(filepath.Join(pf.dir, fmt.Sprintf("cpu-%d.pprof", len(pf.files))))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
		return
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
		f.Close()
		return
	}
	pf.cur = f
	pf.files = append(pf.files, f.Name())
}

func (pf *profiler) stop() {
	if pf.cur == nil {
		return
	}
	pprof.StopCPUProfile()
	if err := pf.cur.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
	}
	pf.cur = nil
}

// selfTimes decodes the section profiles with the Go toolchain's pprof and
// returns sampled self seconds per layer plus the sample count.
func (pf *profiler) selfTimes(goTool string) (map[string]float64, int, error) {
	self := map[string]float64{}
	if len(pf.files) == 0 {
		return self, 0, nil
	}
	args := append([]string{"tool", "pprof", "-traces"}, pf.files...)
	cmd := exec.Command(goTool, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	// The output lists stacks separated by dashed lines, leaf frame first;
	// a stack's first line carries its sampled time before the frame.
	var total, value time.Duration
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			self[stackLayer(frames)] += value.Seconds()
			total += value
		}
		value, frames = 0, frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 0 || strings.HasPrefix(fields[0], "-----"):
			flush()
		case len(frames) == 0 && len(fields) >= 2:
			if d, err := time.ParseDuration(fields[0]); err == nil {
				value = d
				frames = append(frames, fields[1])
			}
		case len(frames) > 0:
			frames = append(frames, fields[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return self, int(total / samplePeriod), nil
}

// stackLayer charges a sampled stack, leaf first, to its innermost frame
// that frameLayer places, or to "go" when none does (runtime-only stacks).
func stackLayer(frames []string) string {
	for _, fn := range frames {
		if l, ok := frameLayer(fn); ok {
			return l
		}
	}
	return "go"
}

// samplePeriod is runtime/pprof's CPU sampling period (100 Hz).
const samplePeriod = 10 * time.Millisecond
