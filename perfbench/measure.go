package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// size scales every workload. The benchmark runs defaultSize; the self-test
// runs tinySize.
type size struct {
	// spikeJobs single-pod jobs arrive at once on spikeNodes nodes.
	spikeJobs, spikeNodes int
	// window is the number of leading ops of a closed-loop workload whose
	// simulated results form the fingerprint, the sim_* metrics and the
	// per-op counts. Every run completes at least window ops, so these
	// figures do not depend on host speed.
	window int
	// setupReps is how many times each set-up is repeated (setup_s is the
	// median over all of them).
	setupReps int
	// fuzzWarmup specs are executed per set-up repetition of fuzz-campaign.
	fuzzWarmup int
}

var (
	defaultSize = size{spikeJobs: 3000, spikeNodes: 8, window: 1000, setupReps: 25, fuzzWarmup: 12}
	tinySize    = size{spikeJobs: 40, spikeNodes: 4, window: 12, setupReps: 2, fuzzWarmup: 1}
)

// phase collects one measured pass of a workload: set-up repetitions, then a
// timed loop that lasts at least budget of host time.
type phase struct {
	seed   int64
	budget time.Duration
	size   size
	prof   *profiler // nil for an untraced pass

	timed     time.Duration // host time inside closed timed sections
	sectStart time.Time     // start of the open timed section
	inSection bool
	simAdv    sim.Duration // simulated time advanced inside timed sections

	attempted, failed int
	failures          []string // first few failure reasons, for stderr

	opMs []float64 // host ms per op of a closed loop
	// batchP50 and batchP99 are the host-ms latency quantiles of each
	// batch of an open loop (each spike of admission-spike); op_ms_p50 and
	// op_ms_p99 are then their medians.
	batchP50, batchP99 []float64
	// chunks are op rates (ops per host second) of consecutive slices of
	// the timed loop; ops_per_s is their median, which a burst of host
	// noise shorter than half the run does not move.
	chunks  []float64
	simOpMs []float64 // simulated ms per op, over the window only
	setupS  []float64
	spans   map[string][]float64
	// counts are exact per-layer counts over the window.
	counts counters
	// stages are simulated admission stage waits in ms (admission-spike).
	stages map[string][]float64

	rt rtMeter
	fp digest
}

func newPhase(seed int64, budget time.Duration, sz size) *phase {
	return &phase{
		seed: seed, budget: budget, size: sz,
		spans:  map[string][]float64{},
		counts: counters{},
		stages: map[string][]float64{},
		fp:     newDigest(),
	}
}

// beginTimed opens a timed section.
func (p *phase) beginTimed() {
	p.rt.begin()
	if p.prof != nil {
		p.prof.start()
	}
	p.sectStart, p.inSection = time.Now(), true
}

// endTimed closes a timed section.
func (p *phase) endTimed() {
	p.timed += time.Since(p.sectStart)
	p.inSection = false
	if p.prof != nil {
		p.prof.stop()
	}
	p.rt.end()
}

// more reports whether the time budget still has room: the host time spent
// in timed sections so far, the open one included, is below the budget.
func (p *phase) more() bool {
	elapsed := p.timed
	if p.inSection {
		elapsed += time.Since(p.sectStart)
	}
	return elapsed < p.budget
}

// span records one host-time interval, in seconds, of a call the benchmark
// made into a layer.
func (p *phase) span(name string, d time.Duration) {
	p.spans[name] = append(p.spans[name], d.Seconds())
}

// timeSetup runs one set-up repetition and records its host time. A forced
// collection first clears the garbage earlier work left, so every
// repetition starts from the same heap instead of paying for whichever
// collection happens to be due.
func (p *phase) timeSetup(build func()) {
	runtime.GC()
	t0 := time.Now()
	build()
	p.setupS = append(p.setupS, time.Since(t0).Seconds())
}

// chunkOps splits a closed loop's ops into chunkCount consecutive slices
// and records each slice's rate.
func (p *phase) chunkOps() {
	for c := 0; c < chunkCount; c++ {
		lo, hi := c*len(p.opMs)/chunkCount, (c+1)*len(p.opMs)/chunkCount
		sum := 0.0
		for _, v := range p.opMs[lo:hi] {
			sum += v
		}
		if sum > 0 {
			p.chunks = append(p.chunks, float64(hi-lo)/(sum/1e3))
		}
	}
}

// chunkCount is how many slices chunkOps cuts a closed loop into.
const chunkCount = 10

func (p *phase) fail(n int, format string, args ...any) {
	p.failed += n
	if len(p.failures) < 5 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// digest accumulates a fingerprint of simulated results.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) f(format string, args ...any) { fmt.Fprintf(d.h, format, args...) }

// hex renders the digest so far.
func (d digest) hex() string { return fmt.Sprintf("%x", d.h.Sum(nil)[:12]) }

// value48 is the digest's first 48 bits, exact as a JSON number.
func (d digest) value48() float64 { return float64(binary.BigEndian.Uint64(d.h.Sum(nil)[:8]) >> 16) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// rtMeter accumulates Go runtime counters over timed sections.
type rtMeter struct {
	samples  []metrics.Sample
	at       [4]float64
	allocs   float64 // heap objects allocated
	allocB   float64 // heap bytes allocated
	gcCPU    float64 // GC CPU seconds
	gcCycles float64
	heap     []metrics.Sample
	// heapB are the sampled heap sizes in time order.
	heapB []float64
}

var rtNames = [4]string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func (m *rtMeter) read() [4]float64 {
	if m.samples == nil {
		for _, n := range rtNames {
			m.samples = append(m.samples, metrics.Sample{Name: n})
		}
	}
	metrics.Read(m.samples)
	var out [4]float64
	for i, s := range m.samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

func (m *rtMeter) begin() {
	m.at = m.read()
	m.sampleHeap()
}

func (m *rtMeter) end() {
	m.sampleHeap()
	now := m.read()
	m.allocs += now[0] - m.at[0]
	m.allocB += now[1] - m.at[1]
	m.gcCPU += now[2] - m.at[2]
	m.gcCycles += now[3] - m.at[3]
}

// sampleHeap records the live-plus-unswept heap. The workloads call it
// between ops and from informer handlers.
func (m *rtMeter) sampleHeap() {
	if m.heap == nil {
		m.heap = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	}
	metrics.Read(m.heap)
	m.heapB = append(m.heapB, float64(m.heap[0].Value.Uint64()))
}

// peakHeap is the median over chunkCount consecutive slices of the heap
// samples of each slice's largest sample. Where the single largest sample
// falls depends on when collections happen; the typical slice peak does
// not.
func (m *rtMeter) peakHeap() float64 {
	var peaks []float64
	for c := 0; c < chunkCount; c++ {
		lo, hi := c*len(m.heapB)/chunkCount, (c+1)*len(m.heapB)/chunkCount
		peak := 0.0
		for _, v := range m.heapB[lo:hi] {
			peak = max(peak, v)
		}
		if hi > lo {
			peaks = append(peaks, peak)
		}
	}
	return median(peaks)
}
