package k8s

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// TestOutageFailsWritesRetryRecovers is the outage round trip: writes
// issued into a full outage fail and are reissued with backoff by the
// retry layer, then commit once the apiserver recovers.
func TestOutageFailsWritesRetryRecovers(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()

	api.FailAPIServer()
	if api.Availability() != AvailDown {
		t.Fatalf("availability = %v, want down", api.Availability())
	}
	resp := cli.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "p"}})

	eng.RunFor(300 * time.Millisecond)
	if resp.Completed() {
		t.Fatalf("request completed during outage: %v", resp.Err())
	}

	api.RecoverAPIServer()
	eng.Run()
	if err := resp.Err(); err != nil {
		t.Fatalf("request after recovery: %v", err)
	}
	if _, ok := api.Get(KindPod, "ns", "p"); !ok {
		t.Fatal("object missing after recovery")
	}
	if got := cli.Stats().Retries; got == 0 {
		t.Error("no retries counted across the outage")
	}
}

// TestRetriesExhaustedTyped pins the typed failure: a permanent outage
// spends the whole budget and surfaces ErrRetriesExhausted wrapping
// ErrUnavailable.
func TestRetriesExhaustedTyped(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()

	api.FailAPIServer()
	resp := cli.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "p"}})
	eng.Run()

	err := resp.Err()
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, should wrap ErrUnavailable", err)
	}
	if got := cli.Stats().Exhausted; got != 1 {
		t.Errorf("exhausted = %d, want 1", got)
	}
}

// TestUpdateWithRetryConflictBound pins the conflict cap (satellite of the
// fault-layer PR): under sustained conflicts UpdateWithRetry stops after
// maxUpdateRetries re-reads and returns the typed error instead of
// spinning unboundedly.
func TestUpdateWithRetryConflictBound(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j"}})

	// A 1ms blind-write ticker guarantees the stored revision moves between
	// every Get and its Update commit (request latency ≥ 3.9ms), so each
	// attempt conflicts.
	var tick func()
	stop := false
	tick = func() {
		if stop {
			return
		}
		api.UpdateStatus(KindJob, "ns", "j", func(obj Object) bool {
			obj.(*Job).Spec.Parallelism++
			return true
		})
		eng.After(time.Millisecond, tick)
	}
	eng.After(time.Millisecond, tick)

	mutations := 0
	resp := cli.UpdateWithRetry(KindJob, "ns", "j", func(obj Object) bool {
		mutations++
		obj.GetMeta().Finalizers = []string{"test/f"}
		return true
	})
	eng.RunUntilDone(resp.Completed, eng.Now().Add(time.Hour))
	stop = true

	if err := resp.Err(); !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want ErrRetriesExhausted wrapping ErrConflict", err)
	}
	if want := maxUpdateRetries + 1; mutations != want {
		t.Errorf("mutate ran %d times, want %d (initial + capped retries)", mutations, want)
	}
}

// TestUpdateWithRetryBacksOffWhenArmed verifies the jittered conflict
// backoff engages once the fault layer is armed: retries 2..N wait, so the
// capped sequence takes macroscopic virtual time instead of completing in
// a burst of immediate re-reads.
func TestUpdateWithRetryBacksOffWhenArmed(t *testing.T) {
	elapsed := func(arm bool) sim.Duration {
		eng, api := newTestAPI()
		cli := api.Client()
		mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j"}})
		if arm {
			api.RecoverAPIServer() // arms the layer without injecting faults
		}
		stop := false
		var tick func()
		tick = func() {
			if stop {
				return
			}
			api.UpdateStatus(KindJob, "ns", "j", func(obj Object) bool {
				obj.(*Job).Spec.Parallelism++
				return true
			})
			eng.After(time.Millisecond, tick)
		}
		eng.After(time.Millisecond, tick)
		start := eng.Now()
		resp := cli.UpdateWithRetry(KindJob, "ns", "j", func(obj Object) bool {
			obj.GetMeta().Finalizers = []string{"test/f"}
			return true
		})
		eng.RunUntilDone(resp.Completed, eng.Now().Add(time.Hour))
		stop = true
		if err := resp.Err(); !errors.Is(err, ErrRetriesExhausted) {
			panic(fmt.Sprintf("err = %v, want ErrRetriesExhausted", err))
		}
		return eng.Now().Sub(start)
	}

	fast := elapsed(false)
	slow := elapsed(true)
	if slow < 2*fast {
		t.Errorf("armed conflict chain took %v, unarmed %v; want clear backoff separation", slow, fast)
	}
}

// TestDegradedModeErrorsAndLatency checks degraded mode: elevated request
// latency and probabilistic write errors, both recovering cleanly.
func TestDegradedModeErrorsAndLatency(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()

	api.DegradeAPIServer(10, 0.5)
	if api.Availability() != AvailDegraded {
		t.Fatalf("availability = %v, want degraded", api.Availability())
	}

	// With error probability 0.5 and a generous retry budget, every write
	// eventually lands; some retries must have happened across 20 writes.
	var resps []*Response
	for i := 0; i < 20; i++ {
		resps = append(resps, cli.Create(&Pod{
			Meta: Meta{Kind: KindPod, Namespace: "ns", Name: fmt.Sprintf("p%02d", i)},
		}))
	}
	eng.Run()
	for i, r := range resps {
		if err := r.Err(); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if got := cli.Stats().Retries; got == 0 {
		t.Error("no retries under errProb=0.5")
	}

	api.RecoverAPIServer()
	resp := cli.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "after"}})
	eng.Run()
	if err := resp.Err(); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestDeadlineTimesOutSlowRequests pins the deadline contract: once the
// fault layer is armed, a request whose commit would land after the
// client deadline is dropped on the wire (never half-applied) and fails
// with ErrTimeout.
func TestDeadlineTimesOutSlowRequests(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()

	// Latency factor 1000 puts every commit (~6s) far past the 250ms
	// deadline: all attempts time out and the budget drains.
	api.DegradeAPIServer(1000, 0)
	resp := cli.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "p"}})
	eng.Run()

	err := resp.Err()
	if !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrRetriesExhausted wrapping ErrTimeout", err)
	}
	if got := cli.Stats().Timeouts; got == 0 {
		t.Error("no timeouts counted")
	}
	// The cancelled commits must not have half-applied.
	if _, ok := api.Get(KindPod, "ns", "p"); ok {
		t.Error("timed-out create committed anyway")
	}
}

// TestStatusWriteRetriesAcrossOutage covers the kubelet path: a status
// write issued during an outage is queued behind backoff and commits after
// recovery instead of being dropped.
func TestStatusWriteRetriesAcrossOutage(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	mustCreate(t, eng, api, &Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "p"}})

	api.FailAPIServer()
	resp := cli.UpdateStatus(KindPod, "ns", "p", func(obj Object) bool {
		obj.(*Pod).Status.Phase = PodRunning
		return true
	})
	eng.RunFor(200 * time.Millisecond)
	if resp.Completed() {
		t.Fatalf("status write completed during outage: %v", resp.Err())
	}

	api.RecoverAPIServer()
	eng.Run()
	if err := resp.Err(); err != nil {
		t.Fatalf("status write after recovery: %v", err)
	}
	got, _ := api.Get(KindPod, "ns", "p")
	if got.(*Pod).Status.Phase != PodRunning {
		t.Errorf("phase = %v, want running", got.(*Pod).Status.Phase)
	}
}

// TestWatchBreakRelistConverges is the tentpole repair loop: a silently
// severed informer stream is detected via the per-kind sequence gap and
// repaired by relist-and-replay, after which the cache matches the store
// and handlers have seen the missed changes.
func TestWatchBreakRelistConverges(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()

	var adds, dels int
	cli.Watch(KindPod, WatchOptions{}, func(ev Event) {
		switch ev.Type {
		case EventAdded:
			adds++
		case EventDeleted:
			dels++
		}
	})
	// Note: once the prober is enabled, eng.Run() would never drain (the
	// tick reschedules itself); these tests advance time with RunFor.
	cli.EnableFaultRecovery()

	api.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "keep"}})
	api.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "gone"}})
	eng.RunFor(60 * time.Millisecond)
	if adds != 2 {
		t.Fatalf("adds before break = %d, want 2", adds)
	}

	if n := api.BreakWatch(KindPod); n == 0 {
		t.Fatal("no watchers broken")
	}
	// Commits behind the broken stream: one new pod, one deletion.
	api.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "missed"}})
	api.Delete(KindPod, "ns", "gone")
	eng.RunFor(50 * time.Millisecond)
	if adds != 2 || dels != 0 {
		t.Fatalf("events leaked through broken watch: adds=%d dels=%d", adds, dels)
	}

	// The prober detects the stalled gap within two periods and relists.
	eng.RunFor(400 * time.Millisecond)
	if err := cli.VerifyCaches(); err != nil {
		t.Fatalf("caches diverged after relist: %v", err)
	}
	if adds != 3 || dels != 1 {
		t.Errorf("replay incomplete: adds=%d dels=%d, want 3/1", adds, dels)
	}
	st := cli.Stats()
	if st.Relists == 0 {
		t.Error("no relists counted")
	}
	if st.MaxStalenessUs <= 0 {
		t.Error("max staleness not measured")
	}

	// Repaired stream: fresh commits flow again without another relist.
	before := cli.Stats().Relists
	api.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "fresh"}})
	eng.RunFor(60 * time.Millisecond)
	if adds != 4 {
		t.Errorf("post-repair add not delivered: adds=%d", adds)
	}
	cli.StopFaultRecovery()
	if got := cli.Stats().Relists; got != before {
		t.Errorf("spurious relist after repair: %d -> %d", before, got)
	}
}

// TestRelistRebuildsIndexesAtomically is the index-consistency satellite:
// handlers running during the relist replay must never observe a
// half-rebuilt cache — every index (pods-by-job, owner, and a custom one)
// agrees with the object map at every replayed event.
func TestRelistRebuildsIndexesAtomically(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()

	inf := cli.Informer(KindPod)
	inf.AddIndex(IndexPodJob, PodJobIndex)
	inf.AddIndex(IndexOwner, OwnerIndex)
	// A custom index in the spirit of vniapi's VNIs-by-job: pods by node.
	inf.AddIndex("by-node", func(obj Object) []string {
		if n := obj.(*Pod).Spec.NodeName; n != "" {
			return []string{n}
		}
		return nil
	})
	lister := inf.Lister()

	// checkConsistent recomputes every index from the lister's full List
	// and cross-checks ByIndex; any half-updated swap diverges.
	checkConsistent := func(where string) {
		all := lister.List("")
		type want struct{ job, owner, node map[string]int }
		w := want{map[string]int{}, map[string]int{}, map[string]int{}}
		for _, obj := range all {
			p := obj.(*Pod)
			for _, v := range PodJobIndex(p) {
				w.job[v]++
			}
			for _, v := range OwnerIndex(p) {
				w.owner[v]++
			}
			if p.Spec.NodeName != "" {
				w.node[p.Spec.NodeName]++
			}
		}
		for v, n := range w.job {
			if got := lister.IndexCount(IndexPodJob, v); got != n {
				t.Fatalf("%s: index %s[%s] = %d, want %d", where, IndexPodJob, v, got, n)
			}
		}
		for v, n := range w.owner {
			if got := lister.IndexCount(IndexOwner, v); got != n {
				t.Fatalf("%s: index %s[%s] = %d, want %d", where, IndexOwner, v, got, n)
			}
		}
		for v, n := range w.node {
			if got := lister.IndexCount("by-node", v); got != n {
				t.Fatalf("%s: index by-node[%s] = %d, want %d", where, v, got, n)
			}
		}
	}

	replayed := 0
	cli.Watch(KindPod, WatchOptions{}, func(ev Event) {
		replayed++
		checkConsistent(fmt.Sprintf("handler at event %d (%v %s)",
			replayed, ev.Type, ev.Object.GetMeta().Key()))
	})
	cli.EnableFaultRecovery()

	pod := func(name, job, node string, owner UID) *Pod {
		return &Pod{
			Meta: Meta{Kind: KindPod, Namespace: "ns", Name: name,
				Labels: map[string]string{"job-name": job}, OwnerUID: owner},
			Spec: PodSpec{NodeName: node},
		}
	}
	api.Create(pod("a", "j1", "n0", "uid-1"))
	api.Create(pod("b", "j1", "n1", "uid-1"))
	api.Create(pod("c", "j2", "n0", "uid-2"))
	eng.RunFor(60 * time.Millisecond)

	api.BreakWatch(KindPod)
	// Mutations behind the severed stream: delete, add, move.
	api.Delete(KindPod, "ns", "b")
	api.Create(pod("d", "j2", "n1", "uid-2"))
	eng.RunFor(30 * time.Millisecond)
	api.UpdateStatus(KindPod, "ns", "c", func(obj Object) bool {
		obj.(*Pod).Spec.NodeName = "n2"
		return true
	})

	eng.RunFor(time.Second)
	if err := cli.VerifyCaches(); err != nil {
		t.Fatalf("caches diverged: %v", err)
	}
	checkConsistent("final")
	if cli.Stats().Relists == 0 {
		t.Fatal("no relist happened; test exercised nothing")
	}
	cli.StopFaultRecovery()
}

// TestCancelPendingDeliveries is the end-of-run teardown satellite: queued
// watch deliveries must not hold RunUntilDone open after the last object
// is deleted.
func TestCancelPendingDeliveries(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	cli.Watch(KindPod, WatchOptions{}, func(Event) {})

	mustCreate(t, eng, api, &Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "p"}})
	api.Delete(KindPod, "ns", "p")
	// Run just past the request delay: the delete committed, its delivery
	// timer is still queued.
	eng.RunFor(10 * time.Millisecond)
	if eng.Pending() == 0 {
		t.Fatal("expected a queued watch delivery")
	}

	if n := api.CancelPendingDeliveries(); n == 0 {
		t.Fatal("nothing cancelled")
	}
	if got := eng.Pending(); got != 0 {
		t.Fatalf("pending = %d after cancel, want 0 (RunUntilDone would block)", got)
	}
	// Idempotent and safe on an empty queue.
	if n := api.CancelPendingDeliveries(); n != 0 {
		t.Fatalf("second cancel dropped %d deliveries", n)
	}
}

// TestLostWriteEscapesGapDetection pins the debug hook the fuzzer's
// eventual-convergence invariant self-tests against: a lost write (commit
// without sequence bump) is invisible to the prober but caught by
// VerifyCaches.
func TestLostWriteEscapesGapDetection(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	cli.Informer(KindPod)
	cli.EnableFaultRecovery()

	api.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "p"}})
	eng.RunFor(60 * time.Millisecond)
	api.SetDebugLoseWrite(KindPod, 1)
	api.UpdateStatus(KindPod, "ns", "p", func(obj Object) bool {
		obj.(*Pod).Status.Phase = PodRunning
		return true
	})

	// Give the prober plenty of time: no gap exists, so no relist repairs
	// the divergence.
	eng.RunFor(time.Second)
	cli.StopFaultRecovery()
	if err := cli.VerifyCaches(); err == nil {
		t.Fatal("VerifyCaches missed the lost write")
	} else if got := cli.Stats().Relists; got != 0 {
		t.Errorf("prober relisted %d times; the lost write should be invisible to gap detection", got)
	}
}
