package k8s

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

func newTestAPI() (*sim.Engine, *APIServer) {
	eng := sim.NewEngine(1)
	return eng, NewAPIServer(eng, DefaultAPILatency())
}

// mustGetCopy reads ns/name and returns a copy the test may write: Get
// returns the shared committed object.
func mustGetCopy(t *testing.T, api *APIServer, kind Kind, name string) Object {
	t.Helper()
	obj, ok := api.Get(kind, "ns", name)
	if !ok {
		t.Fatalf("%s ns/%s missing", kind, name)
	}
	return obj.DeepCopy()
}

func mustCreate(t *testing.T, eng *sim.Engine, api *APIServer, obj Object) {
	t.Helper()
	resp := api.Create(obj)
	eng.Run()
	if err := resp.Err(); err != nil {
		t.Fatalf("create %s: %v", obj.GetMeta().Key(), err)
	}
}

// TestStaleUpdateConflicts is the optimistic-concurrency contract: an
// Update carrying a ResourceVersion that another committed write has
// overtaken fails with ErrConflict and leaves the store untouched.
func TestStaleUpdateConflicts(t *testing.T) {
	eng, api := newTestAPI()
	mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j"}})

	// Two readers fetch the same revision, each copying it to write.
	a := mustGetCopy(t, api, KindJob, "j")
	b := mustGetCopy(t, api, KindJob, "j")

	a.(*Job).Spec.Parallelism = 2
	respA := api.Update(a)
	eng.Run()
	if err := respA.Err(); err != nil {
		t.Fatalf("first update: %v", err)
	}

	b.(*Job).Spec.Parallelism = 9
	respB := api.Update(b)
	eng.Run()
	if err := respB.Err(); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale update err = %v, want ErrConflict", err)
	}
	got, _ := api.Get(KindJob, "ns", "j")
	if got.(*Job).Spec.Parallelism != 2 {
		t.Errorf("stale update overwrote store: parallelism = %d", got.(*Job).Spec.Parallelism)
	}

	// ResourceVersion 0 skips the precondition (blind write).
	blind := got.(*Job).DeepCopy().(*Job)
	blind.Meta.ResourceVersion = 0
	blind.Spec.Parallelism = 5
	respC := api.Update(blind)
	eng.Run()
	if err := respC.Err(); err != nil {
		t.Fatalf("blind update: %v", err)
	}
}

// TestUpdateWithRetryConverges drives the Patch-style helper against an
// interfering writer: the losing attempt re-reads and reapplies, so the
// mutation lands on top of the interferer's state instead of clobbering it.
func TestUpdateWithRetryConverges(t *testing.T) {
	// Zero jitter makes commits land in scheduling order, so the
	// interleaving below is deterministic: the interfering write is
	// scheduled (and therefore commits) before the helper's first update.
	eng := sim.NewEngine(1)
	api := NewAPIServer(eng, APILatency{Request: 10 * time.Millisecond, WatchDelivery: 25 * time.Millisecond})
	cli := api.Client()
	mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j"}})

	// The interferer bumps Parallelism through a blind write racing the
	// retrying updater, which attaches a finalizer.
	interfere := func() {
		j := mustGetCopy(t, api, KindJob, "j").(*Job)
		j.Meta.ResourceVersion = 0
		j.Spec.Parallelism++
		api.Update(j)
	}
	interfere()

	mutations := 0
	resp := cli.UpdateWithRetry(KindJob, "ns", "j", func(obj Object) bool {
		mutations++
		m := obj.GetMeta()
		if m.HasFinalizer("test/f") {
			return false
		}
		m.Finalizers = append(m.Finalizers, "test/f")
		return true
	})
	eng.Run()
	if err := resp.Err(); err != nil {
		t.Fatalf("retry helper: %v", err)
	}
	if mutations != 2 {
		t.Errorf("mutate ran %d times, want 2 (first attempt loses to the interferer)", mutations)
	}
	got, _ := api.Get(KindJob, "ns", "j")
	if !got.GetMeta().HasFinalizer("test/f") {
		t.Error("finalizer lost")
	}
	if got.(*Job).Spec.Parallelism != 1 {
		t.Errorf("interfering write lost: parallelism = %d", got.(*Job).Spec.Parallelism)
	}
}

// TestWatchEventsArriveInCommitOrder pins the FIFO delivery contract: a
// watcher observes one object's events in commit order (monotonically
// increasing resource versions) even though each delivery draws its own
// watch-delivery jitter.
func TestWatchEventsArriveInCommitOrder(t *testing.T) {
	// High jitter maximizes the chance of reordering if delivery were not
	// serialized per watcher.
	for seed := int64(1); seed <= 20; seed++ {
		eng := sim.NewEngine(seed)
		api := NewAPIServer(eng, APILatency{
			Request: time.Millisecond, WatchDelivery: 25 * time.Millisecond, Jitter: 0.9})
		var seen []int64
		api.Watch(KindJob, func(ev Event) {
			seen = append(seen, ev.Object.GetMeta().ResourceVersion)
		})
		job := &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j"}}
		api.Create(job)
		eng.Run()
		for i := 0; i < 5; i++ {
			j := mustGetCopy(t, api, KindJob, "j").(*Job)
			j.Spec.Parallelism = i + 1
			api.Update(j)
			eng.Run()
		}
		if len(seen) != 6 {
			t.Fatalf("seed %d: saw %d events, want 6", seed, len(seen))
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] <= seen[i-1] {
				t.Fatalf("seed %d: events out of commit order: %v", seed, seen)
			}
		}
	}
}

// TestListerReflectsEventBeforeHandlers is the informer ordering guarantee
// the VNI pod gate depends on: when a watch handler fires, the shared
// informer cache (and its indexes) already contain the event, so a gate
// check triggered by the handler resolves correctly even though the cache
// as a whole is inside its staleness window.
func TestListerReflectsEventBeforeHandlers(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	inf := cli.Informer(KindPod)
	inf.AddIndex(IndexPodJob, PodJobIndex)
	lister := inf.Lister()

	checked := 0
	cli.Watch(KindPod, WatchOptions{}, func(ev Event) {
		checked++
		key := ev.Object.GetMeta().Key()
		if _, ok := lister.Get(ev.Object.GetMeta().Namespace, ev.Object.GetMeta().Name); ok != (ev.Type != EventDeleted) {
			t.Errorf("cache out of sync with %s event for %s", ev.Type, key)
		}
		if ev.Type != EventDeleted {
			p := ev.Object.(*Pod)
			if n := lister.IndexCount(IndexPodJob, p.Meta.Namespace+"/"+p.Meta.Labels["job-name"]); n != 1 {
				t.Errorf("index not updated before handler: count = %d", n)
			}
		}
	})
	pod := &Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "p",
		Labels: map[string]string{"job-name": "j"}}}
	api.Create(pod)
	eng.Run()
	api.Delete(KindPod, "ns", "p")
	eng.Run()
	if checked != 2 {
		t.Fatalf("handler ran %d times, want 2", checked)
	}
}

// TestGateResolvesDuringStalenessWindow reproduces the VNI gate flow at the
// informer level: a consumer whose requeue is driven by the ADDED event of
// the object it gates on must observe that object through the lister, even
// though a raw store read and the cache disagree during the watch-delivery
// window.
func TestGateResolvesDuringStalenessWindow(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	const kindCRD Kind = "GateCRD"
	lister := cli.Lister(kindCRD)

	gateOpen := func() bool {
		_, ok := lister.Get("ns", "crd")
		return ok
	}
	var observed []bool
	cli.Watch(kindCRD, WatchOptions{}, func(ev Event) {
		if ev.Type == EventAdded {
			observed = append(observed, gateOpen())
		}
	})

	resp := api.Create(&Custom{Meta: Meta{Kind: kindCRD, Namespace: "ns", Name: "crd"}})
	committed := false
	resp.Done(func(err error) {
		if err != nil {
			t.Errorf("create: %v", err)
		}
		committed = true
		// Inside the staleness window: committed to the store, but the
		// informer has not seen it yet — the gate must simply stay
		// closed (no false positive, no crash) until the event lands.
		if gateOpen() {
			t.Error("gate opened before the informer absorbed the commit")
		}
	})
	eng.Run()
	if !committed {
		t.Fatal("create never completed")
	}
	if len(observed) != 1 || !observed[0] {
		t.Fatalf("gate check driven by the ADDED event saw %v, want [true]", observed)
	}
}

// TestFilteredWatchScopes verifies namespace and selector scoping of watch
// registrations against the kind-wide broadcast.
func TestFilteredWatchScopes(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	var nsEvents, selEvents, allEvents int
	cli.Watch(KindPod, WatchOptions{Namespace: "a"}, func(Event) { nsEvents++ })
	cli.Watch(KindPod, WatchOptions{Selector: func(o Object) bool {
		return o.(*Pod).Spec.NodeName == "node1"
	}}, func(Event) { selEvents++ })
	cli.Watch(KindPod, WatchOptions{}, func(Event) { allEvents++ })

	for i, tc := range []struct {
		ns, node string
	}{{"a", "node0"}, {"b", "node1"}, {"b", "node0"}} {
		api.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: tc.ns, Name: fmt.Sprintf("p%d", i)},
			Spec: PodSpec{NodeName: tc.node}})
	}
	eng.Run()
	if nsEvents != 1 || selEvents != 1 || allEvents != 3 {
		t.Errorf("events: ns=%d sel=%d all=%d, want 1/1/3", nsEvents, selEvents, allEvents)
	}
}

// TestOrphanGCDeterministicOrder pins the collectOrphans satellite fix:
// children of a deleted owner disappear in sorted (kind, key) order, run
// after run, and each deletion costs one request delay, not two.
func TestOrphanGCDeterministicOrder(t *testing.T) {
	ordersSeen := map[string]bool{}
	for run := 0; run < 5; run++ {
		eng := sim.NewEngine(7) // fixed seed: order must not depend on map iteration
		api := NewAPIServer(eng, DefaultAPILatency())
		owner := &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "owner"}}
		resp := api.Create(owner)
		eng.Run()
		if resp.Err() != nil {
			t.Fatal(resp.Err())
		}
		got, _ := api.Get(KindJob, "ns", "owner")
		uid := got.GetMeta().UID
		for _, name := range []string{"c3", "c1", "c2"} {
			api.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: name, OwnerUID: uid}})
			api.Create(&Custom{Meta: Meta{Kind: "Child", Namespace: "ns", Name: name, OwnerUID: uid}})
		}
		eng.Run()
		var order []string
		api.Watch(KindPod, func(ev Event) {
			if ev.Type == EventDeleted {
				order = append(order, "Pod/"+ev.Object.GetMeta().Name)
			}
		})
		api.Watch("Child", func(ev Event) {
			if ev.Type == EventDeleted {
				order = append(order, "Child/"+ev.Object.GetMeta().Name)
			}
		})
		api.Delete(KindJob, "ns", "owner")
		eng.Run()
		if len(order) != 6 {
			t.Fatalf("gc deleted %d children, want 6", len(order))
		}
		ordersSeen[fmt.Sprint(order)] = true
	}
	if len(ordersSeen) != 1 {
		t.Errorf("gc deletion order varies across identical runs: %v", ordersSeen)
	}
}
