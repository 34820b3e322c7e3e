package k8s

import (
	"fmt"
	"sort"
	"testing"
)

// scanChildren is the full-store scan the owner index replaces: every
// stored object with an OwnerUID, filed under it.
func scanChildren(api *APIServer) map[UID][]string {
	out := make(map[UID][]string)
	for kind, s := range api.stores {
		for _, obj := range s {
			if m := obj.GetMeta(); m.OwnerUID != "" {
				out[m.OwnerUID] = append(out[m.OwnerUID], fmt.Sprintf("%s/%s", kind, m.Key()))
			}
		}
	}
	for _, refs := range out {
		sort.Strings(refs)
	}
	return out
}

// checkChildrenIndex asserts the owner index equals a full store scan.
func checkChildrenIndex(t *testing.T, api *APIServer, step string) {
	t.Helper()
	got := make(map[UID][]string)
	for owner, refs := range api.children {
		for _, r := range refs {
			got[owner] = append(got[owner], fmt.Sprintf("%s/%s/%s", r.kind, r.ns, r.name))
		}
		sort.Strings(got[owner])
	}
	if want := scanChildren(api); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s: owner index\n  %v\nfull scan\n  %v", step, got, want)
	}
}

// TestChildrenIndexExact drives every store write path and checks the
// owner index against a full scan after each.
func TestChildrenIndexExact(t *testing.T) {
	eng, api := newTestAPI()
	uidOf := func(kind Kind, name string) UID {
		t.Helper()
		obj, ok := api.Get(kind, "ns", name)
		if !ok {
			t.Fatalf("%s %s missing", kind, name)
		}
		return obj.GetMeta().UID
	}
	mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j1"}})
	mustCreate(t, eng, api, &Job{Meta: Meta{Kind: KindJob, Namespace: "ns", Name: "j2"}})
	j1, j2 := uidOf(KindJob, "j1"), uidOf(KindJob, "j2")
	for _, name := range []string{"p1", "p2"} {
		mustCreate(t, eng, api, &Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: name, OwnerUID: j1}})
	}
	mustCreate(t, eng, api, &Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "loose"}})
	mustCreate(t, eng, api, &Custom{Meta: Meta{Kind: "Child", Namespace: "ns", Name: "c1", OwnerUID: j1,
		Finalizers: []string{"f"}}})
	checkChildrenIndex(t, api, "create")

	update := func(name string, fn func(*Pod)) {
		t.Helper()
		obj := mustGetCopy(t, api, KindPod, name)
		fn(obj.(*Pod))
		resp := api.Update(obj)
		eng.Run()
		if err := resp.Err(); err != nil {
			t.Fatalf("update %s: %v", name, err)
		}
	}
	update("p2", func(p *Pod) { p.Meta.OwnerUID = j2 })
	checkChildrenIndex(t, api, "update moving p2 to j2")
	update("loose", func(p *Pod) { p.Meta.OwnerUID = j2 })
	checkChildrenIndex(t, api, "update adopting loose")
	update("p1", func(p *Pod) { p.Meta.Labels = map[string]string{"x": "y"} })
	checkChildrenIndex(t, api, "update keeping the owner")

	api.UpdateStatus(KindPod, "ns", "p1", func(obj Object) bool {
		obj.(*Pod).Status.Phase = PodRunning
		return true
	})
	checkChildrenIndex(t, api, "status write")
	api.UpdateStatus(KindPod, "ns", "loose", func(obj Object) bool {
		obj.GetMeta().OwnerUID = ""
		return true
	})
	checkChildrenIndex(t, api, "status write orphaning loose")
	api.UpdateStatus(KindPod, "ns", "loose", func(obj Object) bool {
		obj.GetMeta().OwnerUID = j1
		return false // dropped: the store must not change
	})
	checkChildrenIndex(t, api, "dropped status write")

	api.Delete("Child", "ns", "c1")
	eng.Run()
	checkChildrenIndex(t, api, "delete with finalizer (terminating)")
	if _, ok := api.Get("Child", "ns", "c1"); !ok {
		t.Fatal("c1 vanished while its finalizer was held")
	}
	api.RemoveFinalizer("Child", "ns", "c1", "f")
	eng.Run()
	checkChildrenIndex(t, api, "finalizer removed")
	if _, ok := api.Get("Child", "ns", "c1"); ok {
		t.Fatal("c1 survived its last finalizer")
	}

	api.SetDebugLoseWrite(KindPod, 1)
	update("p1", func(p *Pod) { p.Meta.OwnerUID = j2 })
	checkChildrenIndex(t, api, "lost write")

	api.Delete(KindJob, "ns", "j2") // no finalizers: p1 and p2 are collected
	eng.Run()
	checkChildrenIndex(t, api, "owner deleted, orphans collected")
	if pods := api.List(KindPod, "ns"); len(pods) != 1 || pods[0].GetMeta().Name != "loose" {
		t.Fatalf("pods left after gc: %d", len(pods))
	}
	if len(api.children) != 0 {
		t.Errorf("index keeps dead owners: %v", api.children)
	}
}

// TestJobQueueDedup: re-enqueuing a key that is still queued is a no-op,
// and a key that has been popped can be enqueued again.
func TestJobQueueDedup(t *testing.T) {
	eng, api := newTestAPI()
	c := NewJobController(api.Client(), DefaultJobControllerConfig())
	c.busy = true // a reconcile is in flight: keys stay queued
	c.enqueue("ns/a")
	c.enqueue("ns/b")
	c.enqueue("ns/a")
	if got := fmt.Sprint(c.queue); got != "[ns/a ns/b]" {
		t.Fatalf("queue = %s, want [ns/a ns/b]", got)
	}
	c.busy = false
	c.pump() // pops ns/a
	if got := fmt.Sprint(c.queue); got != "[ns/b]" {
		t.Fatalf("queue after pop = %s, want [ns/b]", got)
	}
	c.enqueue("ns/a")
	c.enqueue("ns/b")
	if got := fmt.Sprint(c.queue); got != "[ns/b ns/a]" {
		t.Fatalf("queue after re-enqueue = %s, want [ns/b ns/a]", got)
	}
	eng.Run()
	if len(c.queue) != 0 || len(c.queued) != 0 {
		t.Fatalf("queue not drained: %v (dirty set %v)", c.queue, c.queued)
	}
}
