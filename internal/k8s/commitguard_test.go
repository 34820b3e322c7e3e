package k8s_test

import (
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/caps-sim/shs-k8s/internal/fuzz"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/scenario"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/stack"
)

// commitGuard checks that committed objects stay immutable. The store,
// the informer caches, Get and List results, lister results and watch
// events all share one object per commit, so Client.VerifyCaches compares
// an object with itself and cannot see a reader mutating it. The guard
// snapshots every object when it is committed and compares the object
// with its snapshot when it is replaced, when it is deleted, and at the
// end of the run.
type commitGuard struct {
	mu    sync.Mutex
	snaps map[k8s.Object]k8s.Object
	found []string
	// commits counts observed commits since the last finish, so a run the
	// guard never saw cannot pass as clean.
	commits int
}

// installCommitGuard arms a guard for the rest of the test.
func installCommitGuard(t *testing.T) *commitGuard {
	t.Helper()
	g := &commitGuard{snaps: make(map[k8s.Object]k8s.Object)}
	k8s.SetCommitObserver(g.observe)
	t.Cleanup(func() { k8s.SetCommitObserver(nil) })
	return g
}

func (g *commitGuard) observe(prev, next k8s.Object) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.commits++
	if prev != nil {
		when := "replaced"
		if next == nil {
			when = "deleted"
		}
		g.check(prev, when)
		delete(g.snaps, prev)
	}
	if next != nil {
		g.snaps[next] = snapshot(next)
	}
}

// snapshot clones obj completely. DeepCopy shares the metadata maps
// between copies, which is what the guard must watch, so the snapshot
// clones every map and slice an object holds itself.
func snapshot(obj k8s.Object) k8s.Object {
	cp := obj.DeepCopy()
	m, src := cp.GetMeta(), obj.GetMeta()
	m.Annotations, m.Labels = maps.Clone(src.Annotations), maps.Clone(src.Labels)
	m.Finalizers = slices.Clone(src.Finalizers)
	if c, ok := obj.(*k8s.Custom); ok {
		cc := cp.(*k8s.Custom)
		cc.Spec, cc.Status = maps.Clone(c.Spec), maps.Clone(c.Status)
	}
	return cp
}

// check compares obj with its commit-time snapshot.
func (g *commitGuard) check(obj k8s.Object, when string) {
	snap, ok := g.snaps[obj]
	if !ok {
		return // committed before the guard was armed
	}
	if !reflect.DeepEqual(obj, snap) {
		m := obj.GetMeta()
		g.found = append(g.found, fmt.Sprintf("%s %s mutated after commit, seen when %s",
			m.Kind, m.Key(), when))
	}
}

// finish checks every object still live and returns (and clears) all
// mutations found and the number of commits seen since the last call.
func (g *commitGuard) finish() (found []string, commits int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for obj := range g.snaps {
		g.check(obj, "the run ended")
	}
	found, commits = g.found, g.commits
	sort.Strings(found)
	g.snaps = make(map[k8s.Object]k8s.Object)
	g.found, g.commits = nil, 0
	return found, commits
}

func (g *commitGuard) assertClean(t *testing.T, what string) {
	t.Helper()
	found, commits := g.finish()
	if commits == 0 {
		t.Errorf("%s: the guard saw no commits", what)
	}
	if len(found) > 0 {
		t.Errorf("%s: %d committed object(s) mutated:\n  %s", what, len(found), strings.Join(found, "\n  "))
	}
}

// TestCommittedObjectsImmutableScenarios runs every bundled scenario under
// the guard.
func TestCommittedObjectsImmutableScenarios(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no bundled scenarios found: %v", err)
	}
	g := installCommitGuard(t)
	for _, path := range files {
		sc, err := scenario.ParseFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if res := scenario.Run(sc); res.Err != nil {
			t.Fatalf("%s: %v", path, res.Err)
		}
		g.assertClean(t, filepath.Base(path))
	}
}

// TestCommittedObjectsImmutableFuzz runs fuzz campaigns under the guard:
// generated fleets reach the fault layer's retries and relists, the health
// loop and tenant churn.
func TestCommittedObjectsImmutableFuzz(t *testing.T) {
	g := installCommitGuard(t)
	for _, seed := range []int64{1, 7} {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			spec := fuzz.Generate(rng, fuzz.DefaultConfig())
			if rep := fuzz.Execute(spec); len(rep.Violations) > 0 {
				t.Fatalf("seed %d spec %d (%s): %s", seed, i, spec.Name, rep.Violations[0])
			}
			g.assertClean(t, fmt.Sprintf("seed %d spec %d (%s)", seed, i, spec.Name))
		}
	}
}

// TestCommitGuardCatchesMutation is the guard's self-test: a lister user
// writing into shared objects is caught when the object is next replaced,
// when it is deleted, and at the end of the run.
func TestCommitGuardCatchesMutation(t *testing.T) {
	g := installCommitGuard(t)
	eng := sim.NewEngine(1)
	api := k8s.NewAPIServer(eng, k8s.DefaultAPILatency())
	pods := api.Client().Lister(k8s.KindPod)
	for _, name := range []string{"replaced", "deleted", "kept"} {
		api.Create(&k8s.Pod{Meta: k8s.Meta{Kind: k8s.KindPod, Namespace: "ns", Name: name}})
	}
	eng.Run()
	for _, obj := range pods.List("ns") {
		obj.(*k8s.Pod).Status.Message = "written through a lister"
	}
	api.UpdateStatus(k8s.KindPod, "ns", "replaced", func(obj k8s.Object) bool {
		obj.(*k8s.Pod).Status.Phase = k8s.PodRunning
		return true
	})
	api.Delete(k8s.KindPod, "ns", "deleted")
	eng.Run()
	want := []string{
		"Pod ns/deleted mutated after commit, seen when deleted",
		"Pod ns/kept mutated after commit, seen when the run ended",
		"Pod ns/replaced mutated after commit, seen when replaced",
	}
	if got, _ := g.finish(); !reflect.DeepEqual(got, want) {
		t.Fatalf("guard found:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestCommitGuardCatchesSharedMapWrite checks that the guard sees the maps
// DeepCopy shares: an in-place annotation write through a Client.Get
// result, or through a DeepCopy of one, changes the committed Job.
func TestCommitGuardCatchesSharedMapWrite(t *testing.T) {
	g := installCommitGuard(t)
	eng := sim.NewEngine(1)
	cli := k8s.NewAPIServer(eng, k8s.DefaultAPILatency()).Client()
	for _, name := range []string{"read", "copied"} {
		cli.Create(&k8s.Job{Meta: k8s.Meta{Kind: k8s.KindJob, Namespace: "ns", Name: name,
			Annotations: map[string]string{"vni": "true"}}})
	}
	eng.Run()
	read, _ := cli.Get(k8s.KindJob, "ns", "read")
	read.GetMeta().Annotations["vni"] = "written through Get"
	copied, _ := cli.Get(k8s.KindJob, "ns", "copied")
	copied.DeepCopy().GetMeta().Annotations["vni"] = "written through a DeepCopy"
	want := []string{
		"Job ns/copied mutated after commit, seen when the run ended",
		"Job ns/read mutated after commit, seen when the run ended",
	}
	if got, _ := g.finish(); !reflect.DeepEqual(got, want) {
		t.Fatalf("guard found:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestCommitGuardCatchesMutatingHandler injects the bug the guard exists
// for into a full scenario run: a watch handler that writes into its
// shared event object.
func TestCommitGuardCatchesMutatingHandler(t *testing.T) {
	g := installCommitGuard(t)
	sc, err := scenario.ParseFile(filepath.Join("..", "..", "scenarios", "quickstart.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	res := scenario.RunHooked(sc, scenario.Hooks{
		AfterEvent: func(st *stack.Stack, ev *scenario.Event) error {
			if ev.Action == "start_fleet" {
				st.Cluster.Client.Watch(k8s.KindPod, k8s.WatchOptions{}, func(ev k8s.Event) {
					ev.Object.(*k8s.Pod).Status.Message = "handler wrote here"
				})
			}
			return nil
		},
	})
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	found, _ := g.finish()
	if len(found) == 0 {
		t.Fatal("mutating handler not caught by the commit guard")
	}
	for _, f := range found {
		if !strings.HasPrefix(f, "Pod ") {
			t.Errorf("guard blamed a kind the handler never touched: %s", f)
		}
	}
}
