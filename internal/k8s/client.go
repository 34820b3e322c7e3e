package k8s

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// IndexFunc computes the index values an object is filed under. Returning
// nil leaves the object out of the index.
type IndexFunc func(Object) []string

// Built-in index names. Consumers register further indexes per informer
// (e.g. vniapi's VNIs-by-job index).
const (
	// IndexPodJob files pods under "namespace/job-name" (the job-name
	// label the job controller stamps on its pods).
	IndexPodJob = "pod-job"
	// IndexOwner files objects under their OwnerUID.
	IndexOwner = "owner"
)

// PodJobIndex is the IndexFunc behind IndexPodJob.
func PodJobIndex(obj Object) []string {
	p, ok := obj.(*Pod)
	if !ok {
		return nil
	}
	job := p.Meta.Labels["job-name"]
	if job == "" {
		return nil
	}
	return []string{p.Meta.Namespace + "/" + job}
}

// OwnerIndex is the IndexFunc behind IndexOwner.
func OwnerIndex(obj Object) []string {
	if uid := obj.GetMeta().OwnerUID; uid != "" {
		return []string{string(uid)}
	}
	return nil
}

// WatchOptions scope a watch registration. The zero value watches the whole
// kind, like the raw APIServer.Watch broadcast.
type WatchOptions struct {
	// Namespace restricts delivery to one namespace ("" = all).
	Namespace string
	// Selector, when non-nil, must admit the event object. Like handlers,
	// it sees the shared committed object and must not mutate it.
	Selector func(Object) bool
}

func (o WatchOptions) matches(obj Object) bool {
	if o.Namespace != "" && obj.GetMeta().Namespace != o.Namespace {
		return false
	}
	return o.Selector == nil || o.Selector(obj)
}

type watchReg struct {
	opts    WatchOptions
	handler func(Event)
}

type informerIndex struct {
	fn IndexFunc
	// buckets maps index value -> object key -> cached object.
	buckets map[string]map[string]Object
	// keyVals remembers the values each key was filed under, so updates
	// can unfile the previous state without recomputing it.
	keyVals map[string][]string
}

func (ix *informerIndex) remove(key string) {
	for _, v := range ix.keyVals[key] {
		if b := ix.buckets[v]; b != nil {
			delete(b, key)
			if len(b) == 0 {
				delete(ix.buckets, v)
			}
		}
	}
	delete(ix.keyVals, key)
}

func (ix *informerIndex) add(key string, obj Object) {
	vals := ix.fn(obj)
	if len(vals) == 0 {
		return
	}
	ix.keyVals[key] = vals
	for _, v := range vals {
		b := ix.buckets[v]
		if b == nil {
			b = make(map[string]Object)
			ix.buckets[v] = b
		}
		b[key] = obj
	}
}

// Informer maintains a local cache of one kind, fed by the API server's
// watch stream, plus named indexes over that cache. The cache lags the
// store by at most the watch-delivery latency; event handlers registered
// through Client.Watch run after the cache (and every index) has absorbed
// the event, so a handler reading through a Lister always sees at least the
// state that triggered it — the ordering real shared informers guarantee.
type Informer struct {
	api      *APIServer
	kind     Kind
	objs     map[string]Object
	byNS     map[string]map[string]Object
	indexes  map[string]*informerIndex
	handlers []*watchReg
	// upstream is this informer's registration with the apiserver, kept so
	// a relist can repair its own severed stream.
	upstream *watcher
	// lastSeq is the per-kind commit sequence of the last absorbed watch
	// event (or the relist horizon); probeSeq is lastSeq at the previous
	// prober tick, so the prober can tell a lagging stream from a dead one.
	lastSeq  uint64
	probeSeq uint64
	// hasGap/gapSince track how long the cache has been behind the store
	// without the stream making progress.
	hasGap   bool
	gapSince sim.Time
	// stale marks the window between gap detection and repair; lister reads
	// in that window are counted as stale.
	stale        bool
	relists      uint64
	staleReads   uint64
	maxStaleness sim.Duration
}

func newInformer(api *APIServer, kind Kind) *Informer {
	inf := &Informer{
		api:     api,
		kind:    kind,
		objs:    make(map[string]Object),
		byNS:    make(map[string]map[string]Object),
		indexes: make(map[string]*informerIndex),
		lastSeq: api.kindSeq[kind],
	}
	// Initial LIST: seed the cache from the store synchronously so an
	// informer created after objects already exist starts warm. Committed
	// objects are immutable, so the cache shares them with the store.
	for key, obj := range api.store(kind) {
		inf.apply(key, obj)
	}
	inf.upstream = api.watch(kind, inf.onEvent)
	return inf
}

// AddIndex registers (idempotently) a named index and backfills it from the
// current cache. Registering the same name twice is a no-op, so independent
// consumers can each declare the indexes they need.
func (inf *Informer) AddIndex(name string, fn IndexFunc) {
	if _, ok := inf.indexes[name]; ok {
		return
	}
	ix := &informerIndex{
		fn:      fn,
		buckets: make(map[string]map[string]Object),
		keyVals: make(map[string][]string),
	}
	inf.indexes[name] = ix
	for key, obj := range inf.objs {
		ix.add(key, obj)
	}
}

// Lister returns the read view over this informer's cache.
func (inf *Informer) Lister() Lister { return Lister{inf: inf} }

func (inf *Informer) apply(key string, obj Object) {
	inf.remove(key)
	inf.objs[key] = obj
	ns := obj.GetMeta().Namespace
	b := inf.byNS[ns]
	if b == nil {
		b = make(map[string]Object)
		inf.byNS[ns] = b
	}
	b[key] = obj
	for _, ix := range inf.indexes {
		ix.add(key, obj)
	}
}

func (inf *Informer) remove(key string) {
	old, ok := inf.objs[key]
	if !ok {
		return
	}
	delete(inf.objs, key)
	ns := old.GetMeta().Namespace
	if b := inf.byNS[ns]; b != nil {
		delete(b, key)
		if len(b) == 0 {
			delete(inf.byNS, ns)
		}
	}
	for _, ix := range inf.indexes {
		ix.remove(key)
	}
}

// onEvent absorbs one watch event into the cache, then dispatches it to
// matching handlers.
func (inf *Informer) onEvent(ev Event) {
	if ev.Seq != 0 && ev.Seq <= inf.lastSeq {
		// An in-flight delivery from before a relist: its effect is already
		// in the snapshot the relist rebuilt and replayed. Drop it.
		return
	}
	inf.lastSeq = ev.Seq
	key := ev.Object.GetMeta().Key()
	switch ev.Type {
	case EventDeleted:
		inf.remove(key)
	default:
		inf.apply(key, ev.Object)
	}
	inf.dispatch(ev)
}

// dispatch fans one event out to matching handlers. Every handler gets the
// same committed object the store and the cache hold: handlers treat it as
// read-only, like lister results, and DeepCopy it before mutating or
// retaining it.
func (inf *Informer) dispatch(ev Event) {
	for _, reg := range inf.handlers {
		if reg.opts.matches(ev.Object) {
			reg.handler(ev)
		}
	}
}

// relist rebuilds the cache from a fresh store snapshot and replays the
// diff to handlers — the informer resync path behind a broken or stalled
// watch. The new cache (objects, per-namespace view, every index) is built
// completely and swapped in atomically before any handler runs, so
// handlers and listers never observe a half-updated view; the replayed
// events then re-deliver the missed changes in sorted key order.
func (inf *Informer) relist() {
	inf.relists++
	if inf.upstream.broken {
		inf.api.resumeWatch(inf.upstream)
	}
	if t, ok := inf.api.takeFirstMissed(inf.kind); ok {
		if d := inf.api.eng.Now().Sub(t); d > inf.maxStaleness {
			inf.maxStaleness = d
		}
	}
	horizon := inf.api.kindSeq[inf.kind]

	old := inf.objs
	objs := make(map[string]Object, len(old))
	byNS := make(map[string]map[string]Object)
	indexes := make(map[string]*informerIndex, len(inf.indexes))
	for name, ix := range inf.indexes {
		indexes[name] = &informerIndex{
			fn:      ix.fn,
			buckets: make(map[string]map[string]Object),
			keyVals: make(map[string][]string),
		}
	}
	for key, obj := range inf.api.store(inf.kind) {
		objs[key] = obj
		ns := obj.GetMeta().Namespace
		b := byNS[ns]
		if b == nil {
			b = make(map[string]Object)
			byNS[ns] = b
		}
		b[key] = obj
		for _, ix := range indexes {
			ix.add(key, obj)
		}
	}
	inf.objs, inf.byNS, inf.indexes = objs, byNS, indexes
	inf.lastSeq = horizon
	inf.probeSeq = horizon
	inf.stale = false
	inf.hasGap = false

	// Replay: synthesize the diff between the old cache and the snapshot.
	keys := make([]string, 0, len(old)+len(objs))
	for k := range old {
		keys = append(keys, k)
	}
	for k := range objs {
		if _, dup := old[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		oldObj, hadOld := old[key]
		newObj, hasNew := objs[key]
		switch {
		case hadOld && !hasNew:
			inf.dispatch(Event{Type: EventDeleted, Object: oldObj, Seq: horizon})
		case !hadOld && hasNew:
			inf.dispatch(Event{Type: EventAdded, Object: newObj, Seq: horizon})
		case oldObj.GetMeta().ResourceVersion != newObj.GetMeta().ResourceVersion:
			inf.dispatch(Event{Type: EventModified, Object: newObj, Seq: horizon})
		}
	}
}

// noteRead counts lister reads served while the cache is known stale.
func (inf *Informer) noteRead() {
	if inf.stale {
		inf.staleReads++
	}
}

// Lister is a cached, index-capable read view over one kind. Returned
// objects are the committed objects the store, the cache and watch
// handlers share: treat them as read-only, like client-go lister results.
// Reads cost no API round trip and no deep copy.
type Lister struct {
	inf *Informer
}

// Get returns the cached object, if present. Read-only.
func (l Lister) Get(namespace, name string) (Object, bool) {
	l.inf.noteRead()
	obj, ok := l.inf.objs[namespace+"/"+name]
	return obj, ok
}

// List returns the cached objects of the namespace ("" = all) in key order.
// Read-only.
func (l Lister) List(namespace string) []Object {
	l.inf.noteRead()
	var src map[string]Object
	if namespace == "" {
		src = l.inf.objs
	} else {
		src = l.inf.byNS[namespace]
	}
	return sortedValues(src)
}

// ByIndex returns the cached objects filed under value in the named index,
// in key order. Read-only. O(match), not O(all objects).
func (l Lister) ByIndex(name, value string) []Object {
	l.inf.noteRead()
	ix, ok := l.inf.indexes[name]
	if !ok {
		panic(fmt.Sprintf("k8s: lister for %s: index %q not registered", l.inf.kind, name))
	}
	return sortedValues(ix.buckets[value])
}

// IndexCount reports how many cached objects are filed under value — the
// allocation-free form of len(ByIndex(...)).
func (l Lister) IndexCount(name, value string) int {
	l.inf.noteRead()
	ix, ok := l.inf.indexes[name]
	if !ok {
		panic(fmt.Sprintf("k8s: lister for %s: index %q not registered", l.inf.kind, name))
	}
	return len(ix.buckets[value])
}

func sortedValues(src map[string]Object) []Object {
	if len(src) == 0 {
		return nil
	}
	keys := make([]string, 0, len(src))
	for k := range src {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Object, 0, len(keys))
	for _, k := range keys {
		out = append(out, src[k])
	}
	return out
}

// Client is the typed control-plane client: request-scoped writes with
// Response handles, live Gets, informer-backed listers with indexes, and
// filtered watch registration. One Client is shared per API server
// (APIServer.Client), so all consumers see the same caches.
type Client struct {
	api       *APIServer
	informers map[Kind]*Informer
	stats     CPStats
	// prober is the fault-recovery resync tick (EnableFaultRecovery).
	prober   sim.Event
	proberOn bool
}

func newClient(api *APIServer) *Client {
	return &Client{
		api:       api,
		informers: make(map[Kind]*Informer),
	}
}

// The client's retry policy, applied to every write. A request that fails
// with ErrUnavailable or ErrTimeout is reissued up to retryBudget times,
// after a backoff that starts at baseBackoff, doubles per retry up to
// maxBackoff and is jittered by backoffJitter (uniform fraction); the
// budget's total span (~4.4s) outlasts the outage windows the chaos
// scenarios inject. Once the fault layer is armed each attempt has
// requestDeadline to commit before it is dropped on the wire with
// ErrTimeout. While the layer is disarmed no write can fail transiently,
// so the policy arms no timer and draws no jitter, and a write behaves
// exactly like the bare server request.
const (
	retryBudget     = 10
	baseBackoff     = 20 * time.Millisecond
	maxBackoff      = 800 * time.Millisecond
	backoffJitter   = 0.5
	requestDeadline = 250 * time.Millisecond
)

// CPStats aggregates the control-plane fault-layer counters: retry-layer
// activity on the client plus relist/staleness counters from the shared
// informers.
type CPStats struct {
	// Retries counts reissues after ErrUnavailable/ErrTimeout.
	Retries uint64
	// Conflicts counts ErrConflict re-reads inside UpdateWithRetry.
	Conflicts uint64
	// Timeouts counts client-deadline expiries.
	Timeouts uint64
	// Exhausted counts requests that spent their whole retry budget.
	Exhausted uint64
	// Relists counts informer resyncs (relist-and-replay repairs).
	Relists uint64
	// StaleReads counts lister reads served between gap detection and
	// repair.
	StaleReads uint64
	// MaxStalenessUs is the longest observed cache staleness at repair
	// time: relist time minus the commit time of the oldest missed event.
	MaxStalenessUs float64
}

// Stats snapshots the fault-layer counters.
func (c *Client) Stats() CPStats {
	s := c.stats
	for _, inf := range c.informers {
		s.Relists += inf.relists
		s.StaleReads += inf.staleReads
		if us := float64(inf.maxStaleness.Microseconds()); us > s.MaxStalenessUs {
			s.MaxStalenessUs = us
		}
	}
	return s
}

// Engine exposes the simulation engine (the virtual clock all request and
// watch latencies run on).
func (c *Client) Engine() *sim.Engine { return c.api.eng }

// API exposes the underlying low-level store, for test rigs and migration
// shims. Controllers should not reach through it on hot paths.
func (c *Client) API() *APIServer { return c.api }

// Informer returns (creating on first use) the shared informer for kind.
func (c *Client) Informer(kind Kind) *Informer {
	inf, ok := c.informers[kind]
	if !ok {
		inf = newInformer(c.api, kind)
		c.informers[kind] = inf
	}
	return inf
}

// Lister returns the cached read view for kind.
func (c *Client) Lister(kind Kind) Lister { return c.Informer(kind).Lister() }

// Watch registers handler for events on kind scoped by opts. Handlers run
// after the shared informer cache has absorbed the event, in registration
// order, so lister reads from inside a handler always include the event.
// The event object is shared with the cache: read-only, like lister
// results.
func (c *Client) Watch(kind Kind, opts WatchOptions, handler func(Event)) {
	inf := c.Informer(kind)
	inf.handlers = append(inf.handlers, &watchReg{opts: opts, handler: handler})
}

// Get performs a live (quorum) read and returns the committed object,
// shared and read-only like lister results. A read-modify-write DeepCopies
// it before mutating, or uses UpdateWithRetry, which does.
func (c *Client) Get(kind Kind, namespace, name string) (Object, bool) {
	return c.api.Get(kind, namespace, name)
}

// Create submits obj; the Response completes after the API round trip.
// Like every Client write, it runs behind the retry policy.
func (c *Client) Create(obj Object) *Response {
	return c.retryWrite(func() *Response { return c.api.Create(obj) })
}

// Update submits a conflict-checked replacement of obj (see
// APIServer.Update for the ResourceVersion semantics). ErrConflict passes
// through; callers needing read-modify-write semantics use UpdateWithRetry.
func (c *Client) Update(obj Object) *Response {
	return c.retryWrite(func() *Response { return c.api.Update(obj) })
}

// Delete begins deletion of the named object.
func (c *Client) Delete(kind Kind, namespace, name string) *Response {
	return c.retryWrite(func() *Response { return c.api.Delete(kind, namespace, name) })
}

// RemoveFinalizer removes f from the named object. A finalizer removal
// dropped to an apiserver outage would wedge its object's deletion
// forever, which is why it too retries.
func (c *Client) RemoveFinalizer(kind Kind, namespace, name, f string) *Response {
	return c.retryWrite(func() *Response { return c.api.RemoveFinalizer(kind, namespace, name, f) })
}

// UpdateStatus applies fn to a DeepCopy of the stored object and
// commits it synchronously when fn reports a change — the node agents'
// cheap status write. On a healthy server the Response is complete on
// return; while the server is unavailable the write is queued behind the
// backoff. A missing object completes with ErrNotFound (the object was
// deleted; the status write is moot).
func (c *Client) UpdateStatus(kind Kind, namespace, name string, fn func(Object) bool) *Response {
	return c.retryWrite(func() *Response {
		r := &Response{}
		switch err := c.api.admitWrite(); {
		case err != nil:
			r.complete(err)
		case !c.api.UpdateStatus(kind, namespace, name, fn):
			r.complete(fmt.Errorf("%w: %s %s/%s", ErrNotFound, kind, namespace, name))
		default:
			r.complete(nil)
		}
		return r
	})
}

// withDeadline arms a client-side deadline on an in-flight request once
// the fault layer is armed: if the request has not completed when the
// deadline fires, the pending server commit is cancelled (the request is
// dropped on the wire, never half-applied) and the Response fails with
// ErrTimeout. Fault-free sessions never arm timers, keeping their event
// streams byte-identical.
func (c *Client) withDeadline(r *Response) *Response {
	if r.completed || !c.api.FaultsArmed() {
		return r
	}
	t := c.api.eng.After(requestDeadline, func() { r.abandon(ErrTimeout) })
	r.Done(func(error) { t.Cancel() })
	return r
}

// backoffDelay draws one jittered backoff interval.
func (c *Client) backoffDelay(d sim.Duration) sim.Duration {
	return c.api.eng.Jitter(min(d, maxBackoff), backoffJitter)
}

// retryWrite issues issue() under the deadline, and on unavailability or
// timeout reissues it after a jittered exponential backoff until the retry
// budget is spent, then completes the returned Response with
// ErrRetriesExhausted wrapping the final error. Non-transient errors pass
// through unchanged.
func (c *Client) retryWrite(issue func() *Response) *Response {
	w := &retryingWrite{c: c, issue: issue, left: retryBudget, backoff: baseBackoff}
	w.attempt()
	return &w.resp
}

// retryingWrite is one write under the retry policy. Its attempts share
// one allocation, which also holds the Response the caller gets.
type retryingWrite struct {
	c       *Client
	issue   func() *Response
	resp    Response
	left    int
	backoff sim.Duration
}

func (w *retryingWrite) attempt() { w.c.withDeadline(w.issue()).Done(w.done) }

func (w *retryingWrite) done(err error) {
	c := w.c
	if err == nil || !retriable(err) {
		w.resp.complete(err)
		return
	}
	if errors.Is(err, ErrTimeout) {
		c.stats.Timeouts++
	}
	if w.left <= 0 {
		c.stats.Exhausted++
		w.resp.complete(fmt.Errorf("%w: %w", ErrRetriesExhausted, err))
		return
	}
	c.stats.Retries++
	delay := c.backoffDelay(w.backoff)
	w.left--
	w.backoff = min(w.backoff*2, maxBackoff)
	c.api.eng.After(delay, w.attempt)
}

// maxUpdateRetries bounds UpdateWithRetry's consecutive-conflict cap; in a
// single-threaded simulation more than a handful of consecutive conflicts
// on one object indicates a logic error.
const maxUpdateRetries = 16

// UpdateWithRetry is the Patch-style read-modify-write helper: it Gets the
// latest object, applies mutate to a DeepCopy of it, and Updates with the
// fresh ResourceVersion; on ErrConflict it re-reads and retries —
// immediately on the first conflict (the common lost-race case), behind a
// jittered exponential backoff on consecutive conflicts, and never more
// than maxUpdateRetries times before failing with ErrRetriesExhausted.
// Unavailability and timeouts are retried under the client's retry budget.
// mutate returning false skips the write and completes the Response with
// nil (nothing to do). mutate may be called several times and must
// therefore be idempotent against the object it is handed. It may write
// that copy freely, except Annotations and Labels, which it replaces
// (Meta.SetAnnotation) because the copy shares them.
func (c *Client) UpdateWithRetry(kind Kind, namespace, name string, mutate func(Object) bool) *Response {
	resp := &Response{}
	var attempt func(conflicts, budget int, backoff sim.Duration)
	attempt = func(conflicts, budget int, backoff sim.Duration) {
		cur, ok := c.api.Get(kind, namespace, name)
		if !ok {
			resp.complete(fmt.Errorf("%w: %s %s/%s", ErrNotFound, kind, namespace, name))
			return
		}
		obj := cur.DeepCopy()
		if !mutate(obj) {
			resp.complete(nil)
			return
		}
		c.withDeadline(c.api.Update(obj)).Done(func(err error) {
			switch {
			case err == nil:
				resp.complete(nil)
			case errors.Is(err, ErrConflict):
				c.stats.Conflicts++
				if conflicts >= maxUpdateRetries {
					c.stats.Exhausted++
					resp.complete(fmt.Errorf("%w: %w", ErrRetriesExhausted, err))
					return
				}
				if conflicts == 0 || !c.api.FaultsArmed() {
					// Immediate re-read: the common lost-race case — and
					// the only conflict path while the fault layer is
					// unarmed, so fault-free timelines draw no backoff
					// jitter and stay byte-identical.
					attempt(conflicts+1, budget, backoff)
					return
				}
				c.api.eng.After(c.backoffDelay(backoff), func() {
					attempt(conflicts+1, budget, min(backoff*2, maxBackoff))
				})
			case retriable(err):
				if errors.Is(err, ErrTimeout) {
					c.stats.Timeouts++
				}
				if budget <= 0 {
					c.stats.Exhausted++
					resp.complete(fmt.Errorf("%w: %w", ErrRetriesExhausted, err))
					return
				}
				c.stats.Retries++
				c.api.eng.After(c.backoffDelay(backoff), func() {
					attempt(conflicts, budget-1, min(backoff*2, maxBackoff))
				})
			default:
				resp.complete(err)
			}
		})
	}
	attempt(0, retryBudget, baseBackoff)
	return resp
}

// resyncInterval is the fault-recovery prober period: how often informer
// caches are checked for watch gaps. Detection latency for a dead stream
// is at most two periods.
const resyncInterval = 100 * time.Millisecond

// EnableFaultRecovery starts the informer resync prober: a fixed tick that
// detects broken or stalled watch streams via per-kind sequence gaps and
// repairs them by relist-and-replay. Idempotent. The scenario layer arms
// it when the first control-plane fault event executes, so fault-free runs
// schedule no tick.
func (c *Client) EnableFaultRecovery() {
	if c.proberOn {
		return
	}
	c.proberOn = true
	c.prober = c.api.eng.After(resyncInterval, c.probeTick)
}

// StopFaultRecovery stops the prober and performs one final repair sweep:
// any informer still behind the store (severed stream or undelivered gap)
// is relisted, so post-run drains converge deterministically. Safe to call
// when never enabled.
func (c *Client) StopFaultRecovery() {
	if !c.proberOn {
		return
	}
	c.proberOn = false
	c.prober.Cancel()
	for _, kind := range c.sortedKinds() {
		inf := c.informers[kind]
		if inf.upstream.broken || c.api.kindSeq[kind] > inf.lastSeq {
			inf.relist()
		}
	}
}

func (c *Client) sortedKinds() []Kind {
	kinds := make([]Kind, 0, len(c.informers))
	for k := range c.informers {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

func (c *Client) probeTick() {
	if !c.proberOn {
		return
	}
	now := c.api.eng.Now()
	for _, kind := range c.sortedKinds() {
		inf := c.informers[kind]
		gap := c.api.kindSeq[kind] > inf.lastSeq
		switch {
		case !gap:
			inf.stale = false
			inf.hasGap = false
		case !inf.hasGap || inf.lastSeq != inf.probeSeq:
			// New gap, or the stream moved since the last probe: it may
			// just be delivery lag. Mark stale, restart the clock.
			inf.hasGap = true
			inf.gapSince = now
			inf.stale = true
		case now.Sub(inf.gapSince) >= resyncInterval:
			// The gap persisted a full period with zero progress: the
			// stream is severed or stalled. Relist.
			inf.relist()
		}
		inf.probeSeq = inf.lastSeq
	}
	c.prober = c.api.eng.After(resyncInterval, c.probeTick)
}

// VerifyCaches compares every informer cache against the live store: same
// key sets, same per-key ResourceVersions, deep-equal objects. A converged
// cache shares each committed object with the store, so this cannot see a
// caller mutating a shared object; the package's commit-guard test covers
// that. It returns
// nil when every cache has fully converged — the post-drain
// eventual-convergence check behind the fuzzer invariant and the
// cp_converged assertion.
func (c *Client) VerifyCaches() error {
	for _, kind := range c.sortedKinds() {
		inf := c.informers[kind]
		store := c.api.store(kind)
		if len(inf.objs) != len(store) {
			return fmt.Errorf("k8s: %s cache has %d objects, store has %d",
				kind, len(inf.objs), len(store))
		}
		keys := make([]string, 0, len(store))
		for k := range store {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, key := range keys {
			cached, ok := inf.objs[key]
			if !ok {
				return fmt.Errorf("k8s: %s cache missing %s", kind, key)
			}
			crv, srv := cached.GetMeta().ResourceVersion, store[key].GetMeta().ResourceVersion
			if crv != srv {
				return fmt.Errorf("k8s: %s cache stale at %s (cached rv %d, stored %d)",
					kind, key, crv, srv)
			}
			if !reflect.DeepEqual(cached, store[key]) {
				return fmt.Errorf("k8s: %s cache diverged at %s (equal rv %d)", kind, key, crv)
			}
		}
	}
	return nil
}
