package k8s

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// Errors returned by the API server.
var (
	ErrNotFound      = errors.New("k8s: object not found")
	ErrAlreadyExists = errors.New("k8s: object already exists")
	ErrTerminating   = errors.New("k8s: object is terminating")
	// ErrConflict is returned by Update when the caller's ResourceVersion
	// is non-zero and no longer matches the stored object: another writer
	// committed in between. Re-read and retry (Client.UpdateWithRetry).
	ErrConflict = errors.New("k8s: resource version conflict")
	// ErrPending is returned by Response.Err while the request is still in
	// flight in virtual time.
	ErrPending = errors.New("k8s: request still in flight")
	// ErrUnavailable is returned by writes while the apiserver is in a full
	// outage, and with the configured per-request probability while it is
	// degraded. Retriable: the retrying client helpers back off and reissue.
	ErrUnavailable = errors.New("k8s: apiserver unavailable")
	// ErrTimeout is returned when a request's client-side deadline fires
	// before the server commits; the pending commit is cancelled, so a timed
	// out request is dropped, never half-applied. Retriable.
	ErrTimeout = errors.New("k8s: request deadline exceeded")
	// ErrRetriesExhausted is returned by the retrying client helpers when
	// the conflict cap or the unavailability retry budget is spent. It wraps
	// the final underlying error, so errors.Is works on both.
	ErrRetriesExhausted = errors.New("k8s: retries exhausted")
)

// retriable reports whether err is a transient control-plane failure the
// retry layer should back off and reissue on.
func retriable(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrTimeout)
}

// Response is the handle returned by every API write. The request completes
// after the API round-trip latency in virtual time; callbacks registered
// with Done run at completion (immediately when already complete).
type Response struct {
	err       error
	completed bool
	// cb is the first Done callback and more the rest, in registration
	// order: most requests have one callback, which then costs no slice.
	cb   func(error)
	more []func(error)
	// pending is the queued server-side commit event, tracked so a
	// client-side deadline can drop the request while it is on the wire.
	pending    sim.Event
	hasPending bool
}

// track records the queued server commit so abandon can cancel it.
func (r *Response) track(ev sim.Event) *Response {
	r.pending, r.hasPending = ev, true
	return r
}

// abandon fails an in-flight request with err, cancelling the pending
// server commit if it has not run yet — the client-deadline path. A request
// that already completed is left untouched.
func (r *Response) abandon(err error) {
	if r.completed {
		return
	}
	if r.hasPending {
		r.pending.Cancel()
	}
	r.complete(err)
}

func (r *Response) complete(err error) {
	if r.completed {
		return
	}
	r.completed = true
	r.err = err
	cb, more := r.cb, r.more
	r.cb, r.more = nil, nil
	if cb != nil {
		cb(err)
	}
	for _, cb := range more {
		cb(err)
	}
}

// Done registers fn to run when the request completes; it returns r so a
// call site can both register and keep the handle. If the request already
// completed, fn runs synchronously.
func (r *Response) Done(fn func(error)) *Response {
	switch {
	case r.completed:
		fn(r.err)
	case r.cb == nil:
		r.cb = fn
	default:
		r.more = append(r.more, fn)
	}
	return r
}

// Completed reports whether the request has finished.
func (r *Response) Completed() bool { return r.completed }

// Err returns the request outcome, or ErrPending while still in flight.
func (r *Response) Err() error {
	if !r.completed {
		return ErrPending
	}
	return r.err
}

// APILatency models the control-plane processing costs that dominate the
// paper's admission-delay baseline.
type APILatency struct {
	// Request is per-API-call processing (admission chain, etcd write).
	Request sim.Duration
	// WatchDelivery is the lag between a commit and watcher notification.
	WatchDelivery sim.Duration
	// Jitter is the uniform fraction applied to both.
	Jitter float64
}

// DefaultAPILatency is calibrated against a small k3s deployment.
func DefaultAPILatency() APILatency {
	return APILatency{
		Request:       6 * time.Millisecond,
		WatchDelivery: 25 * time.Millisecond,
		Jitter:        0.35,
	}
}

// Availability is the apiserver's health state under the fault model.
type Availability int

// Availability states.
const (
	// AvailUp is normal operation (the only state until a fault event arms
	// the layer).
	AvailUp Availability = iota
	// AvailDegraded elevates request latency by a factor and fails each
	// write independently with a configured probability.
	AvailDegraded
	// AvailDown fails every write with ErrUnavailable. Reads and status
	// queries keep working (served from the HA watch cache); watch
	// deliveries for events committed before the outage still drain.
	AvailDown
)

// String names the availability state.
func (a Availability) String() string {
	switch a {
	case AvailDegraded:
		return "degraded"
	case AvailDown:
		return "down"
	default:
		return "up"
	}
}

// apiFaults holds the fault-layer state. It is nil until the first fault
// call arms the layer, so fault-free runs take no extra RNG draws and
// schedule no extra events — their timelines stay byte-identical.
type apiFaults struct {
	state     Availability
	latFactor float64
	errProb   float64
	// firstMissed records, per kind, the commit time of the oldest event a
	// broken watch dropped — the zero point for staleness measurement,
	// cleared when the informer relists.
	firstMissed map[Kind]sim.Time
	// loseWrites counts writes per kind to silently lose (commit without a
	// watch event or sequence bump) — the debug hook the fuzzer's
	// eventual-convergence invariant self-tests against.
	loseWrites map[Kind]int
}

type watcher struct {
	kind    Kind
	handler func(Event)
	// next is the earliest time the next event may be delivered to this
	// watcher. It makes delivery FIFO per watcher: events for one watcher
	// arrive in commit order even though each draws independent jitter.
	next sim.Time
	// broken marks a silently severed stream: deliveries are dropped (not
	// queued) until the watcher re-subscribes (informers: via relist).
	broken bool
	// pending tracks queued delivery timers by commit sequence so
	// CancelPendingDeliveries can drop them at end of run.
	pending map[uint64]sim.Event
}

// APIServer is the cluster state store. All mutation goes through it; all
// controllers react to its watch events. It is single-threaded on the
// simulation engine.
//
// This is the low-level surface. Controllers and tools should consume the
// typed facade returned by Client(), which adds informer-backed listers,
// indexes and filtered watch registration on top.
type APIServer struct {
	eng      *sim.Engine
	lat      APILatency
	stores   map[Kind]map[string]Object
	watchers []*watcher
	nextUID  int
	// rev is the global commit revision; every write stamps the stored
	// object's Meta.ResourceVersion with a fresh value.
	rev int64
	// cli is the lazily created shared client (one informer cache set per
	// API server, like a shared informer factory).
	cli *Client
	// kindSeq is the per-kind commit sequence: bumped once per committed
	// write, deletes included — dense per kind (ResourceVersion is global),
	// which is what makes watch-gap detection cheap.
	kindSeq map[Kind]uint64
	// faults is nil until the first fault call arms the layer.
	faults *apiFaults
	// children is the owner index: owner UID -> the stored objects naming
	// it as OwnerUID, so orphan GC visits only a dead owner's children.
	// Maintained by commit; nil until the first owned object is stored.
	children map[UID][]objRef
}

// objRef names a stored object for the owner index.
type objRef struct {
	kind     Kind
	ns, name string
}

// commitObserver, when non-nil, sees every store-slot change: prev is the
// object replaced or removed (nil on create), next the object installed
// (nil on delete). Tests set it to check that committed objects are never
// mutated.
var commitObserver func(prev, next Object)

// NewAPIServer creates an empty API server.
func NewAPIServer(eng *sim.Engine, lat APILatency) *APIServer {
	return &APIServer{
		eng:     eng,
		lat:     lat,
		stores:  make(map[Kind]map[string]Object),
		kindSeq: make(map[Kind]uint64),
	}
}

// Engine exposes the simulation engine to controllers.
func (a *APIServer) Engine() *sim.Engine { return a.eng }

// Client returns the shared typed client for this API server. All callers
// get the same instance, so informer caches and indexes are shared.
func (a *APIServer) Client() *Client {
	if a.cli == nil {
		a.cli = newClient(a)
	}
	return a.cli
}

func (a *APIServer) store(kind Kind) map[string]Object {
	s, ok := a.stores[kind]
	if !ok {
		s = make(map[string]Object)
		a.stores[kind] = s
	}
	return s
}

func (a *APIServer) reqDelay() sim.Duration {
	d := a.lat.Request
	if a.faults != nil && a.faults.state == AvailDegraded && a.faults.latFactor > 1 {
		d = sim.Duration(float64(d) * a.faults.latFactor)
	}
	return a.eng.Jitter(d, a.lat.Jitter)
}

// armFaults lazily creates the fault-layer state. Once armed it stays
// armed: client deadlines apply from here on, even after recovery.
func (a *APIServer) armFaults() *apiFaults {
	if a.faults == nil {
		a.faults = &apiFaults{
			latFactor:   1,
			firstMissed: make(map[Kind]sim.Time),
			loseWrites:  make(map[Kind]int),
		}
	}
	return a.faults
}

// FailAPIServer begins a full outage: every write fails with
// ErrUnavailable until RecoverAPIServer. Reads and queued watch deliveries
// keep working (the watch cache is modelled as highly available).
func (a *APIServer) FailAPIServer() {
	f := a.armFaults()
	f.state, f.latFactor, f.errProb = AvailDown, 1, 0
}

// DegradeAPIServer enters degraded mode: request latency is multiplied by
// latFactor (clamped to ≥ 1) and each write independently fails with
// probability errProb (clamped to [0, 1]).
func (a *APIServer) DegradeAPIServer(latFactor, errProb float64) {
	if latFactor < 1 {
		latFactor = 1
	}
	errProb = max(0, min(1, errProb))
	f := a.armFaults()
	f.state, f.latFactor, f.errProb = AvailDegraded, latFactor, errProb
}

// RecoverAPIServer returns the apiserver to normal operation. The fault
// layer stays armed (deadlines remain in force) but no further requests
// fail or slow down.
func (a *APIServer) RecoverAPIServer() {
	f := a.armFaults()
	f.state, f.latFactor, f.errProb = AvailUp, 1, 0
}

// Availability reports the current health state.
func (a *APIServer) Availability() Availability {
	if a.faults == nil {
		return AvailUp
	}
	return a.faults.state
}

// FaultsArmed reports whether any fault call has armed the layer. Client
// deadlines and resync probing key off this so fault-free runs schedule
// nothing extra.
func (a *APIServer) FaultsArmed() bool { return a.faults != nil }

// BreakWatch silently severs every current watch stream on kind: the
// watchers stay registered but their deliveries are dropped (not queued)
// until the stream is repaired — for informers, by the automatic
// relist-and-replay in the client's fault-recovery prober. Returns the
// number of streams broken.
func (a *APIServer) BreakWatch(kind Kind) int {
	a.armFaults()
	n := 0
	for _, w := range a.watchers {
		if w.kind == kind && !w.broken {
			w.broken = true
			n++
		}
	}
	return n
}

// SetDebugLoseWrite arranges for the next n writes on kind to commit
// without a watch notification or sequence bump — a true lost write,
// invisible to gap detection. Test/fuzz hook only: the eventual-convergence
// invariant self-tests that it would catch such a bug.
func (a *APIServer) SetDebugLoseWrite(kind Kind, n int) {
	a.armFaults().loseWrites[kind] = n
}

// admitWrite decides whether a write that finished its round trip commits.
// Down: every write fails. Degraded: each write independently fails with
// errProb, drawn from the engine RNG only in degraded mode so fault-free
// timelines draw nothing extra.
func (a *APIServer) admitWrite() error {
	if a.faults == nil {
		return nil
	}
	switch a.faults.state {
	case AvailDown:
		return ErrUnavailable
	case AvailDegraded:
		if a.faults.errProb > 0 && a.eng.Rand().Float64() < a.faults.errProb {
			return ErrUnavailable
		}
	}
	return nil
}

// KindSeq returns the per-kind commit sequence number.
func (a *APIServer) KindSeq(kind Kind) uint64 { return a.kindSeq[kind] }

// resumeWatch repairs a severed stream; deliveries resume with the next
// commit. The informer relist path calls this before snapshotting.
func (a *APIServer) resumeWatch(w *watcher) { w.broken = false }

// takeFirstMissed returns and clears the commit time of the oldest event a
// broken watch on kind dropped, if any.
func (a *APIServer) takeFirstMissed(kind Kind) (sim.Time, bool) {
	if a.faults == nil {
		return 0, false
	}
	t, ok := a.faults.firstMissed[kind]
	if ok {
		delete(a.faults.firstMissed, kind)
	}
	return t, ok
}

func (a *APIServer) notify(t EventType, obj Object) {
	kind := obj.GetMeta().Kind
	if a.faults != nil && a.faults.loseWrites[kind] > 0 {
		// Debug lost write: the commit stands but the watch timeline never
		// hears of it — no sequence bump, no deliveries.
		a.faults.loseWrites[kind]--
		return
	}
	a.kindSeq[kind]++
	seq := a.kindSeq[kind]
	for _, w := range a.watchers {
		if w.kind != kind {
			continue
		}
		if w.broken {
			if _, ok := a.faults.firstMissed[kind]; !ok {
				a.faults.firstMissed[kind] = a.eng.Now()
			}
			continue
		}
		w := w
		at := a.eng.Now().Add(a.eng.Jitter(a.lat.WatchDelivery, a.lat.Jitter))
		if at < w.next {
			at = w.next
		}
		w.next = at
		// obj is committed, hence immutable: every watcher shares it.
		w.pending[seq] = a.eng.At(at, func() {
			delete(w.pending, seq)
			w.handler(Event{Type: t, Object: obj, Seq: seq})
		})
	}
}

// CancelPendingDeliveries cancels every queued watch delivery timer and
// returns how many were dropped. End-of-run teardown only: queued
// deliveries otherwise hold RunUntilDone open after the last object is
// deleted (the control-plane mirror of the kubelet exit-timer fix).
func (a *APIServer) CancelPendingDeliveries() int {
	n := 0
	for _, w := range a.watchers {
		for seq, ev := range w.pending {
			ev.Cancel()
			delete(w.pending, seq)
			n++
		}
	}
	return n
}

// Watch registers handler for all events on kind. Handlers run in virtual
// time, after the watch-delivery latency; one watcher sees events in commit
// order. Event objects are the shared committed objects: read-only. This
// is the raw per-kind broadcast — controllers should prefer
// Client.Watch, which shares one upstream watcher per kind and supports
// namespace/selector filtering.
func (a *APIServer) Watch(kind Kind, handler func(Event)) {
	a.watch(kind, handler)
}

// watch is Watch returning the registration handle, so the informer can
// repair its own stream after a break.
func (a *APIServer) watch(kind Kind, handler func(Event)) *watcher {
	w := &watcher{kind: kind, handler: handler, pending: make(map[uint64]sim.Event)}
	a.watchers = append(a.watchers, w)
	return w
}

// Create stores a new object, assigning its UID, creation time and first
// resource version. The returned Response completes after the API round
// trip.
func (a *APIServer) Create(obj Object) *Response {
	resp := &Response{}
	resp.track(a.eng.After(a.reqDelay(), func() {
		if err := a.admitWrite(); err != nil {
			resp.complete(err)
			return
		}
		m := obj.GetMeta()
		key := m.Key()
		s := a.store(m.Kind)
		if _, exists := s[key]; exists {
			resp.complete(fmt.Errorf("%w: %s %s", ErrAlreadyExists, m.Kind, key))
			return
		}
		a.nextUID++
		m.UID = UID(fmt.Sprintf("uid-%06d", a.nextUID))
		m.Created = a.eng.Now()
		a.rev++
		m.ResourceVersion = a.rev
		stored := obj.DeepCopy()
		a.commit(s, key, nil, stored)
		a.notify(EventAdded, stored)
		resp.complete(nil)
	}))
	return resp
}

// Get returns the committed object, synchronously (a live quorum read; for
// cached, index-capable reads use a Lister). The object is shared with the
// store, the informer caches and watch handlers: read-only. DeepCopy it
// before mutating it.
func (a *APIServer) Get(kind Kind, namespace, name string) (Object, bool) {
	obj, ok := a.store(kind)[namespace+"/"+name]
	return obj, ok
}

// List returns the committed objects of kind, in key order; like Get's
// result, each is shared and read-only. Empty namespace lists across
// namespaces. This is the O(all-objects) scan; hot paths should read
// through an informer-backed Lister instead.
func (a *APIServer) List(kind Kind, namespace string) []Object {
	s := a.store(kind)
	keys := make([]string, 0, len(s))
	for k, obj := range s {
		if namespace != "" && obj.GetMeta().Namespace != namespace {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Object, 0, len(keys))
	for _, k := range keys {
		out = append(out, s[k])
	}
	return out
}

// Update replaces the stored object (by kind/namespace/name), preserving
// UID and creation time. When the caller's ResourceVersion is non-zero and
// stale the update fails with ErrConflict; zero skips the precondition.
func (a *APIServer) Update(obj Object) *Response {
	resp := &Response{}
	cp := obj.DeepCopy()
	resp.track(a.eng.After(a.reqDelay(), func() {
		if err := a.admitWrite(); err != nil {
			resp.complete(err)
			return
		}
		m := cp.GetMeta()
		key := m.Key()
		s := a.store(m.Kind)
		old, ok := s[key]
		if !ok {
			resp.complete(fmt.Errorf("%w: %s %s", ErrNotFound, m.Kind, key))
			return
		}
		oldMeta := old.GetMeta()
		if m.ResourceVersion != 0 && m.ResourceVersion != oldMeta.ResourceVersion {
			resp.complete(fmt.Errorf("%w: %s %s (update at %d, stored %d)",
				ErrConflict, m.Kind, key, m.ResourceVersion, oldMeta.ResourceVersion))
			return
		}
		m.UID = oldMeta.UID
		m.Created = oldMeta.Created
		a.rev++
		m.ResourceVersion = a.rev
		a.commit(s, key, old, cp)
		a.notify(EventModified, cp)
		resp.complete(nil)
		// Finalizer removal may allow a pending deletion to complete.
		if m.Deleting && len(m.Finalizers) == 0 {
			a.finalizeDelete(m.Kind, key)
		}
	}))
	return resp
}

// Delete begins deletion. With finalizers present the object enters the
// terminating state and watchers see a MODIFIED event; once the last
// finalizer is removed it disappears with a DELETED event. Without
// finalizers it is removed immediately. Children owned via OwnerUID are
// garbage-collected after the owner vanishes.
func (a *APIServer) Delete(kind Kind, namespace, name string) *Response {
	resp := &Response{}
	resp.track(a.eng.After(a.reqDelay(), func() {
		if err := a.admitWrite(); err != nil {
			resp.complete(err)
			return
		}
		s := a.store(kind)
		key := namespace + "/" + name
		obj, ok := s[key]
		if !ok {
			resp.complete(fmt.Errorf("%w: %s %s", ErrNotFound, kind, key))
			return
		}
		m := obj.GetMeta()
		if len(m.Finalizers) > 0 {
			if !m.Deleting {
				cp := obj.DeepCopy()
				cm := cp.GetMeta()
				cm.Deleting = true
				a.rev++
				cm.ResourceVersion = a.rev
				a.commit(s, key, obj, cp)
				a.notify(EventModified, cp)
			}
			resp.complete(nil)
			return
		}
		a.finalizeDelete(kind, key)
		resp.complete(nil)
	}))
	return resp
}

// finalizeDelete removes the object and garbage-collects its children.
func (a *APIServer) finalizeDelete(kind Kind, key string) {
	s := a.store(kind)
	obj, ok := s[key]
	if !ok {
		return
	}
	a.commit(s, key, obj, nil)
	a.notify(EventDeleted, obj)
	a.collectOrphans(obj.GetMeta().UID)
}

// commit installs next in store slot key of s, replacing prev (nil on
// create; next nil deletes). It is the one place a store slot changes, so
// the owner index stays exact. Both objects are committed and immutable:
// a later write installs a fresh copy rather than mutating next.
func (a *APIServer) commit(s map[string]Object, key string, prev, next Object) {
	var was, now UID
	if prev != nil {
		was = prev.GetMeta().OwnerUID
	}
	if next != nil {
		now = next.GetMeta().OwnerUID
		s[key] = next
	} else {
		delete(s, key)
	}
	if was != now {
		if was != "" {
			a.unindexChild(was, prev.GetMeta())
		}
		if now != "" {
			a.indexChild(now, next.GetMeta())
		}
	}
	if commitObserver != nil {
		commitObserver(prev, next)
	}
}

func (a *APIServer) indexChild(owner UID, m *Meta) {
	if a.children == nil {
		a.children = make(map[UID][]objRef)
	}
	a.children[owner] = append(a.children[owner], objRef{m.Kind, m.Namespace, m.Name})
}

func (a *APIServer) unindexChild(owner UID, m *Meta) {
	refs := a.children[owner]
	for i, r := range refs {
		if r.kind == m.Kind && r.ns == m.Namespace && r.name == m.Name {
			refs[i] = refs[len(refs)-1]
			refs = refs[:len(refs)-1]
			break
		}
	}
	if len(refs) == 0 {
		delete(a.children, owner)
	} else {
		a.children[owner] = refs
	}
}

// collectOrphans deletes every object owned by the vanished UID, found
// through the owner index. Orphans are deleted in sorted (kind, namespace,
// name) order so the garbage collector's event stream is deterministic;
// each Delete carries exactly one request delay.
func (a *APIServer) collectOrphans(owner UID) {
	orphans := a.children[owner]
	if len(orphans) == 0 {
		return
	}
	// Deletes commit after their request delay, so the index entry is not
	// touched while this loop runs; sorting it in place is harmless.
	sort.Slice(orphans, func(i, j int) bool {
		if orphans[i].kind != orphans[j].kind {
			return orphans[i].kind < orphans[j].kind
		}
		if orphans[i].ns != orphans[j].ns {
			return orphans[i].ns < orphans[j].ns
		}
		return orphans[i].name < orphans[j].name
	})
	for _, o := range orphans {
		a.Delete(o.kind, o.ns, o.name)
	}
}

// RemoveFinalizer removes f from the object and triggers completion of a
// pending delete when the finalizer list drains.
func (a *APIServer) RemoveFinalizer(kind Kind, namespace, name, f string) *Response {
	resp := &Response{}
	resp.track(a.eng.After(a.reqDelay(), func() {
		if err := a.admitWrite(); err != nil {
			resp.complete(err)
			return
		}
		s := a.store(kind)
		key := namespace + "/" + name
		obj, ok := s[key]
		if !ok {
			resp.complete(fmt.Errorf("%w: %s %s", ErrNotFound, kind, key))
			return
		}
		cp := obj.DeepCopy()
		m := cp.GetMeta()
		kept := m.Finalizers[:0]
		for _, x := range m.Finalizers {
			if x != f {
				kept = append(kept, x)
			}
		}
		m.Finalizers = kept
		a.rev++
		m.ResourceVersion = a.rev
		a.commit(s, key, obj, cp)
		a.notify(EventModified, cp)
		if m.Deleting && len(m.Finalizers) == 0 {
			a.finalizeDelete(m.Kind, key)
		}
		resp.complete(nil)
	}))
	return resp
}

// UpdateStatus applies fn to a DeepCopy of the stored object
// synchronously (status writes from node agents are modelled as cheap).
// When fn reports a change the copy is committed and watchers are
// notified; otherwise it is dropped and the store is untouched. It ignores
// the availability model (Client.UpdateStatus applies it), so harnesses
// and tests can write status during an outage.
func (a *APIServer) UpdateStatus(kind Kind, namespace, name string, fn func(Object) bool) bool {
	s := a.store(kind)
	key := namespace + "/" + name
	obj, ok := s[key]
	if !ok {
		return false
	}
	if cp := obj.DeepCopy(); fn(cp) {
		a.rev++
		cp.GetMeta().ResourceVersion = a.rev
		a.commit(s, key, obj, cp)
		a.notify(EventModified, cp)
	}
	return true
}
