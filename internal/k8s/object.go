// Package k8s is a compact but behaviourally faithful Kubernetes control
// plane simulation: an API server with typed object stores, watches,
// finalizers and owner references; a job controller; a topology-spreading
// scheduler; and per-node kubelets driving a pluggable container runtime.
//
// It exists because the paper's admission-overhead experiments (§IV-B)
// measure the VNI service *against* the latency profile of a real k3s
// control plane ("the majority of job admission delay [originates] from the
// Kubernetes control plane"). The stage latencies here are calibrated so
// the baseline exhibits that profile; the VNI integration then adds its
// hooks in exactly the same places as on a real cluster (annotations →
// decorator controller → CRD children → CNI plugin chain).
package k8s

import (
	"fmt"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// UID uniquely identifies an object instance for its lifetime.
type UID string

// Kind names an object type.
type Kind string

// Built-in kinds. Custom resources register their own kinds at runtime.
const (
	KindNamespace Kind = "Namespace"
	KindNode      Kind = "Node"
	KindPod       Kind = "Pod"
	KindJob       Kind = "Job"
)

// Meta is object metadata: a subset of ObjectMeta sufficient for the
// reproduction (annotations drive the VNI request interface; finalizers
// drive the /finalize webhook; owner UIDs drive cascading deletion).
//
// Annotations and Labels are immutable values: copies of an object share
// them, so a writer installs a new map (SetAnnotation) instead of writing
// into the one it holds.
type Meta struct {
	Kind        Kind
	Namespace   string
	Name        string
	UID         UID
	Annotations map[string]string
	Labels      map[string]string
	Created     sim.Time
	// ResourceVersion is the commit revision of the stored object; the API
	// server bumps it on every write. An Update whose ResourceVersion is
	// non-zero and stale fails with ErrConflict (optimistic concurrency).
	// Zero means "no precondition" (blind write).
	ResourceVersion int64
	// Deleting is the deletionTimestamp: the object is terminating but
	// held by finalizers.
	Deleting   bool
	Finalizers []string
	// OwnerUID references the owning object; when the owner disappears,
	// the garbage collector deletes this object.
	OwnerUID UID
}

// Key returns the store key namespace/name.
func (m *Meta) Key() string { return m.Namespace + "/" + m.Name }

// HasFinalizer reports whether f is present.
func (m *Meta) HasFinalizer(f string) bool {
	for _, x := range m.Finalizers {
		if x == f {
			return true
		}
	}
	return false
}

// Object is anything stored in the API server.
type Object interface {
	GetMeta() *Meta
	// DeepCopy returns a copy the caller may write: every struct field is
	// copied, and so are Meta.Finalizers and a Custom's Spec and Status
	// maps. Meta.Annotations and Meta.Labels are shared with the original,
	// since they are immutable values (see Meta). The API server stores a
	// copy of what it is handed, and callers copy a committed object (from
	// Get, List, a lister or a watch event, which share it) before
	// mutating it.
	DeepCopy() Object
}

// copyMeta copies m for DeepCopy. Finalizers is copied because
// RemoveFinalizer filters it in place; the metadata maps are shared.
func copyMeta(m Meta) Meta {
	out := m
	out.Finalizers = append([]string(nil), m.Finalizers...)
	return out
}

// SetAnnotation installs a new Annotations map holding m's annotations
// with key set to value, or with key removed when value is "". The old map
// may be shared with a committed object, so it is never written into.
func (m *Meta) SetAnnotation(key, value string) {
	out := make(map[string]string, len(m.Annotations)+1)
	for k, v := range m.Annotations {
		if k != key {
			out[k] = v
		}
	}
	if value != "" {
		out[key] = value
	}
	m.Annotations = out
}

func copyStringMap(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// PodPhase is the pod lifecycle phase.
type PodPhase string

// Pod phases.
const (
	PodPending     PodPhase = "Pending"
	PodScheduled   PodPhase = "Scheduled" // bound to a node, not yet running
	PodRunning     PodPhase = "Running"
	PodSucceeded   PodPhase = "Succeeded"
	PodFailed      PodPhase = "Failed"
	PodTerminating PodPhase = "Terminating"
)

// PodSpec describes the single container this model runs per pod.
type PodSpec struct {
	Image string
	// RunDuration is how long the container's command runs (the paper's
	// admission workload is `echo`, i.e. near-zero).
	RunDuration sim.Duration
	// TerminationGracePeriod bounds how long a terminating pod may linger.
	// The CXI CNI plugin enforces ≤30 s for VNI-requesting pods.
	TerminationGracePeriod sim.Duration
	// NodeName is set by the scheduler.
	NodeName string
	// HostNetwork pods skip CNI and run in the host netns.
	HostNetwork bool
}

// PodStatus is the observed state.
type PodStatus struct {
	Phase     PodPhase
	StartedAt sim.Time
	EndedAt   sim.Time
	Message   string
}

// Pod is the schedulable unit.
type Pod struct {
	Meta   Meta
	Spec   PodSpec
	Status PodStatus
}

// GetMeta implements Object.
func (p *Pod) GetMeta() *Meta { return &p.Meta }

// DeepCopy implements Object.
func (p *Pod) DeepCopy() Object {
	out := *p
	out.Meta = copyMeta(p.Meta)
	return &out
}

// JobSpec describes a set of identical pods.
type JobSpec struct {
	// Parallelism = completions in this model: each job runs this many
	// pods to completion (paper workloads: 1 for admission tests, 2 for
	// the OSU pair).
	Parallelism int
	Template    PodSpec
	// TTLAfterFinished deletes the job this long after completion; the
	// paper's admission tests use 0 ("deleted immediately after
	// completion").
	TTLAfterFinished sim.Duration
	// DeleteAfterFinished enables the TTL behaviour.
	DeleteAfterFinished bool
}

// JobStatus tracks pod progress.
type JobStatus struct {
	Active      int
	Succeeded   int
	Failed      int
	StartedAt   sim.Time // first pod running
	CompletedAt sim.Time
	Completed   bool
	// AdmittedAt is when the last pod of the job entered Running; the
	// harness derives admission delay from it.
	AdmittedAt sim.Time
}

// Job is the batch resource the VNI integration annotates.
type Job struct {
	Meta   Meta
	Spec   JobSpec
	Status JobStatus
}

// GetMeta implements Object.
func (j *Job) GetMeta() *Meta { return &j.Meta }

// DeepCopy implements Object.
func (j *Job) DeepCopy() Object {
	out := *j
	out.Meta = copyMeta(j.Meta)
	return &out
}

// Namespace is a tenancy boundary. VNI CRDs and claims are namespaced.
type Namespace struct {
	Meta Meta
}

// GetMeta implements Object.
func (n *Namespace) GetMeta() *Meta { return &n.Meta }

// DeepCopy implements Object.
func (n *Namespace) DeepCopy() Object {
	out := *n
	out.Meta = copyMeta(n.Meta)
	return &out
}

// NodeSpec carries the schedulability knobs an operator (or the health
// daemon) flips through the API server.
type NodeSpec struct {
	// Unschedulable mirrors `kubectl cordon`: the scheduler must not bind
	// new pods to this node while set.
	Unschedulable bool
}

// Node is a worker machine.
type Node struct {
	Meta Meta
	Spec NodeSpec
}

// GetMeta implements Object.
func (n *Node) GetMeta() *Meta { return &n.Meta }

// DeepCopy implements Object.
func (n *Node) DeepCopy() Object {
	out := *n
	out.Meta = copyMeta(n.Meta)
	return &out
}

// Custom is a dynamic custom-resource instance (used for the VNI and
// VniClaim CRDs). Spec and Status are flat string maps, which is all the
// VNI service needs and keeps apply semantics trivial.
type Custom struct {
	Meta   Meta
	Spec   map[string]string
	Status map[string]string
}

// GetMeta implements Object.
func (c *Custom) GetMeta() *Meta { return &c.Meta }

// DeepCopy implements Object.
func (c *Custom) DeepCopy() Object {
	out := *c
	out.Meta = copyMeta(c.Meta)
	out.Spec = copyStringMap(c.Spec)
	out.Status = copyStringMap(c.Status)
	return &out
}

// EventType classifies watch events.
type EventType int

// Watch event types.
const (
	EventAdded EventType = iota
	EventModified
	EventDeleted
)

// String names the event type.
func (e EventType) String() string {
	switch e {
	case EventAdded:
		return "ADDED"
	case EventModified:
		return "MODIFIED"
	case EventDeleted:
		return "DELETED"
	default:
		return fmt.Sprintf("event(%d)", int(e))
	}
}

// Event is one watch notification.
type Event struct {
	Type   EventType
	Object Object
	// Seq is the per-kind commit sequence number of the write that produced
	// this event (1-based, dense per kind — unlike ResourceVersion, which is
	// global). Informers compare it against the store's current sequence to
	// detect watch gaps; replayed relist events carry the relist horizon.
	Seq uint64
}
