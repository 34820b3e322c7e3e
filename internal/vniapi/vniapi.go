// Package vniapi holds the shared vocabulary of the VNI integration: the
// job annotation users set, the custom-resource kinds the VNI controller
// manages, and the spec keys the CXI CNI plugin reads. It exists so the CNI
// plugin and the VNI service agree on names without depending on each
// other's implementations.
package vniapi

import (
	"fmt"
	"strconv"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// Annotation is the job annotation carrying the VNI request:
// "true" requests a fresh Per-Resource VNI; any other non-empty value names
// a VNI Claim to redeem (paper §III-C1).
const Annotation = "vni"

// AnnotationValueTrue requests the Per-Resource VNI model.
const AnnotationValueTrue = "true"

// Custom resource kinds managed by the VNI controller.
const (
	KindVNI      k8s.Kind = "VNI"
	KindVniClaim k8s.Kind = "VniClaim"
)

// Spec keys on VNI CRD instances.
const (
	SpecVNI     = "vni"     // decimal VNI value
	SpecJob     = "job"     // owning/attached job name
	SpecClaim   = "claim"   // claim name, for claim-backed VNIs
	SpecVirtual = "virtual" // "true" on non-owning (virtual) VNI objects
)

// Spec keys on VniClaim CRD instances. Jobs redeem a claim by the claim
// *object's* name (paper Listing 3); spec.name (Listing 2) is a
// human-readable label.
const (
	ClaimSpecName = "name"
)

// Finalizers.
const (
	// JobFinalizer is placed on vni-annotated jobs so the controller's
	// /finalize webhook runs (releasing or detaching the VNI) before the
	// job disappears.
	JobFinalizer = "vni.shs.hpe.com/finalizer"
	// ClaimFinalizer blocks claim deletion until all users are gone.
	ClaimFinalizer = "vniclaim.shs.hpe.com/finalizer"
)

// MaxGracePeriod is the termination grace period ceiling the CXI CNI plugin
// enforces for VNI-requesting pods; it matches the VNI quarantine window so
// a straggling pod can never outlive its VNI's quarantine (paper §III-C1).
const MaxGracePeriod = sim.Duration(30 * time.Second)

// Requested reports whether the object requests VNI integration, and the
// claim name if the claim model is selected.
func Requested(annotations map[string]string) (requested bool, claim string) {
	v, ok := annotations[Annotation]
	if !ok || v == "" {
		return false, ""
	}
	if v == AnnotationValueTrue {
		return true, ""
	}
	return true, v
}

// IndexVNIByJob is the informer index filing VNI CRD instances under
// "namespace/job-name" — the lookup the CXI CNI plugin and the pod gate
// perform on every pod launch.
const IndexVNIByJob = "vni-by-job"

// VNIByJobIndex is the IndexFunc behind IndexVNIByJob.
func VNIByJobIndex(obj k8s.Object) []string {
	c, ok := obj.(*k8s.Custom)
	if !ok {
		return nil
	}
	job := c.Spec[SpecJob]
	if job == "" {
		return nil
	}
	return []string{jobKey(c.Meta.Namespace, job)}
}

// jobKey is the IndexVNIByJob value of a job.
func jobKey(namespace, job string) string { return namespace + "/" + job }

// ParseVNI reads the decimal spec.vni value of a VNI CRD instance.
func ParseVNI(cr *k8s.Custom) (fabric.VNI, error) {
	v, err := strconv.ParseUint(cr.Spec[SpecVNI], 10, 32)
	if err != nil {
		return 0, fmt.Errorf("malformed VNI CRD %s: %v", cr.Meta.Key(), err)
	}
	return fabric.VNI(v), nil
}

// JobVNI returns the VNI attached to a job, looked up through the by-job
// index of l (a VNILister). ok is false while the job has no VNI CRD
// instance; err is set when it has one whose spec.vni is malformed.
func JobVNI(l k8s.Lister, namespace, job string) (vni fabric.VNI, ok bool, err error) {
	crds := l.ByIndex(IndexVNIByJob, jobKey(namespace, job))
	if len(crds) == 0 {
		return 0, false, nil
	}
	vni, err = ParseVNI(crds[0].(*k8s.Custom))
	return vni, true, err
}

// VNILister returns the cached lister over VNI CRD instances with the
// by-job index registered — the one-call setup every VNI consumer uses.
func VNILister(cli *k8s.Client) k8s.Lister {
	inf := cli.Informer(KindVNI)
	inf.AddIndex(IndexVNIByJob, VNIByJobIndex)
	return inf.Lister()
}
