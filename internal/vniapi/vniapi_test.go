package vniapi

import (
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

func TestRequested(t *testing.T) {
	cases := []struct {
		ann       map[string]string
		requested bool
		claim     string
	}{
		{nil, false, ""},
		{map[string]string{}, false, ""},
		{map[string]string{"vni": ""}, false, ""},
		{map[string]string{"vni": "true"}, true, ""},
		{map[string]string{"vni": "my-claim"}, true, "my-claim"},
		{map[string]string{"other": "true"}, false, ""},
	}
	for _, c := range cases {
		req, claim := Requested(c.ann)
		if req != c.requested || claim != c.claim {
			t.Errorf("Requested(%v) = (%v, %q), want (%v, %q)",
				c.ann, req, claim, c.requested, c.claim)
		}
	}
}

func TestConstantsStable(t *testing.T) {
	// The annotation and spec keys are the user-facing interface (paper
	// Listings 1-3); changing them silently would break deployments.
	if Annotation != "vni" {
		t.Errorf("Annotation = %q", Annotation)
	}
	if string(KindVNI) != "VNI" || string(KindVniClaim) != "VniClaim" {
		t.Error("CRD kind names changed")
	}
	if SpecVNI != "vni" || SpecJob != "job" || SpecClaim != "claim" || SpecVirtual != "virtual" {
		t.Error("spec keys changed")
	}
	if MaxGracePeriod.Seconds() != 30 {
		t.Errorf("MaxGracePeriod = %v, paper mandates 30s", MaxGracePeriod)
	}
}

func TestJobVNI(t *testing.T) {
	eng := sim.NewEngine(1)
	api := k8s.NewAPIServer(eng, k8s.DefaultAPILatency())
	vnis := VNILister(api.Client())
	for job, vni := range map[string]string{"good": "1042", "bad": "x1042"} {
		api.Create(&k8s.Custom{
			Meta: k8s.Meta{Kind: KindVNI, Namespace: "tenant", Name: "vni-" + job},
			Spec: map[string]string{SpecVNI: vni, SpecJob: job},
		})
	}
	eng.RunFor(time.Second)

	cases := []struct {
		job     string
		vni     fabric.VNI
		ok, err bool
	}{
		{"good", 1042, true, false},
		{"missing", 0, false, false},
		{"bad", 0, true, true},
	}
	for _, c := range cases {
		vni, ok, err := JobVNI(vnis, "tenant", c.job)
		if vni != c.vni || ok != c.ok || (err != nil) != c.err {
			t.Errorf("JobVNI(%q) = (%d, %v, %v), want (%d, %v, err=%v)",
				c.job, vni, ok, err, c.vni, c.ok, c.err)
		}
	}
	if _, ok, _ := JobVNI(vnis, "other", "good"); ok {
		t.Error("JobVNI found a job in the wrong namespace")
	}
}
