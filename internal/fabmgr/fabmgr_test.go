package fabmgr

import (
	"errors"
	"testing"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

type nullRecv struct{}

func (nullRecv) ReceivePacket(*fabric.Packet) {}

func newMgr(t *testing.T, policy Policy) (*Manager, *fabric.Switch, fabric.Addr, fabric.Addr) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := fabric.DefaultConfig()
	cfg.JitterFrac, cfg.RunSigma = 0, 0
	sw := fabric.NewSwitch("s", eng, cfg)
	a := sw.Attach(nullRecv{})
	b := sw.Attach(nullRecv{})
	return New(eng, sw, policy), sw, a, b
}

func TestGrantProgramsSwitch(t *testing.T) {
	m, sw, a, _ := newMgr(t, Policy{})
	if err := m.GrantVNI(a, 100); err != nil {
		t.Fatal(err)
	}
	if !sw.HasVNI(a, 100) {
		t.Error("switch not programmed")
	}
	// Idempotent.
	if err := m.GrantVNI(a, 100); err != nil {
		t.Fatal(err)
	}
	if got := m.PortVNIs(a); len(got) != 1 || got[0] != 100 {
		t.Errorf("port vnis = %v", got)
	}
	if err := m.RevokeVNI(a, 100); err != nil {
		t.Fatal(err)
	}
	if sw.HasVNI(a, 100) {
		t.Error("switch grant survived revoke")
	}
	// Revoke is idempotent too.
	if err := m.RevokeVNI(a, 100); err != nil {
		t.Fatal(err)
	}
}

func TestReservedVNIsRefused(t *testing.T) {
	m, sw, a, _ := newMgr(t, Policy{ReservedVNIs: []fabric.VNI{1, 2}})
	if err := m.GrantVNI(a, 1); !errors.Is(err, ErrReservedVNI) {
		t.Errorf("reserved grant: %v", err)
	}
	if sw.HasVNI(a, 1) {
		t.Error("reserved VNI reached the switch")
	}
}

func TestPortBudgetEnforced(t *testing.T) {
	m, _, a, b := newMgr(t, Policy{MaxVNIsPerPort: 2})
	for _, v := range []fabric.VNI{10, 11} {
		if err := m.GrantVNI(a, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.GrantVNI(a, 12); !errors.Is(err, ErrPortBudget) {
		t.Errorf("over-budget grant: %v", err)
	}
	// Re-granting an existing VNI is not an over-budget operation.
	if err := m.GrantVNI(a, 10); err != nil {
		t.Errorf("idempotent re-grant at budget: %v", err)
	}
	// Other ports are unaffected.
	if err := m.GrantVNI(b, 12); err != nil {
		t.Errorf("other port: %v", err)
	}
	// Revoking frees budget.
	if err := m.RevokeVNI(a, 10); err != nil {
		t.Fatal(err)
	}
	if err := m.GrantVNI(a, 12); err != nil {
		t.Errorf("grant after revoke: %v", err)
	}
}

func TestPartitionScoping(t *testing.T) {
	m, _, a, b := newMgr(t, Policy{})
	m.AssignPartition(a, Partition{Name: "tenant-cage", MinVNI: 1000, MaxVNI: 1999})
	if err := m.GrantVNI(a, 5000); !errors.Is(err, ErrNotPartition) {
		t.Errorf("out-of-partition grant: %v", err)
	}
	if err := m.GrantVNI(a, 1500); err != nil {
		t.Errorf("in-partition grant: %v", err)
	}
	// Unpartitioned ports are unrestricted.
	if err := m.GrantVNI(b, 5000); err != nil {
		t.Errorf("unpartitioned port: %v", err)
	}
}

func TestUnknownPortSurfaced(t *testing.T) {
	m, sw, a, _ := newMgr(t, Policy{})
	sw.Detach(a)
	if err := m.GrantVNI(a, 10); !errors.Is(err, ErrUnknownPort) {
		t.Errorf("grant to detached port: %v", err)
	}
}

func TestAuditTrail(t *testing.T) {
	m, _, a, _ := newMgr(t, Policy{ReservedVNIs: []fabric.VNI{1}})
	_ = m.GrantVNI(a, 10)
	_ = m.GrantVNI(a, 1) // denied
	_ = m.RevokeVNI(a, 10)
	log := m.Audit()
	if len(log) != 3 {
		t.Fatalf("audit entries = %d", len(log))
	}
	if !log[0].Grant || log[0].Err != "" {
		t.Errorf("entry 0 = %+v", log[0])
	}
	if log[1].Err == "" {
		t.Error("denied grant not recorded with error")
	}
	if log[2].Grant {
		t.Error("revoke recorded as grant")
	}
}

func TestManagerTopologyHealth(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := fabric.DefaultConfig()
	cfg.JitterFrac, cfg.RunSigma = 0, 0
	topo := fabric.NewTopology(eng, cfg, fabric.TopologySpec{Groups: 2, SwitchesPerGroup: 2})
	m := New(eng, topo, Policy{})
	if m.Topology() != nil {
		t.Fatal("topology set before SetTopology")
	}
	if h := m.FabricHealth(); h != (FabricHealth{}) {
		t.Fatalf("health before SetTopology = %+v, want zero", h)
	}
	m.SetTopology(topo)
	if m.Topology() != topo {
		t.Fatal("SetTopology not exposed")
	}
	h := m.FabricHealth()
	// 2 groups × 2 switches: 2 directional intra links per group plus 2
	// directional global links for the single pair.
	if h.Switches != 4 || h.Links != 6 || h.DownLinks != 0 {
		t.Errorf("health = %+v, want 4 switches, 6 links, 0 down", h)
	}
	gl := topo.GlobalLinks(0, 1)
	if err := topo.SetTrunkDown(gl[0].From, gl[0].To, true); err != nil {
		t.Fatal(err)
	}
	if h := m.FabricHealth(); h.DownLinks != 2 {
		t.Errorf("down links = %d after failing one trunk (both directions), want 2", h.DownLinks)
	}
}

func TestManagerOverMesh(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := fabric.DefaultConfig()
	cfg.JitterFrac, cfg.RunSigma = 0, 0
	mesh := fabric.NewTopology(eng, cfg, fabric.TopologySpec{Groups: 1, SwitchesPerGroup: 2})
	a := mesh.Attach(0, nullRecv{})
	b := mesh.Attach(1, nullRecv{})
	m := New(eng, mesh, Policy{})
	if err := m.GrantVNI(a, 7); err != nil {
		t.Fatal(err)
	}
	if err := m.GrantVNI(b, 7); err != nil {
		t.Fatal(err)
	}
	if !mesh.Switches()[0].HasVNI(a, 7) || !mesh.Switches()[1].HasVNI(b, 7) {
		t.Error("mesh edge switches not programmed")
	}
}
