// Package fabmgr models the Slingshot Fabric Manager: the privileged,
// fabric-wide authority that programs VNI access into Rosetta switches.
// The paper's access model (§II-C) says "The Rosetta switch can be
// configured to strictly enforce VNIs and only route packets within a VNI
// if both the sender and receiver NIC have been granted access to that
// VNI" — granting that access is the fabric manager's job.
//
// In the base model, the CXI driver programs the switch directly (a
// simplification noted in internal/cxi). This package provides the fuller
// picture for deployments that want policy between driver and switch:
// per-port VNI budgets, reserved system VNIs, partition-scoped allowlists,
// and an audit trail of every grant and revoke. Device-side code can hand
// its switch programming to a Manager by implementing the same grant/
// revoke calls against it.
package fabmgr

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// Errors.
var (
	ErrPortBudget   = errors.New("fabmgr: port VNI budget exhausted")
	ErrReservedVNI  = errors.New("fabmgr: vni reserved for system use")
	ErrNotPartition = errors.New("fabmgr: vni outside port's partition")
	ErrUnknownPort  = errors.New("fabmgr: unknown port")
)

// Granter abstracts the switch-side programming interface; *fabric.Switch
// and *fabric.Topology both satisfy it.
type Granter interface {
	GrantVNI(addr fabric.Addr, vni fabric.VNI) error
	RevokeVNI(addr fabric.Addr, vni fabric.VNI) error
}

// Policy constrains what the manager will program.
type Policy struct {
	// MaxVNIsPerPort caps concurrent VNIs per NIC port (0 = unlimited).
	MaxVNIsPerPort int
	// ReservedVNIs can never be granted through the manager (system
	// VNIs, e.g. the management plane's own).
	ReservedVNIs []fabric.VNI
}

// AuditEntry records one manager action.
type AuditEntry struct {
	At    sim.Time
	Grant bool
	Port  fabric.Addr
	VNI   fabric.VNI
	Err   string
}

// Manager is the fabric manager instance.
type Manager struct {
	mu       sync.Mutex
	clock    sim.Clock
	granter  Granter
	policy   Policy
	reserved map[fabric.VNI]bool
	// grants tracks programmed state per port for budget enforcement and
	// idempotency.
	grants map[fabric.Addr]map[fabric.VNI]bool
	// partitions, when set for a port, restrict grantable VNIs to the
	// port's partition range.
	partitions map[fabric.Addr]Partition
	audit      []AuditEntry
	// topo, when set, is the fabric topology under management; the
	// manager exposes it to control-plane consumers (scheduler hints,
	// health reporting) that must not reach into the data plane.
	topo *fabric.Topology
}

// FabricHealth is the manager's summary of the fabric's link state, the
// operator-facing counterpart of the data plane's per-link counters.
type FabricHealth struct {
	// Switches and Links count the fabric's elements (links are
	// directional).
	Switches, Links int
	// DownLinks counts administratively failed directional links.
	DownLinks int
	// TrunkDrops totals packets lost to down trunks fabric-wide.
	TrunkDrops uint64
	// GlobalBytes totals payload carried over inter-group links.
	GlobalBytes uint64
}

// Partition is an inclusive VNI range assigned to a set of ports (e.g. a
// tenant cage or a system partition).
type Partition struct {
	Name           string
	MinVNI, MaxVNI fabric.VNI
}

// Contains reports whether the partition covers vni.
func (p Partition) Contains(vni fabric.VNI) bool {
	return vni >= p.MinVNI && vni <= p.MaxVNI
}

// New creates a manager over the switch (or mesh).
func New(clock sim.Clock, granter Granter, policy Policy) *Manager {
	m := &Manager{
		clock:      clock,
		granter:    granter,
		policy:     policy,
		reserved:   make(map[fabric.VNI]bool, len(policy.ReservedVNIs)),
		grants:     make(map[fabric.Addr]map[fabric.VNI]bool),
		partitions: make(map[fabric.Addr]Partition),
	}
	for _, v := range policy.ReservedVNIs {
		m.reserved[v] = true
	}
	return m
}

// SetTopology hands the manager the fabric topology it manages. The
// manager does not route — it exposes the topology to consumers that need
// placement hints or health state without touching the data plane.
func (m *Manager) SetTopology(t *fabric.Topology) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.topo = t
}

// Topology returns the managed topology, nil before SetTopology.
func (m *Manager) Topology() *fabric.Topology {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.topo
}

// FabricHealth summarizes the managed fabric's link state; the zero value
// is returned before SetTopology.
func (m *Manager) FabricHealth() FabricHealth {
	t := m.Topology()
	if t == nil {
		return FabricHealth{}
	}
	h := FabricHealth{
		Switches:    len(t.Switches()),
		TrunkDrops:  t.TrunkDrops(),
		GlobalBytes: t.GlobalLinkBytes(),
	}
	for _, l := range t.Links() {
		h.Links++
		if l.Down {
			h.DownLinks++
		}
	}
	return h
}

// AssignPartition restricts a port to a VNI partition.
func (m *Manager) AssignPartition(port fabric.Addr, p Partition) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.partitions[port] = p
}

func (m *Manager) record(grant bool, port fabric.Addr, vni fabric.VNI, err error) {
	e := AuditEntry{At: m.clock.Now(), Grant: grant, Port: port, VNI: vni}
	if err != nil {
		e.Err = err.Error()
	}
	m.audit = append(m.audit, e)
}

// GrantVNI programs vni onto port after policy checks. Idempotent.
func (m *Manager) GrantVNI(port fabric.Addr, vni fabric.VNI) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkLocked(port, vni); err != nil {
		m.record(true, port, vni, err)
		return err
	}
	g := m.grants[port]
	if g == nil {
		g = make(map[fabric.VNI]bool)
		m.grants[port] = g
	}
	if g[vni] {
		return nil // already programmed
	}
	if err := m.granter.GrantVNI(port, vni); err != nil {
		err = fmt.Errorf("%w: %v", ErrUnknownPort, err)
		m.record(true, port, vni, err)
		return err
	}
	g[vni] = true
	m.record(true, port, vni, nil)
	return nil
}

func (m *Manager) checkLocked(port fabric.Addr, vni fabric.VNI) error {
	if m.reserved[vni] {
		return fmt.Errorf("%w: %d", ErrReservedVNI, vni)
	}
	if p, ok := m.partitions[port]; ok && !p.Contains(vni) {
		return fmt.Errorf("%w: vni %d not in partition %s [%d,%d]",
			ErrNotPartition, vni, p.Name, p.MinVNI, p.MaxVNI)
	}
	if m.policy.MaxVNIsPerPort > 0 {
		if g := m.grants[port]; len(g) >= m.policy.MaxVNIsPerPort && !g[vni] {
			return fmt.Errorf("%w: port %d at %d VNIs", ErrPortBudget, port, len(g))
		}
	}
	return nil
}

// RevokeVNI removes vni from port. Idempotent.
func (m *Manager) RevokeVNI(port fabric.Addr, vni fabric.VNI) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.grants[port]
	if g == nil || !g[vni] {
		return nil
	}
	if err := m.granter.RevokeVNI(port, vni); err != nil {
		err = fmt.Errorf("%w: %v", ErrUnknownPort, err)
		m.record(false, port, vni, err)
		return err
	}
	delete(g, vni)
	m.record(false, port, vni, nil)
	return nil
}

// PortVNIs returns the VNIs currently programmed on port, sorted.
func (m *Manager) PortVNIs(port fabric.Addr) []fabric.VNI {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]fabric.VNI, 0, len(m.grants[port]))
	for v := range m.grants[port] {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Audit returns a copy of the action log.
func (m *Manager) Audit() []AuditEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]AuditEntry, len(m.audit))
	copy(out, m.audit)
	return out
}
