package vnidb

import (
	"sync"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// UnsafeAllocator is the check-then-insert strawman the paper's design
// avoids: the availability check and the allocation insert are two separate
// critical sections, so two concurrent acquisitions can both observe a VNI
// as free and both allocate it. It exists for the TOCTOU ablation benchmark
// and the property test that demonstrates the hazard; production code paths
// never use it.
type UnsafeAllocator struct {
	mu   sync.Mutex
	db   *DB
	gapF func() // called between check and insert; tests inject a yield
}

// NewUnsafeAllocator wraps db with non-transactional acquisition. gap, if
// non-nil, runs between the check and the insert (e.g. runtime.Gosched).
func NewUnsafeAllocator(db *DB, gap func()) *UnsafeAllocator {
	return &UnsafeAllocator{db: db, gapF: gap}
}

// Acquire performs the racy two-step allocation.
func (u *UnsafeAllocator) Acquire(owner string, now sim.Time) (fabric.VNI, error) {
	// Step 1: check (own critical section).
	var candidate fabric.VNI
	var found bool
	u.mu.Lock()
	db := u.db
	db.mu.Lock()
	n := db.opts.MaxVNI - db.opts.MinVNI + 1
	for i := fabric.VNI(0); i < n; i++ {
		v := db.opts.MinVNI + i
		r, exists := db.rows[v]
		if exists && r.state == Allocated {
			continue
		}
		if exists && r.state == Quarantined && now.Sub(r.releasedAt) < db.opts.Quarantine {
			continue
		}
		candidate, found = v, true
		break
	}
	db.mu.Unlock()
	u.mu.Unlock()
	if !found {
		return 0, ErrExhausted
	}

	// The TOCTOU window: another goroutine can run the same check here and
	// settle on the same candidate.
	if u.gapF != nil {
		u.gapF()
	}

	// Step 2: insert (separate critical section, no re-check). Outside a
	// transaction there is no undo log, so putRow's undo record is dropped.
	db.mu.Lock()
	db.putRow(&row{
		vni: candidate, owner: owner, state: Allocated,
		allocatedAt: now, users: make(map[string]bool),
	})
	db.seq++
	db.audit = append(db.audit, AuditEntry{Seq: db.seq, At: now, Op: OpAcquire, VNI: candidate, Owner: owner})
	db.mu.Unlock()
	return candidate, nil
}
