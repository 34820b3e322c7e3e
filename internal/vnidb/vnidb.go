// Package vnidb is the VNI Database: the ground truth for VNI assignments
// in the cluster (paper §III-C2). The paper uses SQLite and leans on its
// ACID transactions to rule out time-of-check-to-time-of-use races between
// concurrent acquisition requests; this embedded store provides the same
// guarantees with stdlib only:
//
//   - serializable transactions (single-writer, two-phase: all mutations go
//     through an undo log and either commit atomically or roll back),
//   - a write-ahead log of committed transactions for crash recovery,
//   - an audit log table recording every allocation, release, user addition
//     and user removal, as the paper requires.
//
// The schema mirrors the paper's needs:
//
//	allocations(vni PRIMARY KEY, owner, state, allocated_at, released_at)
//	users(vni, user)            -- jobs redeeming a claim's VNI
//	audit(seq, at, op, vni, owner, user)
package vnidb

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// State of a VNI row.
type State int

// VNI states. A VNI leaves Quarantined only when a subsequent Acquire finds
// its quarantine expired (lazy transition, like the paper's 30-second rule).
const (
	Free State = iota // not currently in the allocations table
	Allocated
	Quarantined
)

// String names the state.
func (s State) String() string {
	switch s {
	case Free:
		return "free"
	case Allocated:
		return "allocated"
	case Quarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Errors.
var (
	ErrExhausted    = errors.New("vnidb: vni pool exhausted")
	ErrNotAllocated = errors.New("vnidb: vni not allocated")
	ErrHasUsers     = errors.New("vnidb: vni still has users")
	ErrUserExists   = errors.New("vnidb: user already registered")
	ErrNoSuchUser   = errors.New("vnidb: no such user")
	ErrClosed       = errors.New("vnidb: database closed")
	ErrTxDone       = errors.New("vnidb: transaction finished")
)

// Row is one allocation record.
type Row struct {
	VNI         fabric.VNI
	Owner       string
	State       State
	AllocatedAt sim.Time
	ReleasedAt  sim.Time
	Users       []string
}

// AuditOp enumerates audited operations.
type AuditOp string

// Audit operations.
const (
	OpAcquire    AuditOp = "acquire"
	OpRelease    AuditOp = "release"
	OpAddUser    AuditOp = "add_user"
	OpRemoveUser AuditOp = "remove_user"
)

// AuditEntry is one audit-log row.
type AuditEntry struct {
	Seq   uint64     `json:"seq"`
	At    sim.Time   `json:"at"`
	Op    AuditOp    `json:"op"`
	VNI   fabric.VNI `json:"vni"`
	Owner string     `json:"owner,omitempty"`
	User  string     `json:"user,omitempty"`
}

// Options configure the store.
type Options struct {
	// MinVNI and MaxVNI bound the allocatable pool (inclusive). VNIs 1-
	// MinVNI-1 are conventionally reserved for system use (the default
	// service's global VNI is 1).
	MinVNI, MaxVNI fabric.VNI
	// Quarantine is how long a released VNI is withheld from reallocation
	// (paper: 30 s, matched to the pod termination grace period).
	Quarantine sim.Duration
	// WAL, when non-nil, receives one JSON line per committed transaction.
	WAL io.Writer
}

// DefaultOptions mirror the deployment in the paper.
func DefaultOptions() Options {
	return Options{MinVNI: 1024, MaxVNI: 65535, Quarantine: 30e9}
}

type row struct {
	vni         fabric.VNI
	owner       string
	state       State
	allocatedAt sim.Time
	releasedAt  sim.Time
	users       map[string]bool
}

// DB is the store. All access goes through View/Update transactions.
type DB struct {
	mu     sync.Mutex
	opts   Options
	rows   map[fabric.VNI]*row
	audit  []AuditEntry
	seq    uint64
	closed bool
	// nextProbe rotates the allocation scan start so VNIs are handed out
	// round-robin rather than always reusing the lowest, reducing reuse
	// pressure on recently-released IDs.
	nextProbe fabric.VNI
	// byOwner indexes Allocated rows by owner, so FindByOwner is a map
	// lookup. It changes only through putRow and Release, whose changes
	// join the transaction's undo log; nil until the first allocation.
	byOwner map[string]fabric.VNI
}

// Open creates an empty database.
func Open(opts Options) *DB {
	if opts.MaxVNI < opts.MinVNI {
		panic("vnidb: MaxVNI < MinVNI")
	}
	return &DB{opts: opts, rows: make(map[fabric.VNI]*row), nextProbe: opts.MinVNI}
}

// Options returns the open options.
func (db *DB) Options() Options { return db.opts }

// Close marks the database closed; subsequent transactions fail.
func (db *DB) Close() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.closed = true
}

// Tx is a serializable transaction. Mutations accumulate undo actions; if
// the transaction function returns an error everything is rolled back.
type Tx struct {
	db       *DB
	done     bool
	readonly bool
	undo     []func()
	walOps   []walRecord
}

type walRecord struct {
	Op    AuditOp    `json:"op"`
	VNI   fabric.VNI `json:"vni"`
	Owner string     `json:"owner,omitempty"`
	User  string     `json:"user,omitempty"`
	At    sim.Time   `json:"at"`
}

// Update runs fn in a read-write transaction. The database lock is held for
// the duration, giving serializable isolation (as SQLite's single-writer
// model does).
func (db *DB) Update(fn func(*Tx) error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	tx := &Tx{db: db}
	if err := fn(tx); err != nil {
		tx.rollback()
		return err
	}
	tx.commit()
	return nil
}

// View runs fn in a read-only transaction. Mutating calls fail.
func (db *DB) View(fn func(*Tx) error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	tx := &Tx{db: db, readonly: true}
	defer func() { tx.done = true }()
	return fn(tx)
}

func (tx *Tx) rollback() {
	for i := len(tx.undo) - 1; i >= 0; i-- {
		tx.undo[i]()
	}
	tx.undo = nil
	tx.walOps = nil
	tx.done = true
}

func (tx *Tx) commit() {
	if tx.db.opts.WAL != nil && len(tx.walOps) > 0 {
		line, err := json.Marshal(tx.walOps)
		if err == nil {
			line = append(line, '\n')
			_, _ = tx.db.opts.WAL.Write(line)
		}
	}
	tx.done = true
}

func (tx *Tx) check(write bool) error {
	if tx.done {
		return ErrTxDone
	}
	if write && tx.readonly {
		return errors.New("vnidb: write in read-only transaction")
	}
	return nil
}

func (tx *Tx) logOp(op AuditOp, vni fabric.VNI, owner, user string, at sim.Time) {
	db := tx.db
	db.seq++
	seq := db.seq
	db.audit = append(db.audit, AuditEntry{Seq: seq, At: at, Op: op, VNI: vni, Owner: owner, User: user})
	tx.undo = append(tx.undo, func() {
		db.audit = db.audit[:len(db.audit)-1]
		db.seq--
	})
	tx.walOps = append(tx.walOps, walRecord{Op: op, VNI: vni, Owner: owner, User: user, At: at})
}

// Acquire atomically finds a VNI that is free (or whose quarantine has
// expired) and allocates it to owner. The check and the insert are one
// transaction, which is exactly what rules out the TOCTOU double-allocation
// the paper warns about.
func (tx *Tx) Acquire(owner string, now sim.Time) (fabric.VNI, error) {
	if err := tx.check(true); err != nil {
		return 0, err
	}
	db := tx.db
	n := db.opts.MaxVNI - db.opts.MinVNI + 1
	for i := fabric.VNI(0); i < n; i++ {
		v := db.opts.MinVNI + (db.nextProbe-db.opts.MinVNI+i)%n
		r, exists := db.rows[v]
		if exists && r.state == Allocated {
			continue
		}
		if exists && r.state == Quarantined {
			if now.Sub(r.releasedAt) < db.opts.Quarantine {
				continue
			}
		}
		// Allocate v.
		u := db.putRow(&row{vni: v, owner: owner, state: Allocated, allocatedAt: now, users: make(map[string]bool)})
		oldProbe := db.nextProbe
		db.nextProbe = db.opts.MinVNI + (v-db.opts.MinVNI+1)%n
		tx.undo = append(tx.undo, func() {
			db.nextProbe = oldProbe
			db.revertRow(u)
		})
		tx.logOp(OpAcquire, v, owner, "", now)
		return v, nil
	}
	return 0, ErrExhausted
}

// rowUndo records what putRow replaced, for the transaction's undo log.
type rowUndo struct {
	prev, next    *row
	prevVNI       fabric.VNI // the owner index entry next's owner had
	hadOwner      bool
	prevUnindexed bool // putRow dropped prev from the owner index
}

// putRow installs an Allocated row, replacing whatever row held its VNI,
// and points the owner index at it. revertRow undoes both.
func (db *DB) putRow(nr *row) rowUndo {
	u := rowUndo{prev: db.rows[nr.vni], next: nr}
	db.rows[nr.vni] = nr
	u.prevUnindexed = u.prev != nil && u.prev.state == Allocated && db.unindexOwner(u.prev)
	if db.byOwner == nil {
		db.byOwner = make(map[string]fabric.VNI)
	}
	u.prevVNI, u.hadOwner = db.byOwner[nr.owner]
	db.byOwner[nr.owner] = nr.vni
	return u
}

func (db *DB) revertRow(u rowUndo) {
	if u.hadOwner {
		db.byOwner[u.next.owner] = u.prevVNI
	} else {
		delete(db.byOwner, u.next.owner)
	}
	if u.prevUnindexed {
		db.byOwner[u.prev.owner] = u.prev.vni
	}
	if u.prev == nil {
		delete(db.rows, u.next.vni)
	} else {
		db.rows[u.next.vni] = u.prev
	}
}

// unindexOwner drops r from the owner index if the index points at it, and
// reports whether it did.
func (db *DB) unindexOwner(r *row) bool {
	if v, ok := db.byOwner[r.owner]; ok && v == r.vni {
		delete(db.byOwner, r.owner)
		return true
	}
	return false
}

// Release moves an allocated VNI to quarantine, clearing its users. After
// Options.Quarantine it becomes reallocatable.
func (tx *Tx) Release(vni fabric.VNI, now sim.Time) error {
	if err := tx.check(true); err != nil {
		return err
	}
	db := tx.db
	r, ok := db.rows[vni]
	if !ok || r.state != Allocated {
		return fmt.Errorf("%w: %d", ErrNotAllocated, vni)
	}
	prevState, prevReleased, prevUsers := r.state, r.releasedAt, r.users
	r.state = Quarantined
	r.releasedAt = now
	r.users = make(map[string]bool)
	unindexed := db.unindexOwner(r)
	tx.undo = append(tx.undo, func() {
		r.state, r.releasedAt, r.users = prevState, prevReleased, prevUsers
		if unindexed {
			db.byOwner[r.owner] = r.vni
		}
	})
	tx.logOp(OpRelease, vni, r.owner, "", now)
	return nil
}

// AddUser registers user (e.g. a redeeming job) on an allocated VNI.
func (tx *Tx) AddUser(vni fabric.VNI, user string, now sim.Time) error {
	if err := tx.check(true); err != nil {
		return err
	}
	r, ok := tx.db.rows[vni]
	if !ok || r.state != Allocated {
		return fmt.Errorf("%w: %d", ErrNotAllocated, vni)
	}
	if r.users[user] {
		return fmt.Errorf("%w: %q on vni %d", ErrUserExists, user, vni)
	}
	r.users[user] = true
	tx.undo = append(tx.undo, func() { delete(r.users, user) })
	tx.logOp(OpAddUser, vni, r.owner, user, now)
	return nil
}

// RemoveUser deregisters a user from a VNI.
func (tx *Tx) RemoveUser(vni fabric.VNI, user string, now sim.Time) error {
	if err := tx.check(true); err != nil {
		return err
	}
	r, ok := tx.db.rows[vni]
	if !ok || r.state != Allocated {
		return fmt.Errorf("%w: %d", ErrNotAllocated, vni)
	}
	if !r.users[user] {
		return fmt.Errorf("%w: %q on vni %d", ErrNoSuchUser, user, vni)
	}
	delete(r.users, user)
	tx.undo = append(tx.undo, func() { r.users[user] = true })
	tx.logOp(OpRemoveUser, vni, r.owner, user, now)
	return nil
}

// UserCount returns the number of registered users of vni.
func (tx *Tx) UserCount(vni fabric.VNI) (int, error) {
	if err := tx.check(false); err != nil {
		return 0, err
	}
	r, ok := tx.db.rows[vni]
	if !ok || r.state != Allocated {
		return 0, fmt.Errorf("%w: %d", ErrNotAllocated, vni)
	}
	return len(r.users), nil
}

// Get returns the row for vni. State Free with ok=false means unknown.
func (tx *Tx) Get(vni fabric.VNI) (Row, bool) {
	if tx.done {
		return Row{}, false
	}
	r, ok := tx.db.rows[vni]
	if !ok {
		return Row{}, false
	}
	return exportRow(r), true
}

// FindByOwner returns the allocated VNI owned by owner, if any, through the
// owner index. Owners are unique per allocation by construction (the VNI
// service derives them from object UIDs); were an owner to hold two
// allocations, the index names the latest.
func (tx *Tx) FindByOwner(owner string) (Row, bool) {
	if tx.done {
		return Row{}, false
	}
	v, ok := tx.db.byOwner[owner]
	if !ok {
		return Row{}, false
	}
	return exportRow(tx.db.rows[v]), true
}

// List returns all non-free rows sorted by VNI.
func (tx *Tx) List() []Row {
	if tx.done {
		return nil
	}
	out := make([]Row, 0, len(tx.db.rows))
	for _, r := range tx.db.rows {
		out = append(out, exportRow(r))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VNI < out[j].VNI })
	return out
}

func exportRow(r *row) Row {
	users := make([]string, 0, len(r.users))
	for u := range r.users {
		users = append(users, u)
	}
	sort.Strings(users)
	return Row{
		VNI: r.vni, Owner: r.owner, State: r.state,
		AllocatedAt: r.allocatedAt, ReleasedAt: r.releasedAt, Users: users,
	}
}

// Audit returns a copy of the audit log.
func (db *DB) Audit() []AuditEntry {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]AuditEntry, len(db.audit))
	copy(out, db.audit)
	return out
}

// Stats summarizes pool occupancy.
type Stats struct {
	Allocated   int
	Quarantined int
	PoolSize    int
}

// Stats returns occupancy counters.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	st := Stats{PoolSize: int(db.opts.MaxVNI - db.opts.MinVNI + 1)}
	for _, r := range db.rows {
		switch r.state {
		case Allocated:
			st.Allocated++
		case Quarantined:
			st.Quarantined++
		}
	}
	return st
}
