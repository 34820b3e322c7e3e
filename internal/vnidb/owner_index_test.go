package vnidb

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"github.com/caps-sim/shs-k8s/internal/fabric"
)

// scanOwners is the full-table scan the owner index replaces: the owner
// of every Allocated row.
func scanOwners(db *DB) map[string]fabric.VNI {
	out := make(map[string]fabric.VNI)
	for v, r := range db.rows {
		if r.state == Allocated {
			out[r.owner] = v
		}
	}
	return out
}

// checkOwnerIndex asserts the owner index holds exactly the Allocated rows
// and that FindByOwner agrees with a full scan for every owner in owners
// (released and never-seen ones included).
func checkOwnerIndex(t *testing.T, db *DB, step string, owners ...string) {
	t.Helper()
	db.mu.Lock()
	want := scanOwners(db)
	if len(db.byOwner) != len(want) {
		t.Errorf("%s: index has %d owners, table has %d allocated rows", step, len(db.byOwner), len(want))
	}
	db.mu.Unlock()
	all := append([]string(nil), owners...)
	for o := range want {
		all = append(all, o)
	}
	sort.Strings(all)
	db.View(func(tx *Tx) error {
		for _, o := range all {
			v, wantOK := want[o]
			r, ok := tx.FindByOwner(o)
			if ok != wantOK || (ok && (r.VNI != v || r.Owner != o || r.State != Allocated)) {
				t.Errorf("%s: FindByOwner(%q) = %+v ok=%v, full scan says vni %d ok=%v", step, o, r, ok, v, wantOK)
			}
		}
		return nil
	})
}

func TestOwnerIndexAcquireRelease(t *testing.T) {
	db := Open(small())
	var va, vb fabric.VNI
	db.Update(func(tx *Tx) error {
		va, _ = tx.Acquire("a", at(0))
		vb, _ = tx.Acquire("b", at(0))
		tx.Acquire("c", at(0))
		return nil
	})
	checkOwnerIndex(t, db, "after acquire", "a", "b", "c", "ghost")

	db.Update(func(tx *Tx) error { return tx.Release(vb, at(1)) })
	checkOwnerIndex(t, db, "after release", "a", "b", "c")

	// Fill the pool past b's quarantine so its VNI is reused by a new owner.
	db.Update(func(tx *Tx) error {
		for i := 0; ; i++ {
			v, err := tx.Acquire(fmt.Sprintf("fill%d", i), at(60))
			if err != nil {
				return nil
			}
			if v == vb {
				return nil
			}
		}
	})
	checkOwnerIndex(t, db, "after quarantine reuse", "a", "b", "c")

	sentinel := errors.New("boom")
	err := db.Update(func(tx *Tx) error {
		if err := tx.Release(va, at(61)); err != nil {
			return err
		}
		if _, err := tx.Acquire("a", at(61)); err != nil && !errors.Is(err, ErrExhausted) {
			return err
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	checkOwnerIndex(t, db, "after rolled-back update", "a", "b", "c")
	db.View(func(tx *Tx) error {
		if r, ok := tx.FindByOwner("a"); !ok || r.VNI != va {
			t.Errorf("rollback lost a's allocation: %+v ok=%v", r, ok)
		}
		return nil
	})
}

func TestOwnerIndexRollbackOfAcquireAndReuse(t *testing.T) {
	opts := small()
	opts.Quarantine = 0
	db := Open(opts)
	var v fabric.VNI
	db.Update(func(tx *Tx) error {
		v, _ = tx.Acquire("old", at(0))
		return tx.Release(v, at(0))
	})
	// Re-acquire every VNI, including the released one, then roll back.
	db.Update(func(tx *Tx) error {
		for i := 0; i < 10; i++ {
			if _, err := tx.Acquire(fmt.Sprintf("new%d", i), at(1)); err != nil {
				return err
			}
		}
		return errors.New("abort")
	})
	checkOwnerIndex(t, db, "after rolled-back refill", "old", "new0", "new9")
	if len(db.byOwner) != 0 {
		t.Errorf("index not empty after rollback: %v", db.byOwner)
	}
}

func TestOwnerIndexAfterWALRecover(t *testing.T) {
	var wal bytes.Buffer
	opts := small()
	opts.WAL = &wal
	db := Open(opts)
	var v1 fabric.VNI
	db.Update(func(tx *Tx) error {
		v1, _ = tx.Acquire("job/a", at(0))
		v2, _ := tx.Acquire("claim/b", at(0))
		tx.AddUser(v2, "job/x", at(1))
		tx.Acquire("job/c", at(1))
		return nil
	})
	db.Update(func(tx *Tx) error { return tx.Release(v1, at(2)) })
	db.Update(func(tx *Tx) error {
		tx.Acquire("job/d", at(3))
		return errors.New("rolled back, never logged")
	})

	re, err := Recover(bytes.NewReader(wal.Bytes()), small())
	if err != nil {
		t.Fatal(err)
	}
	checkOwnerIndex(t, re, "after recover", "job/a", "claim/b", "job/c", "job/d")
	if got, want := scanOwners(re), scanOwners(db); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("recovered owners %v, original %v", got, want)
	}
}

// TestOwnerIndexUnderUnsafeDoubleAllocation: the TOCTOU strawman's second
// insert overwrites the first owner's row, and the index follows it.
func TestOwnerIndexUnderUnsafeDoubleAllocation(t *testing.T) {
	db := Open(Options{MinVNI: 100, MaxVNI: 200, Quarantine: 0})
	gate := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(2)
	ua := NewUnsafeAllocator(db, func() {
		entered.Done()
		<-gate
	})
	results := make(chan fabric.VNI, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			v, err := ua.Acquire(fmt.Sprintf("racer%d", i), at(0))
			if err != nil {
				t.Error(err)
			}
			results <- v
		}()
	}
	entered.Wait()
	close(gate)
	if a, b := <-results, <-results; a != b {
		t.Fatalf("expected a double allocation, got %d and %d", a, b)
	}
	checkOwnerIndex(t, db, "after double allocation", "racer0", "racer1")
	if n := len(scanOwners(db)); n != 1 {
		t.Fatalf("%d allocated owners, want the one that won the row", n)
	}
}
