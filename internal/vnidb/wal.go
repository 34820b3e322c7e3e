package vnidb

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Recover rebuilds a database by replaying a write-ahead log produced by a
// previous instance's Options.WAL stream. Each WAL line is one committed
// transaction (a JSON array of operations); partial trailing lines — the
// signature of a crash mid-write — are ignored, matching the atomicity
// guarantee of a WAL.
func Recover(r io.Reader, opts Options) (*DB, error) {
	db := Open(Options{MinVNI: opts.MinVNI, MaxVNI: opts.MaxVNI, Quarantine: opts.Quarantine})
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		var ops []walRecord
		if err := json.Unmarshal(raw, &ops); err != nil {
			// A torn final line is tolerated; a corrupt interior line is
			// a real error. We cannot distinguish without lookahead, so
			// peek: if any further content exists, fail.
			if sc.Scan() {
				return nil, fmt.Errorf("vnidb: corrupt WAL line %d: %v", lineNo, err)
			}
			break
		}
		if err := replayTx(db, ops); err != nil {
			return nil, fmt.Errorf("vnidb: WAL line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("vnidb: reading WAL: %v", err)
	}
	// Re-attach the live WAL writer only after replay so recovery does not
	// re-log history.
	db.opts.WAL = opts.WAL
	return db, nil
}

func replayTx(db *DB, ops []walRecord) error {
	return db.Update(func(tx *Tx) error {
		for _, op := range ops {
			switch op.Op {
			case OpAcquire:
				// Replay must land on the same VNI: acquire directly.
				if err := replayAcquire(tx, op); err != nil {
					return err
				}
			case OpRelease:
				if err := tx.Release(op.VNI, op.At); err != nil {
					return err
				}
			case OpAddUser:
				if err := tx.AddUser(op.VNI, op.User, op.At); err != nil {
					return err
				}
			case OpRemoveUser:
				if err := tx.RemoveUser(op.VNI, op.User, op.At); err != nil {
					return err
				}
			default:
				return fmt.Errorf("unknown op %q", op.Op)
			}
		}
		return nil
	})
}

// replayAcquire inserts the exact VNI recorded in the WAL rather than
// re-running the allocation scan, which could pick a different VNI if the
// pool configuration changed between runs.
func replayAcquire(tx *Tx, op walRecord) error {
	if err := tx.check(true); err != nil {
		return err
	}
	if r, ok := tx.db.rows[op.VNI]; ok && r.state == Allocated {
		return fmt.Errorf("replay acquire: vni %d already allocated", op.VNI)
	}
	u := tx.db.putRow(&row{
		vni: op.VNI, owner: op.Owner, state: Allocated,
		allocatedAt: op.At, users: make(map[string]bool),
	})
	tx.undo = append(tx.undo, func() { tx.db.revertRow(u) })
	tx.logOp(OpAcquire, op.VNI, op.Owner, "", op.At)
	return nil
}
