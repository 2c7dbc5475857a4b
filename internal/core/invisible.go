package core

import (
	"nztm/internal/tm"
)

// This file implements the invisible-readers mode (§2: the NZSTM algorithm
// "can handle read sharing with little modification, for both visible and
// invisible readers"). Invisible readers announce nothing: they take a
// private versioned snapshot of the object and re-validate their entire
// read set at every subsequent open and at commit. Writers therefore never
// wait for readers; a reader whose snapshot goes stale aborts itself on its
// next validation.
//
// The object version counts ownership changes and is bumped inside every
// successful owner-word CAS. In-place data is only ever mutated by the
// current owner, so "version unchanged and no active owner" certifies a
// snapshot. The snapshot copy itself runs inside the object's burst lock,
// pairing it against in-place mutation — the Go-safe stand-in for the
// unsynchronised-read-then-validate pattern a C implementation would use.

// validateReads re-validates the invisible read set, unwinding the
// transaction if any snapshot went stale. Called at every open, as DSTM
// does for invisible reads; this O(reads) incremental validation is the
// known cost of read invisibility and is charged one header access per
// entry.
func (tx *Txn) validateReads() {
	if tx.sys.cfg.Readers != InvisibleReaders || len(tx.sc.rset) == 0 {
		return
	}
	env := tx.th.Env
	for i := range tx.sc.rset {
		e := &tx.sc.rset[i]
		env.Access(e.o.base, 1, false)
		if e.o.version.Load() != e.ver {
			tx.status.Acknowledge()
			tm.Retry(tm.AbortConflict)
		}
	}
}

// commitReadsValid is the commit-time counterpart of validateReads: it
// returns false (instead of unwinding) when a snapshot went stale, so
// Atomic can count the abort and retry. The transaction's serialisation
// point is this final validation, as in DSTM.
func (tx *Txn) commitReadsValid() bool {
	if tx.sys.cfg.Readers != InvisibleReaders {
		return true
	}
	env := tx.th.Env
	for i := range tx.sc.rset {
		e := &tx.sc.rset[i]
		env.Access(e.o.base, 1, false)
		if e.o.version.Load() != e.ver {
			return false
		}
	}
	return true
}

// refreshRead upgrades the read-set entries for an object the transaction
// just acquired for writing: the acquisition's own version bump must not
// invalidate the transaction, but a foreign change since the snapshot
// (preVer differing from the recorded version) must.
func (tx *Txn) refreshRead(o *Object, preVer uint64) {
	if tx.sys.cfg.Readers != InvisibleReaders {
		return
	}
	for i := range tx.sc.rset {
		e := &tx.sc.rset[i]
		if e.o != o {
			continue
		}
		if e.ver != preVer {
			tx.status.Acknowledge()
			tm.Retry(tm.AbortConflict)
		}
		e.ver = preVer + 1
	}
}

// readInvisible opens an object for reading without registering: take a
// versioned snapshot (or serve displaced immutable data when inflated).
func (tx *Txn) readInvisible(o *Object) tm.Data {
	env := tx.th.Env
	for {
		or := o.ownerWord(env)
		if or != nil && or.loc != nil {
			if d, ok := tx.readInflatedInvisible(o, or); ok {
				return d
			}
			continue
		}
		w := (*Txn)(nil)
		if or != nil {
			w = or.txn
		}
		if w == tx {
			// We own it for writing: our in-place working data is current. Under SCSS a doomed owner can be stolen from,
			// so the fast path still snapshots; under NZ/BZ writers obtain
			// our acknowledgement first, so the raw pointer is safe.
			env.Access(o.dataAddr, o.words, false)
			return tx.maybeSnapshot(o, o.data)
		}
		if w != nil {
			env.Access(w.addr, 1, false)
			if w.status.State() == tm.Active {
				tx.resolveConflict(o, or, w, false)
				continue
			}
		}
		v1 := o.version.Load()
		d, daddr := o.logicalData(env, or)
		env.Access(daddr, o.words, false)

		// Copy the snapshot inside the burst lock, then certify it.
		var b tm.Backup
		o.scssMu.Lock()
		if o.version.Load() != v1 {
			o.scssMu.Unlock()
			continue
		}
		b = tx.th.GetBackup(d, nil)
		o.scssMu.Unlock()
		if o.version.Load() != v1 || o.owner.Load() != or {
			tx.th.PutBackup(b)
			continue
		}
		tx.sc.snaps = append(tx.sc.snaps, b)
		tx.sc.rset = append(tx.sc.rset, readEntry{o: o, ver: v1})
		tx.validate()
		return b.Data
	}
}

// readInflatedInvisible serves an invisible read of an inflated object: the
// displaced old/new copies are immutable once observable, so they are
// returned directly and certified by version on later validations.
func (tx *Txn) readInflatedInvisible(o *Object, or *ownerRef) (tm.Data, bool) {
	env := tx.th.Env
	loc := or.loc
	env.Access(loc.addr, locatorWords, false)
	tx.sys.stats.LocatorOps.Add(1)

	if loc.owner == tx {
		env.Access(loc.newAddr, o.words, false)
		return loc.newData, true
	}
	env.Access(loc.owner.addr, 1, false)
	st, anp := loc.owner.status.Load()
	if st == tm.Active && !anp {
		tx.resolveLocatorConflict(o, or, loc.owner)
		return nil, false
	}
	v1 := o.version.Load()
	if o.ownerWord(env) != or {
		return nil, false
	}
	var d tm.Data
	if st == tm.Committed {
		env.Access(loc.newAddr, o.words, false)
		d = loc.newData
	} else {
		env.Access(loc.oldAddr, o.words, false)
		d = loc.oldData
	}
	tx.sc.rset = append(tx.sc.rset, readEntry{o: o, ver: v1})
	tx.validate()
	return d, true
}
