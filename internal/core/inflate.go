package core

import (
	"nztm/internal/cm"
	"nztm/internal/machine"
	"nztm/internal/tm"
	"nztm/internal/trace"
)

// locatorWords is the simulated size of a Locator header (owner, aborted
// transaction, old data, new data — Figure 2).
const locatorWords = 4

// Locator is the DSTM-style metadata an NZObject is inflated into when a
// conflicting transaction is unresponsive (§2.3.1, Figure 2). While the
// object is inflated its logical data lives in the displaced old/new copies
// (two levels of indirection, charged to the cache model); the in-place
// Data field is invalid because the unresponsive transaction may still
// scribble on it.
type Locator struct {
	// owner is the transaction that installed the locator.
	owner *Txn

	// aborted is the unresponsive enemy the inflation stepped past,
	// preserved across locators. Its AbortNowPlease flag was set before the
	// inflation, so it can never commit.
	aborted *Txn

	oldData tm.Data // committed value if owner aborted
	newData tm.Data // committed value if owner committed; owner's working copy
	oldAddr machine.Addr
	newAddr machine.Addr

	addr  machine.Addr
	dirty bool // owner has mutated newData (blocks adoption as a backup)
}

// inflationSource returns the value (and its simulated address) that the
// new Locator's old-data field should adopt: the pending backup when one
// belongs to a non-committed transaction — either the unresponsive owner's
// own backup, or a still-unrestored backup of an earlier aborted owner
// (§2.3.1, including footnote 1) — otherwise the in-place data.
func (o *Object) inflationSource(env tm.Env) (tm.Data, machine.Addr, bool) {
	if c := o.loadBackup(env); c != nil {
		env.Access(c.by.addr, 1, false)
		if c.by.status.State() != tm.Committed {
			return c.data, c.addr, true // adopt the backup buffer itself
		}
	}
	return o.data, o.dataAddr, false
}

// inflate displaces o's data into a fresh Locator after the enemy
// transaction failed to acknowledge an abort request in time. The enemy is
// either the unresponsive owner (the owner word points to it) or an
// unresponsive visible reader (in which case tx itself is the owner).
func (tx *Txn) inflate(o *Object, enemy *Txn) {
	env := tx.th.Env

	for {
		tx.validate()
		env.Access(enemy.addr, 1, false)
		if enemy.status.State() != tm.Active {
			return // the enemy acknowledged after all; back to the fast path
		}
		or := o.ownerWord(env)
		if or == nil || or.loc != nil || (or.txn != enemy && or.txn != tx) {
			return // someone else resolved the situation; re-examine
		}

		src, srcAddr, adopted := o.inflationSource(env)
		var old tm.Data
		var oldAddr machine.Addr
		if adopted {
			// The paper points the locator's old-data field directly at
			// the unresponsive transaction's backup copy.
			old, oldAddr = src, srcAddr
		} else {
			oldAddr = env.Alloc(src.Words(), false)
			env.Access(srcAddr, o.words, false)
			env.Access(oldAddr, o.words, true)
			env.Copy(o.words)
			old = src.Clone()
		}
		newAddr := env.Alloc(old.Words(), false)
		env.Access(oldAddr, o.words, false)
		env.Access(newAddr, o.words, true)
		env.Copy(o.words)
		loc := &Locator{
			owner:   tx,
			aborted: enemy,
			oldData: old,
			newData: old.Clone(),
			oldAddr: oldAddr,
			newAddr: newAddr,
			addr:    env.Alloc(locatorWords, false),
		}
		env.Access(loc.addr, locatorWords, true)

		// Re-verify the paper's preconditions, then swing the owner word
		// to the Locator (the tagged-pointer CAS of §2.3.1).
		tx.validate()
		env.Access(enemy.addr, 1, false)
		if enemy.status.State() != tm.Active {
			return
		}
		if o.casOwner(env, or, tx.locRef(loc)) {
			tx.sys.stats.Inflations.Add(1)
			tx.sys.cfg.Tracer.Record(tx.th, tm.TraceInflate, o.base, uint64(enemy.th.ID))
			tx.th.Trace(trace.KindInflate, o.base, uint64(enemy.th.ID), 0)
			return
		}
	}
}

// readInflated serves a Read on an inflated object. It returns ok=false
// when the owner word changed and the caller must re-examine.
func (tx *Txn) readInflated(o *Object, or *ownerRef) (tm.Data, bool) {
	env := tx.th.Env
	loc := or.loc
	env.Access(loc.addr, locatorWords, false) // first level of indirection
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

	o.registerReader(env, tx)
	tx.sc.reads = append(tx.sc.reads, o)
	if o.ownerWord(env) != or {
		return nil, false // keep the registration, as Read does
	}
	tx.validate()
	if h := tx.sys.cfg.OnReadRegistered; h != nil {
		h(o)
	}

	// An owner whose AbortNowPlease flag is set can never commit (the
	// commit CAS requires a clean status word), so it counts as aborted
	// here even before it acknowledges: it only writes its private new-data
	// copy, never the displaced old data.
	if st == tm.Committed {
		env.Access(loc.newAddr, o.words, false) // second level of indirection
		return loc.newData, true
	}
	env.Access(loc.oldAddr, o.words, false)
	return loc.oldData, true
}

// updateInflated serves an Update on an inflated object: the nonblocking
// DSTM algorithm (§2.3.1), plus deflation when the unresponsive transaction
// has finally acknowledged. It returns false when the caller must
// re-examine the owner word.
func (tx *Txn) updateInflated(o *Object, or *ownerRef, fn func(tm.Data)) bool {
	env := tx.th.Env
	loc := or.loc
	env.Access(loc.addr, locatorWords, false)

	if loc.owner == tx {
		// We may have arrived here by inflating past ONE unresponsive
		// reader mid-acquisition; any OTHER registered reader must still be
		// doomed before we write a new version, or it could commit a stale
		// read. (Found by the read-sharing model checker.)
		tx.doomReaders(o)
		if tx.tryDeflate(o, or) {
			tx.applyStore(o, o.data, o.dataAddr, fn)
			return true
		}
		loc.dirty = true
		tx.applyStore(o, loc.newData, loc.newAddr, fn)
		return true
	}

	env.Access(loc.owner.addr, 1, false)
	st, anp := loc.owner.status.Load()
	if st == tm.Active && !anp {
		tx.resolveLocatorConflict(o, or, loc.owner)
		return false
	}

	// Determine the current value and build the replacement Locator,
	// preserving the unresponsive transaction's identity (§2.3.1).
	var cur tm.Data
	var curAddr machine.Addr
	if st == tm.Committed {
		cur, curAddr = loc.newData, loc.newAddr
	} else {
		cur, curAddr = loc.oldData, loc.oldAddr
	}
	newAddr := env.Alloc(cur.Words(), false)
	env.Access(curAddr, o.words, false)
	env.Access(newAddr, o.words, true)
	env.Copy(o.words)
	loc2 := &Locator{
		owner:   tx,
		aborted: loc.aborted,
		oldData: cur,
		newData: cur.Clone(),
		oldAddr: curAddr,
		newAddr: newAddr,
		addr:    env.Alloc(locatorWords, false),
	}
	env.Access(loc2.addr, locatorWords, true)

	tx.validate()
	or2 := tx.locRef(loc2)
	preVer := o.version.Load()
	if !o.casOwner(env, or, or2) {
		return false
	}
	tx.refreshRead(o, preVer)
	tx.BumpPriority()
	tx.sys.stats.LocatorOps.Add(1)

	// Neutralise visible readers: every registered active reader must be
	// doomed (AbortNowPlease set) before we can commit a new version. No
	// acknowledgement is needed — readers of an inflated object only hold
	// displaced copies that we never mutate.
	tx.doomReaders(o)

	if tx.tryDeflate(o, or2) {
		tx.applyStore(o, o.data, o.dataAddr, fn)
		return true
	}
	loc2.dirty = true
	tx.applyStore(o, loc2.newData, loc2.newAddr, fn)
	return true
}

// doomReaders drives every registered reader (other than tx) to a state in
// which it can no longer commit: finished, acknowledged, or AbortNowPlease
// set. Contention-manager Wait decisions spin; AbortSelf unwinds tx.
func (tx *Txn) doomReaders(o *Object) {
	env := tx.th.Env
	mgr := tx.sys.cfg.Manager
	dir, _ := o.readerSlots()
	for _, chunk := range dir {
		for i := range chunk {
			slot := &chunk[i]
			start := env.Now()
			for {
				r := slot.Load()
				if r == nil || r == tx {
					break
				}
				env.Access(r.addr, 1, false)
				st, anp := r.status.Load()
				if st != tm.Active || anp {
					break
				}
				tx.validate()
				switch mgr.Resolve(tx, r, env.Now()-start) {
				case cm.Wait:
					env.Spin()
				case cm.AbortSelf:
					tx.status.Acknowledge()
					tm.Retry(tm.AbortSelf)
				case cm.AbortOther:
					env.CAS(r.addr)
					r.status.RequestAbort()
					tx.sys.stats.AbortRequests.Add(1)
					tx.validate()
				}
			}
		}
	}
}

// resolveLocatorConflict mediates a conflict with an active Locator owner.
// Unlike the in-place case there is no acknowledgement to wait for: setting
// the enemy's AbortNowPlease flag alone prevents it from committing, and it
// only ever writes its private new-data copy — this is exactly the original
// DSTM abort semantics the inflated state falls back to.
func (tx *Txn) resolveLocatorConflict(o *Object, or *ownerRef, enemy *Txn) {
	env := tx.th.Env
	mgr := tx.sys.cfg.Manager
	start := env.Now()
	tx.sys.stats.Waits.Add(1)
	defer tx.SetWaiting(false)

	for {
		tx.validate()
		if o.owner.Load() != or {
			return
		}
		env.Access(enemy.addr, 1, false)
		st, anp := enemy.status.Load()
		if st != tm.Active || anp {
			return
		}
		switch mgr.Resolve(tx, enemy, env.Now()-start) {
		case cm.Wait:
			env.Spin()
		case cm.AbortSelf:
			tx.status.Acknowledge()
			tm.Retry(tm.AbortSelf)
		case cm.AbortOther:
			env.CAS(enemy.addr)
			enemy.status.RequestAbort()
			tx.sys.stats.AbortRequests.Add(1)
			tx.validate()
			return
		}
	}
}

// tryDeflate restores an inflated object (owned by tx via its Locator) to
// its normal in-place representation (§2.3.1): once the unresponsive
// transaction has finally aborted itself — so it can no longer scribble on
// the Data field — and no pre-inflation zombie reader is still active, the
// object's backup is pointed at the valid data, the owner word is swung
// from the Locator to tx, and the valid data is copied back in place.
func (tx *Txn) tryDeflate(o *Object, or *ownerRef) bool {
	env := tx.th.Env
	loc := or.loc
	if loc.dirty {
		// Our working copy already diverged; deflation would need it as
		// both backup and live value. Stay inflated for this transaction.
		return false
	}
	env.Access(loc.aborted.addr, 1, false)
	if loc.aborted.status.State() != tm.Aborted {
		return false // still unresponsive: in-place data is still unsafe
	}
	tx.validate()

	// Any still-active registered reader may be reading the in-place data
	// from before inflation; deflation writes it, so it must wait.
	dir, n := o.readerSlots()
	env.Access(o.readerAddr, n, false)
	for _, chunk := range dir {
		for i := range chunk {
			if r := chunk[i].Load(); r != nil && r != tx &&
				r.status.State() == tm.Active {
				return false
			}
		}
	}

	// The new-data copy is untouched (== the current logical value): take
	// in-place ownership, adopt the copy as our backup, and restore the
	// Data field. The paper installs the backup first (§2.3.1); we make the
	// owner-word CAS the linearization point instead, which is equivalent
	// here because every consumer blocks on an Active owner before looking
	// at the backup — and it prevents a stale doomed deflator from ever
	// touching the Backup Data field (it can no longer win this CAS).
	preVer := o.version.Load()
	if !o.casOwner(env, or, tx.selfRef()) {
		return false
	}
	tx.refreshRead(o, preVer)
	o.setBackup(env, tx.newCell(loc.newData, loc.newAddr))
	env.Access(loc.newAddr, o.words, false)
	env.Access(o.dataAddr, o.words, true)
	env.Copy(o.words)
	tx.guardedCopy(o, func() { o.data.CopyFrom(loc.newData) })
	tx.sc.owned = append(tx.sc.owned, o)
	tx.sys.stats.Deflations.Add(1)
	tx.sys.cfg.Tracer.Record(tx.th, tm.TraceDeflate, o.base, 0)
	tx.th.Trace(trace.KindDeflate, o.base, 0, 0)
	return true
}
