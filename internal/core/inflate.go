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

		var old tm.Data
		var oldAddr machine.Addr
		if o.backupReady(env, or) {
			// The owner can no longer commit — its AbortNowPlease flag is
			// set, or it is tx — so its backup is the logical value: the
			// paper points the Locator's old-data field straight at it.
			old, oldAddr = or.bak, or.bakAddr
		} else {
			// The owner has not written in place yet, so the in-place data
			// is the logical value. Clone it registered as a reader and
			// re-check: an owner that marks its backup ready after the
			// re-check scans readers before it stores, finds us, and — its
			// own AbortNowPlease set — aborts instead. This is the only
			// place a non-owner reads in-place data under an active owner.
			o.registerReader(env, tx)
			tx.sc.reads = append(tx.sc.reads, o)
			if o.ownerWord(env) != or || o.backupReady(env, or) {
				continue
			}
			oldAddr = env.Alloc(o.words, false)
			env.Access(o.dataAddr, o.words, false)
			env.Access(oldAddr, o.words, true)
			env.Copy(o.words)
			old = o.data.Clone()
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
// owner word is swung from the Locator to tx with the valid data as its
// backup, and the valid data is copied back in place.
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

	// The new-data copy is untouched (== the current logical value): one
	// CAS takes in-place ownership with that copy as our ready backup — the
	// paper's backup-first order (§2.3.1) — then the Data field is restored.
	// Whoever finds us aborted before the copy lands uses the backup.
	r := tx.selfRef()
	r.bak, r.bakAddr = loc.newData, loc.newAddr
	r.ready.Store(true)
	env.Access(o.base+1, 1, true)
	preVer := o.version.Load()
	if !o.casOwner(env, or, r) {
		return false
	}
	tx.refreshRead(o, preVer)
	env.Access(loc.newAddr, o.words, false)
	env.Access(o.dataAddr, o.words, true)
	env.Copy(o.words)
	tx.guardedCopy(o, func() { o.data.CopyFrom(loc.newData) })
	tx.sys.stats.Deflations.Add(1)
	tx.th.Trace(trace.KindDeflate, o.base, 0, 0)
	return true
}
