package core

import (
	"nztm/internal/cm"
	"nztm/internal/machine"
	"nztm/internal/tm"
	"nztm/internal/trace"
)

// Txn is an NZSTM transaction descriptor (Figure 1): a status word packing
// {Active, Committed, Aborted} with the AbortNowPlease flag, plus
// contention-manager metadata. As in the paper (§3) every attempt allocates
// a fresh one, so a pointer to it left in an owner word, a Locator or a
// reader slot denotes that one attempt forever; Go's garbage collector
// reclaims it once nothing points to it.
type Txn struct {
	cm.Meta
	status tm.StatusWord

	sys  *System
	th   *tm.Thread
	addr machine.Addr // simulated address of the status word
	sc   *scratch     // the thread's working memory, checked out to this attempt
}

// scratch is a thread's private working memory for one System: read and
// write sets, the bump arenas and the Atomic trampoline. It is checked out
// to one attempt at a time (begin → finish) and parked in the thread's
// scratch slot in between, so the per-attempt descriptor stays one small
// allocation.
type scratch struct {
	tx  *Txn              // the attempt the scratch is checked out to
	fn  func(tm.Tx) error // that attempt's user function
	run func() error      // built once: calls fn(tx) without a per-attempt closure

	// addr is the simulated address of the thread's descriptors: the
	// simulated machine models a thread-local allocator that hands the
	// same memory to each attempt.
	addr machine.Addr

	reads []*Object   // objects whose reader slots we occupy (visible mode)
	rset  []readEntry // versioned snapshot records (invisible mode)
	owned []*Object   // non-inflated objects we acquired for writing
	snaps []tm.Backup

	// Bump arena for ownerRef values. They are CAS identities (casOwner
	// compares the pointers), so each must be fresh memory, never recycled
	// — but they need not each be a separate heap allocation. Blocks are
	// abandoned to the GC when exhausted; any published pointer keeps its
	// block alive.
	refArena []ownerRef
	refN     int
}

// newScratch allocates a thread's working memory for s.
func (s *System) newScratch() *scratch {
	sc := &scratch{addr: s.world.Alloc(2, false)}
	sc.run = func() error { return sc.fn(sc.tx) }
	return sc
}

// arenaBlock sizes the ownerRef bump-arena blocks: one block amortises to
// ~1/64th of an allocation per install.
const arenaBlock = 64

// newRef returns fresh ownerRef memory from the bump arena.
func (sc *scratch) newRef() *ownerRef {
	if sc.refN == len(sc.refArena) {
		sc.refArena = make([]ownerRef, arenaBlock)
		sc.refN = 0
	}
	r := &sc.refArena[sc.refN]
	sc.refN++
	return r
}

// selfRef builds the owner word value "owned by tx".
func (tx *Txn) selfRef() *ownerRef {
	r := tx.sc.newRef()
	r.txn = tx
	return r
}

// locRef builds the owner word value "inflated into loc".
func (tx *Txn) locRef(loc *Locator) *ownerRef {
	r := tx.sc.newRef()
	r.loc = loc
	return r
}

// claimRef builds the owner word tx installs over the plain word or. If
// or's owner aborted after publishing its backup, that backup is still the
// object's logical value: the new word adopts it, so one CAS publishes owner
// and backup together. Otherwise the in-place data is the logical value,
// and the new word's backup is not ready until acquireWrite has copied it.
func (tx *Txn) claimRef(o *Object, or *ownerRef) *ownerRef {
	r := tx.selfRef()
	if or != nil && o.backupReady(tx.th.Env, or) && or.txn.status.State() == tm.Aborted {
		r.bak, r.bakAddr = or.bak, or.bakAddr
		r.ready.Store(true)
	}
	return r
}

// readEntry is one invisible-mode read-set record: the object and the
// version its snapshot was taken at.
type readEntry struct {
	o   *Object
	ver uint64
}

// Status exposes the transaction's status word (used by the hybrid's
// hardware path and by tests).
func (tx *Txn) Status() *tm.StatusWord { return &tx.status }

// validate checks the transaction's own AbortNowPlease flag; if it is set
// the transaction acknowledges (sets its own status to Aborted, §2.2) and
// unwinds. Called at every open, as the paper recommends — it is also what
// keeps the data seen by user code consistent: a transaction only
// acknowledges at validation points, so a writer that has obtained our
// acknowledgement knows our user code will never run again.
func (tx *Txn) validate() {
	tx.th.Env.Access(tx.addr, 1, false)
	st, anp := tx.status.Load()
	if st == tm.Active && !anp {
		return
	}
	tx.status.Acknowledge()
	tm.Retry(tm.AbortRequest)
}

// finish releases per-attempt state: reader-table slots are cleared, SCSS
// read snapshots are recycled, on commit the backup buffers the transaction
// took from the thread-local pool return to it (aborted transactions must
// leave their backups in place — the next acquirer restores from them,
// §2.2), and the scratch goes back to the thread for its next attempt.
func (tx *Txn) finish(committed bool) {
	env := tx.th.Env
	sc := tx.sc
	for _, o := range sc.reads {
		o.deregisterReader(env, tx)
	}
	if committed {
		// Only while the owner word still holds the reference the buffer
		// was filled for: inflating past a reader lends the backup to a
		// Locator, and the hybrid's HWPublish may have cleared the word.
		for _, o := range sc.owned {
			if or := o.owner.Load(); or != nil && or.txn == tx && or.pooled {
				tx.th.PutBackup(tm.Backup{Data: or.bak, Addr: or.bakAddr})
			}
		}
	}
	for _, s := range sc.snaps {
		tx.th.PutBackup(s)
	}
	sc.tx, sc.fn = nil, nil
	sc.reads = sc.reads[:0]
	sc.rset = sc.rset[:0]
	sc.owned = sc.owned[:0]
	sc.snaps = sc.snaps[:0]
	tx.th.SetScratch(tx.sys, sc)
}

// logicalData returns the object's current logical value given that no
// active writer holds the plain owner word or: if its owner aborted after
// publishing a backup, the lazy restoration is still pending and the backup
// is the truth (§2.2); otherwise the in-place data is.
func (o *Object) logicalData(env tm.Env, or *ownerRef) (tm.Data, machine.Addr) {
	env.Access(o.base+1, 1, false)
	if or != nil && or.ready.Load() && or.txn.status.State() == tm.Aborted {
		return or.bak, or.bakAddr
	}
	return o.data, o.dataAddr
}

// Release implements tm.Releaser: DSTM-style early release. In visible
// mode the reader's registration is withdrawn (a writer waiting on it
// proceeds immediately); in invisible mode the object's read-set entries
// are dropped, so later validations ignore it.
func (tx *Txn) Release(obj tm.Object) {
	o := obj.(*Object)
	env := tx.th.Env
	if tx.sys.cfg.Readers == InvisibleReaders {
		kept := tx.sc.rset[:0]
		for _, e := range tx.sc.rset {
			if e.o != o {
				kept = append(kept, e)
			}
		}
		tx.sc.rset = kept
		return
	}
	// Keep the read list as-is (deregistration is idempotent at finish); clear
	// the visible slot now so writers stop treating us as an obstacle.
	o.deregisterReader(env, tx)
}

// Read implements tm.Tx: open the object for shared reading (§2.2 extended
// with visible read sharing).
func (tx *Txn) Read(obj tm.Object) tm.Data {
	o := obj.(*Object)
	env := tx.th.Env
	tx.validate()
	tx.validateReads()
	tx.th.Trace(trace.KindRead, o.base, 0, 0)
	if c := tx.sys.cfg.InflationCheckCost; c > 0 {
		env.Work(c)
	}
	if tx.sys.cfg.Readers == InvisibleReaders {
		return tx.readInvisible(o)
	}

	for {
		or := o.ownerWord(env)
		if or != nil && or.loc != nil {
			if d, ok := tx.readInflated(o, or); ok {
				return d
			}
			continue
		}
		w := (*Txn)(nil)
		if or != nil {
			w = or.txn
		}
		if w == tx {
			// We own it for writing: our in-place working data is current.
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
		// No active writer. Register visibly, then re-confirm the owner
		// word: a writer that acquired between our check and registration
		// would have missed us in its reader scan; symmetrically, writers
		// re-scan the reader table after claiming ownership. A failed
		// re-check keeps the registration: the slot is one per thread, not
		// one per read, and may stand for an earlier read of this object in
		// this attempt that a writer must still resolve (finish clears it).
		o.registerReader(env, tx)
		tx.sc.reads = append(tx.sc.reads, o)
		if o.ownerWord(env) != or {
			continue
		}
		tx.validate()
		if h := tx.sys.cfg.OnReadRegistered; h != nil {
			h(o)
		}
		d, daddr := o.logicalData(env, or)
		env.Access(daddr, o.words, false)
		return tx.maybeSnapshot(o, d)
	}
}

// maybeSnapshot returns d directly in the NZ and BZ variants. In the SCSS
// variant reads return a private snapshot taken inside the object's short
// hardware transaction: SCSS has no inflation, so a writer may steal an
// object from an unresponsive reader and immediately mutate data in place;
// the snapshot keeps such zombie readers safe. The snapshot copy is charged
// like a plain read (the paper's SCSS instrumentation wraps stores, not
// loads, §2.3.2).
func (tx *Txn) maybeSnapshot(o *Object, d tm.Data) tm.Data {
	if tx.sys.cfg.Variant != SCSS {
		return d
	}
	o.scssMu.Lock()
	if st, anp := tx.status.Load(); anp || st != tm.Active {
		o.scssMu.Unlock()
		tx.status.Acknowledge()
		tm.Retry(tm.AbortRequest)
	}
	b := tx.th.GetBackup(d, nil)
	o.scssMu.Unlock()
	tx.sc.snaps = append(tx.sc.snaps, b)
	return b.Data
}

// Update implements tm.Tx: open the object for exclusive writing and apply
// fn to its data. fn must not open other objects.
func (tx *Txn) Update(obj tm.Object, fn func(tm.Data)) {
	o := obj.(*Object)
	env := tx.th.Env
	tx.validate()
	tx.validateReads()
	if c := tx.sys.cfg.InflationCheckCost; c > 0 {
		env.Work(c)
	}

	for {
		or := o.ownerWord(env)
		if or != nil && or.loc != nil {
			if tx.updateInflated(o, or, fn) {
				return
			}
			continue
		}
		w := (*Txn)(nil)
		if or != nil {
			w = or.txn
		}
		if w == tx {
			tx.applyStore(o, o.data, o.dataAddr, fn)
			return
		}
		if !tx.acquireWrite(o, or, w) {
			continue
		}
		tx.applyStore(o, o.data, o.dataAddr, fn)
		return
	}
}

// applyStore runs one mutation burst against d (the in-place data, or a
// Locator's new-data copy when addr says so). In the SCSS variant the burst
// happens inside a simulated short hardware transaction that atomically
// pairs the stores with a check of our AbortNowPlease flag, making late
// writes impossible (§2.3.2); the other variants rely on the
// acknowledgement protocol instead.
func (tx *Txn) applyStore(o *Object, d tm.Data, addr machine.Addr, fn func(tm.Data)) {
	env := tx.th.Env
	env.Access(addr, o.words, true)
	if tx.sys.cfg.Variant == SCSS {
		// Charges happen before taking the lock: an Env call is a scheduling
		// point in sim mode and must never run inside a held mutex.
		env.Work(tx.sys.cfg.SCSSStoreCost)
	}
	if tx.needsGuard() {
		tx.scssGuard(o, func() { fn(d) })
		return
	}
	fn(d)
}

// scssGuard executes f inside o's simulated short hardware transaction,
// aborting the caller if its AbortNowPlease flag is set — the
// Single-Compare (status word) Single-Store (the burst) pairing.
func (tx *Txn) scssGuard(o *Object, f func()) {
	o.scssMu.Lock()
	if st, anp := tx.status.Load(); anp || st != tm.Active {
		o.scssMu.Unlock()
		tx.status.Acknowledge()
		tm.Retry(tm.AbortRequest)
	}
	f()
	o.scssMu.Unlock()
}

// needsGuard reports whether data copies and store bursts must run inside
// the object's burst lock: SCSS steals objects after a barrier rather than
// an acknowledgement, and invisible readers take snapshots that would
// otherwise race with in-place mutation.
func (tx *Txn) needsGuard() bool {
	return tx.sys.cfg.Variant == SCSS || tx.sys.cfg.Readers == InvisibleReaders
}

// guardedCopy performs a data copy that must not race with an SCSS steal or
// an invisible reader's snapshot; under visible-reader NZ/BZ the
// acknowledgement protocol already guarantees exclusivity.
func (tx *Txn) guardedCopy(o *Object, f func()) {
	if tx.needsGuard() {
		tx.scssGuard(o, f)
		return
	}
	f()
}

// acquireWrite takes exclusive ownership of a non-inflated object whose
// observed owner word is or (owner transaction w, possibly nil). It returns
// false if the caller must re-examine the object.
func (tx *Txn) acquireWrite(o *Object, or *ownerRef, w *Txn) bool {
	env := tx.th.Env

	// Resolve the writer conflict, if any (§2.2).
	if w != nil {
		env.Access(w.addr, 1, false)
		if w.status.State() == tm.Active {
			tx.resolveConflict(o, or, w, false)
			return false // re-examine whatever state resolution left behind
		}
	}

	// Claim ownership.
	preVer := o.version.Load()
	r := tx.claimRef(o, or)
	adopted := r.ready.Load()
	if !o.casOwner(env, or, r) {
		return false
	}
	tx.refreshRead(o, preVer)
	tx.BumpPriority() // Karma: priority ∝ objects acquired (§4.3)
	tx.sc.owned = append(tx.sc.owned, o)
	tx.th.Trace(trace.KindAcquire, o.base, 0, 0)

	// With nothing adopted, back the in-place data up into a buffer from
	// the thread-local pool (§2.2) and mark it ready before the reader scan
	// or any store: until then the in-place data is the truth. The copy is
	// guarded because under SCSS a stealer may already be storing in place.
	if !adopted {
		env.Access(o.dataAddr, o.words, false)
		env.Access(o.base+1, 1, true)
		var b tm.Backup
		tx.guardedCopy(o, func() { b = tx.th.GetBackup(o.data, tx.sys.stats) })
		env.Access(b.Addr, o.words, true)
		env.Copy(o.words)
		r.bak, r.bakAddr, r.pooled = b.Data, b.Addr, true
		r.ready.Store(true)
	}

	// Now resolve visible readers. This must happen after the CAS (a reader
	// registering concurrently re-checks the owner word and will see us)
	// and before we touch the data in place.
	for {
		r := o.firstActiveReader(env, tx)
		if r == nil {
			break
		}
		if !tx.resolveConflict(o, o.owner.Load(), r, true) {
			// The object was inflated out from under us (we inflated past
			// an unresponsive reader). Re-examine.
			return false
		}
	}

	// An adopted backup is the aborted predecessor's: lazily restore it in
	// place (§2.2). It stays our backup, so that is the only copy.
	if adopted {
		env.Access(r.bakAddr, o.words, false)
		env.Access(o.dataAddr, o.words, true)
		env.Copy(o.words)
		tx.guardedCopy(o, func() { o.data.CopyFrom(r.bak) })
	}

	// Final validation: if we have been asked to abort, acknowledge (§2.2).
	tx.validate()
	return true
}

// resolveConflict handles a conflict between tx and the active enemy over
// object o, whose owner word was observed as or. enemyIsReader records
// whether the enemy holds o as a visible reader (otherwise it is the owner).
// It returns true when the enemy is no longer an obstacle (acknowledged,
// finished, or deregistered) and false when the object's owner word changed
// — including when we inflated it — so the caller must re-examine. It
// unwinds tx when the manager decides AbortSelf.
func (tx *Txn) resolveConflict(o *Object, or *ownerRef, enemy *Txn, enemyIsReader bool) bool {
	env := tx.th.Env
	mgr := tx.sys.cfg.Manager
	start := env.Now()
	requested := false
	waitTraced := false
	tx.sys.stats.Waits.Add(1)
	enemyRole := uint64(0)
	if enemyIsReader {
		enemyRole = 1
	}
	tx.th.Trace(trace.KindConflict, o.base, uint64(enemy.th.ID), enemyRole)
	defer tx.SetWaiting(false)

	for {
		tx.validate()

		// Is the enemy still an obstacle at all?
		if enemyIsReader {
			if o.readerSlotLoad(enemy.th.ID) != enemy {
				return true
			}
		} else if o.owner.Load() != or {
			return false
		}
		env.Access(enemy.addr, 1, false)
		if enemy.status.State() != tm.Active {
			return true
		}

		if !requested {
			switch mgr.Resolve(tx, enemy, env.Now()-start) {
			case cm.Wait:
				// Stamp the wait verdict once per conflict, not once per
				// spin iteration: a long wait would otherwise evict every
				// other event from the ring.
				if !waitTraced {
					waitTraced = true
					tx.th.Trace(trace.KindCMWait, o.base, uint64(enemy.th.ID), 0)
				}
				env.Spin()
			case cm.AbortSelf:
				tx.th.Trace(trace.KindCMAbortSelf, o.base, uint64(enemy.th.ID), 0)
				tx.status.Acknowledge()
				tm.Retry(tm.AbortSelf)
			case cm.AbortOther:
				// Request, never force (§2.2): set the enemy's
				// AbortNowPlease, then confirm that we have not been asked
				// to abort ourselves before waiting for the ack.
				env.CAS(enemy.addr)
				if enemy.status.RequestAbort() != tm.Active {
					return true
				}
				tx.sys.stats.AbortRequests.Add(1)
				tx.th.Trace(trace.KindCMAbortOther, o.base, uint64(enemy.th.ID), 0)
				tx.validate()
				requested = true
				start = env.Now() // acknowledgement patience starts now
			}
			continue
		}

		// Waiting for the acknowledgement.
		waited := env.Now() - start
		switch tx.sys.cfg.Variant {
		case BZ:
			env.Spin() // blocking: wait forever (§2.2)
		case SCSS:
			if waited < tx.sys.cfg.AckPatience {
				env.Spin()
				continue
			}
			// SCSS pairs every store (and read snapshot) with an
			// AbortNowPlease check inside the object's short hardware
			// transaction, so after one barrier through it the enemy can no
			// longer touch the data: it is safely dead without an
			// acknowledgement (§2.3.2).
			env.Work(tx.sys.cfg.SCSSStoreCost)
			o.scssMu.Lock()
			o.scssMu.Unlock()          //nolint:staticcheck // memory barrier, not a critical section
			enemy.status.Acknowledge() // now indistinguishable from acked
			return true
		default: // NZ
			if waited < tx.sys.cfg.AckPatience {
				env.Spin()
				continue
			}
			// Unresponsive enemy: make progress nonblocking by inflating
			// the object (§2.3.1).
			tx.inflate(o, enemy)
			if enemyIsReader && or.txn == tx && o.owner.Load() == or {
				// inflate backed out: the reader acknowledged after all and
				// the owner word is still our own plain reference. We hold
				// the object half acquired — readers unscanned, nothing
				// restored — so this is not "re-examine": keep resolving,
				// which now finds the reader gone and lets acquireWrite
				// carry on. (An
				// owner word that is not ours — somebody inflated past us —
				// is for the caller to re-examine, as before.)
				continue
			}
			return false
		}
	}
}
