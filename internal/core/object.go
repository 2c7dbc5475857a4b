// Package core implements NZSTM — the paper's primary contribution: a
// nonblocking, zero-indirection, object-based software transactional memory
// (§2) — together with its two siblings from the evaluation (§4.3):
//
//   - NZSTM (§2.3.1): object data lives "in place"; conflicts are resolved by
//     requesting that the enemy abort itself (AbortNowPlease) and waiting
//     briefly for the acknowledgement; an unresponsive enemy causes the
//     object to be "inflated" into a DSTM-style Locator so that progress
//     continues nonblocking, and the object is later deflated back in place.
//   - BZSTM (§2.2): the blocking variant — identical, except that it waits
//     for acknowledgements forever and objects are never inflated.
//   - SCSS (§2.3.2): the variant for machines with small hardware
//     transactions — every store is paired with a check of the writer's own
//     AbortNowPlease flag via a simulated Single-Compare-Single-Store, which
//     makes "late writes" impossible and removes the inflation machinery
//     entirely.
//
// All three share one implementation parameterised by Config.Variant, which
// is faithful to the paper: BZSTM and SCSS are described there as
// simplifications of NZSTM.
package core

import (
	"sync"
	"sync/atomic"

	"nztm/internal/machine"
	"nztm/internal/tm"
)

// headerWords is the simulated size of the NZObject header: Owner, Backup
// Data, Clone, and one word of padding (Figure 1).
const headerWords = 4

// ownerRef is the decoded value of the NZObject Owner field. The paper packs
// "points to a Transaction" and "points to a Locator" into one word using the
// pointer's low-order bit (§2.3.1); Go's garbage collector forbids tagged
// pointers, so the tag is modelled by which field is non-nil. The simulated
// layout still charges a single header word for it.
//
// A plain reference also carries its owner's backup (Figure 1's Backup
// Data word, still charged at base+1), so claiming, restoring and deflating
// publish through the one Owner word and no backup is ever matched to its
// owner (§2.3.1 footnote 1). bak, at bakAddr, is the value from before
// txn's writes. txn sets ready before it writes in place, so until then the
// in-place data is current; after, txn's status decides (§2.2): Committed,
// the in-place data; Aborted, bak until a successor restores it. pooled
// marks a buffer from txn's thread-local pool; a backup adopted from an
// aborted predecessor or a Locator is never recycled, because a stale
// reader may still hold it.
//
// ownerRef values are CAS identities (casOwner compares the pointer), so
// they must be fresh memory per install — they come from a per-thread bump
// arena, never a free list (see scratch.newRef).
type ownerRef struct {
	txn *Txn     // non-nil: normal NZObject owned by this transaction
	loc *Locator // non-nil: inflated object (the low-order-bit case)

	bak     tm.Data
	bakAddr machine.Addr
	ready   atomic.Bool
	pooled  bool
}

// Object is an NZObject (Figure 1): collocated metadata plus in-place data.
type Object struct {
	owner atomic.Pointer[ownerRef]

	// data is the in-place Data field. Its identity never changes while the
	// object is deflated: writers mutate it in place after securing a
	// backup, and aborted writers' effects are undone by copying the backup
	// back into it.
	data tm.Data

	// readers is the visible-reader table: one slot per thread slot ID. A
	// writer must obtain acknowledgements from (or, in NZSTM, inflate past)
	// every active registered reader before mutating data in place. The
	// table is chunked and grows on demand to the registry's high-water
	// mark: the directory (an immutable slice of chunk pointers) is swapped
	// atomically, and chunk pointers are shared between directory versions,
	// so a registration in an old chunk stays visible through any number of
	// growths. See DESIGN.md §10.
	readers atomic.Pointer[[]*readerChunk]

	// version counts ownership changes; invisible readers validate their
	// snapshots against it. It is bumped inside every successful owner-word
	// CAS, so any mutation of the in-place data (which only owners perform)
	// is preceded by a version change.
	version atomic.Uint64

	// scssMu simulates the short hardware transaction of the SCSS variant:
	// each store burst happens inside it, atomically paired with a check of
	// the writer's AbortNowPlease flag. Invisible-reader mode uses it the
	// same way, pairing snapshot copies with mutations (a stand-in for the
	// unsynchronised-but-validated reads a C implementation would use).
	scssMu sync.Mutex

	// Simulated layout: header, data, and reader table are collocated in
	// one line-aligned allocation — the zero-indirection property.
	base       machine.Addr
	dataAddr   machine.Addr
	readerAddr machine.Addr
	words      int

	sys *System

	// Ext carries per-object state for layered systems (the NZTM hybrid
	// attaches its hardware conflict-tracking line here).
	Ext any
}

// Base returns the simulated address of the object header.
func (o *Object) Base() machine.Addr { return o.base }

// DataAddr returns the simulated address of the in-place data.
func (o *Object) DataAddr() machine.Addr { return o.dataAddr }

// Words returns the data size in simulated words.
func (o *Object) Words() int { return o.words }

// readerChunkBits sizes a reader-table chunk: 32 slots per chunk keeps the
// table one small allocation for the paper's 16-thread regime while letting
// it grow to the registry maximum without ever copying a registration.
const readerChunkBits = 5

// readerChunkSize is the number of reader slots per chunk.
const readerChunkSize = 1 << readerChunkBits

// readerChunk is one fixed block of visible-reader slots. Chunks are only
// ever added to a directory, never moved or dropped, so a slot's address is
// stable for the object's lifetime.
type readerChunk [readerChunkSize]atomic.Pointer[Txn]

// newObject lays out and initialises an NZObject.
func (s *System) newObject(initial tm.Data) *Object {
	w := initial.Words()
	// The simulated layout charges the configured thread hint's worth of
	// reader slots, as the fixed-table implementation did; sim harnesses
	// bound thread IDs by the hint, so growth only happens in real mode
	// (where layout addresses are fake anyway).
	total := headerWords + w + s.cfg.Threads
	base := s.world.Alloc(total, true)
	o := &Object{
		data:       initial,
		base:       base,
		dataAddr:   base + headerWords,
		readerAddr: base + headerWords + machine.Addr(w),
		words:      w,
		sys:        s,
	}
	dir := make([]*readerChunk, (s.cfg.Threads+readerChunkSize-1)/readerChunkSize)
	for i := range dir {
		dir[i] = new(readerChunk)
	}
	o.readers.Store(&dir)
	return o
}

// readerSlot returns the table slot for thread slot ID id, growing the
// directory when id lies beyond it. Growth copies only the chunk *pointers*
// into a longer directory and swaps it in with a CAS; registrations already
// made stay visible because the chunks themselves are shared.
func (o *Object) readerSlot(id int) *atomic.Pointer[Txn] {
	for {
		dir := *o.readers.Load()
		if c := id >> readerChunkBits; c < len(dir) {
			return &dir[c][id&(readerChunkSize-1)]
		}
		o.growReaders(id)
	}
}

// readerSlotLoad returns the registered reader in slot id, or nil — without
// growing the table (a slot the table does not cover holds no reader).
func (o *Object) readerSlotLoad(id int) *Txn {
	dir := *o.readers.Load()
	if c := id >> readerChunkBits; c < len(dir) {
		return dir[c][id&(readerChunkSize-1)].Load()
	}
	return nil
}

// growReaders extends the directory to cover slot id.
func (o *Object) growReaders(id int) {
	if max := o.sys.maxThreads; id >= max {
		panic("core: thread slot ID beyond Config.MaxThreads")
	}
	for {
		old := o.readers.Load()
		dir := *old
		need := id>>readerChunkBits + 1
		if need <= len(dir) {
			return
		}
		grown := make([]*readerChunk, need)
		copy(grown, dir)
		for i := len(dir); i < need; i++ {
			grown[i] = new(readerChunk)
		}
		if o.readers.CompareAndSwap(old, &grown) {
			return
		}
	}
}

// readerSlots returns the current directory and the number of slots it
// covers, for table scans.
func (o *Object) readerSlots() ([]*readerChunk, int) {
	dir := *o.readers.Load()
	return dir, len(dir) * readerChunkSize
}

// ownerWord atomically loads the Owner field, charging one header-word read.
func (o *Object) ownerWord(env tm.Env) *ownerRef {
	env.Access(o.base, 1, false)
	return o.owner.Load()
}

// casOwner attempts to swing the Owner field, charging a CAS. On success the
// OnOwnerChange hook (if any) runs immediately, with no scheduling point in
// between, so layered systems observe the change atomically.
func (o *Object) casOwner(env tm.Env, old, new *ownerRef) bool {
	env.CAS(o.base)
	if !o.owner.CompareAndSwap(old, new) {
		return false
	}
	o.version.Add(1)
	if h := o.sys.cfg.OnOwnerChange; h != nil {
		h(o)
	}
	return true
}

// backupReady reports whether or's owner has published its backup,
// charging a read of the Backup Data word.
func (o *Object) backupReady(env tm.Env, or *ownerRef) bool {
	env.Access(o.base+1, 1, false)
	return or.ready.Load()
}

// registerReader announces tx in the visible-reader table, growing the table
// if tx's slot ID lies beyond it.
func (o *Object) registerReader(env tm.Env, tx *Txn) {
	env.Access(o.readerAddr+machine.Addr(tx.th.ID), 1, true)
	o.readerSlot(tx.th.ID).Store(tx)
}

// deregisterReader clears tx's slot if it still holds it.
func (o *Object) deregisterReader(env tm.Env, tx *Txn) {
	dir := *o.readers.Load()
	c := tx.th.ID >> readerChunkBits
	if c >= len(dir) {
		return // table never grew to tx's slot: nothing registered
	}
	slot := &dir[c][tx.th.ID&(readerChunkSize-1)]
	if slot.Load() == tx {
		env.Access(o.readerAddr+machine.Addr(tx.th.ID), 1, true)
		slot.Store(nil)
	}
}

// firstActiveReader charges a scan of the reader table and returns the first
// active registered reader other than me, or nil. Writers call it repeatedly
// — resolve the returned reader, scan again — until the table is quiet. A
// slot left behind by a finished attempt holds a terminal descriptor and is
// skipped; the registration protocol (register, then re-validate, §2.2)
// guarantees any reader that could still commit is genuinely in the table.
func (o *Object) firstActiveReader(env tm.Env, me *Txn) *Txn {
	dir, n := o.readerSlots()
	env.Access(o.readerAddr, n, false)
	for _, chunk := range dir {
		for i := range chunk {
			t := chunk[i].Load()
			if t != nil && t != me && t.status.State() == tm.Active {
				return t
			}
		}
	}
	return nil
}
