// Package tm defines the transactional programming model shared by every TM
// system in this repository, derived (as in the paper, §2) from DSTM's
// object-based model: programs encapsulate data in transactional objects and
// open each object before accessing it inside a transaction.
//
// The same benchmark code runs unchanged over NZSTM, BZSTM, SCSS, DSTM,
// DSTM2-SF, the single-global-lock baseline, the simulated best-effort HTM,
// LogTM-SE, and the NZTM hybrid, because all of them implement the System and
// Tx interfaces below.
package tm

import (
	"fmt"
	"sync/atomic"
	"time"

	"nztm/internal/machine"
	"nztm/internal/trace"
)

// The trace package sits below tm in the layering and cannot name tm types;
// install the formatter that decodes tm enums (abort reasons, conflict
// roles) in event dumps, so a soak failure log reads "abort reason=conflict"
// instead of "abort a=2".
func init() {
	trace.AuxFormatter = func(e trace.Event) string {
		switch e.Kind {
		case trace.KindAbort:
			return fmt.Sprintf("reason=%s attempt=%d", AbortReason(e.A), e.B)
		case trace.KindCommit:
			return fmt.Sprintf("attempt=%d", e.A)
		case trace.KindBegin:
			return fmt.Sprintf("birth=%d", e.A)
		case trace.KindConflict:
			role := "owner"
			if e.B != 0 {
				role = "reader"
			}
			return fmt.Sprintf("enemy=%d role=%s", e.A, role)
		case trace.KindCMWait, trace.KindCMAbortSelf, trace.KindCMAbortOther, trace.KindInflate:
			return fmt.Sprintf("enemy=%d", e.A)
		case trace.KindFaultDelay, trace.KindFaultStall, trace.KindFaultSlowRead:
			return fmt.Sprintf("dur=%v", time.Duration(e.A))
		}
		return ""
	}
}

// Data is the user payload stored in a transactional object. Clone creates
// the backup copies the paper's algorithms rely on, and CopyFrom restores a
// backup in place (undoing an aborted transaction's effects, §2.2) or
// refills a pooled backup buffer.
//
// What the systems need of a copy is independence, not depth: after
// b := a.Clone() or b.CopyFrom(a), no mutation of either value through its
// own methods and fields is visible in the other, and a backup restores
// every state the original had when it was taken. Parts that are never
// written after construction (strings, a kv value's bytes) may be shared.
type Data interface {
	// Clone returns an independent copy of the data.
	Clone() Data
	// CopyFrom overwrites the receiver with an independent copy of src's
	// contents, reusing the receiver's storage where it can. src is always
	// a value of the receiver's own concrete type.
	CopyFrom(src Data)
	// Words reports the data's size in simulated machine words; it drives
	// the simulated memory layout and the cycle cost of copies.
	Words() int
}

// Object is an opaque handle to a transactional object. Each System returns
// its own concrete object type from NewObject and accepts only those handles.
type Object any

// Tx is an active transaction. Both methods abort the transaction (by
// panicking with an internal token recovered inside System.Atomic) when a
// conflict resolution or validation demands it.
type Tx interface {
	// Read opens the object for shared reading and returns its current
	// data. The caller must not mutate the result and must not retain it
	// across the end of the transaction.
	Read(Object) Data

	// Update opens the object for exclusive writing and applies fn to its
	// data. The mutation goes through a callback so that store-interposing
	// systems (SCSS short hardware transactions, LogTM-SE undo logging, HTM
	// write buffering) can wrap it.
	Update(Object, func(Data))
}

// Releaser is an optional Tx extension implementing DSTM-style early
// release: a released read no longer participates in conflict detection.
// The caller asserts the transaction's outcome no longer depends on the
// released object's value — the classic use is hand-over-hand traversal of
// a sorted linked list, where only a sliding window of nodes needs
// protection.
type Releaser interface {
	// Release drops the calling transaction's read of the object. Releasing
	// an object that was not read (or that the transaction wrote) is a
	// no-op.
	Release(Object)
}

// System is one complete transactional memory implementation.
type System interface {
	// Name identifies the system in reports ("NZSTM", "LogTM-SE", ...).
	Name() string

	// NewObject allocates a transactional object holding initial. It may be
	// called at any time; objects are private until published to a shared
	// structure inside a transaction.
	NewObject(initial Data) Object

	// Atomic runs fn as a transaction on the calling thread, retrying until
	// it commits. A non-nil error from fn aborts the transaction and is
	// returned verbatim (the transaction's effects are discarded).
	Atomic(th *Thread, fn func(Tx) error) error

	// Stats returns the system's cumulative counters.
	Stats() *Stats
}

// World provides simulated-memory allocation for object layout. In sim mode
// it is the *machine.Machine; in real mode RealWorld hands out monotonically
// increasing fake addresses so that layout-dependent code works unchanged.
type World interface {
	Alloc(words int, lineAlign bool) machine.Addr
}

// RealWorld is the World used outside the simulator.
type RealWorld struct {
	next atomic.Uint64
}

// NewRealWorld returns a World whose allocations are fresh fake addresses.
func NewRealWorld() *RealWorld {
	w := &RealWorld{}
	w.next.Store(64) // keep address 0 unused, mirroring machine.New
	return w
}

// Alloc implements World.
func (w *RealWorld) Alloc(words int, lineAlign bool) machine.Addr {
	if words <= 0 {
		words = 1
	}
	n := uint64(words)
	if lineAlign {
		n += 8 // crude alignment slack; real mode ignores layout effects
	}
	return machine.Addr(w.next.Add(n) - n)
}

// Thread is the per-thread context a transaction runs under: the execution
// environment (real or simulated core), a thread-local backup pool (§2.2:
// "the memory for the backup data is allocated from a thread-local memory
// pool"), and a monotonically increasing transaction birth counter used for
// timestamp-based contention decisions.
type Thread struct {
	ID  int
	Env Env

	pool   backupPool
	births uint64
	slot   Slot // registry slot, when minted by Registry.NewThread

	// rec, when non-nil, is this thread's flight-recorder ring: systems
	// stamp transaction lifecycle events into it via Trace. Nil (the
	// default) records nothing and costs one pointer compare per event
	// site, preserving the allocation-free hot path.
	rec *trace.Recorder

	// Single-slot scratch cache, keyed by the system that populated it.
	// Systems with thread-private working memory (internal/core's read and
	// write sets and bump arenas) park it here between Atomic calls; a thread
	// that alternates between systems just misses the cache and allocates
	// fresh.
	scratchKey any
	scratchVal any
}

// NewThread creates a thread context bound to env.
func NewThread(id int, env Env) *Thread {
	return &Thread{ID: id, Env: env}
}

// Scratch returns the working memory cached under key, or nil.
func (t *Thread) Scratch(key any) any {
	if t.scratchKey == key {
		return t.scratchVal
	}
	return nil
}

// SetScratch caches thread-private working memory under key (a nil value
// evicts). Threads are single-owner, so no synchronisation is needed.
func (t *Thread) SetScratch(key, val any) {
	t.scratchKey, t.scratchVal = key, val
}

// SetRecorder attaches (or, with nil, detaches) the thread's flight-recorder
// ring. Registry-minted threads get theirs automatically when the registry
// has a bound FlightRecorder; manual threads attach one here.
func (t *Thread) SetRecorder(r *trace.Recorder) { t.rec = r }

// Recorder returns the thread's flight-recorder ring, if any.
func (t *Thread) Recorder() *trace.Recorder { return t.rec }

// Trace stamps one lifecycle event into the thread's flight recorder. With
// no recorder attached (the default) it is a single pointer compare —
// cheap enough to leave compiled into every hot-path event site — and it
// never allocates either way.
func (t *Thread) Trace(kind trace.Kind, obj machine.Addr, a, b uint64) {
	if t.rec == nil {
		return
	}
	var when uint64
	if t.Env != nil {
		when = t.Env.Now()
	}
	t.rec.Record(when, kind, uint64(obj), a, b)
}

// NextBirth returns a fresh per-thread transaction ordinal. Combined with
// the thread ID it yields a total order on transactions for timestamp-based
// contention management.
func (t *Thread) NextBirth() uint64 {
	t.births++
	return t.births<<16 | uint64(t.ID&0xffff)
}
