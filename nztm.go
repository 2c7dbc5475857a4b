// Package nztm is a Go reproduction of "NZTM: Nonblocking Zero-indirection
// Transactional Memory" (Tabba, Moir, Goodman, Hay, Wang — SPAA 2009).
//
// It provides an object-based transactional memory programming model (in
// the DSTM style the paper uses) with interchangeable implementations:
//
//   - NZSTM — the paper's primary contribution: a nonblocking STM that
//     stores object data in place and collocates metadata with it, resolving
//     conflicts by *requesting* aborts (AbortNowPlease) and inflating
//     objects into DSTM-style Locators only when an enemy is unresponsive.
//     Read sharing is visible by default; NewNZSTMInvisible selects the
//     invisible-reader discipline the paper also names. Transactions
//     implement the optional Releaser extension (DSTM-style early release).
//   - BZSTM — the blocking variant (§2.2), which waits for acknowledgements
//     forever and never inflates.
//   - SCSS — NZSTM simplified by Single-Compare-Single-Store short hardware
//     transactions (§2.3.2), with no inflation machinery at all.
//   - DSTM — the classic two-level-indirection nonblocking STM (baseline).
//   - DSTM2-SF — the blocking shadow-factory STM (baseline).
//   - LogTM-SE — a model of the unbounded HTM the paper compares against.
//   - NZTM — the hybrid: best-effort HTM with NZSTM fallback (§2.4). The
//     hardware path engages on the simulated machine; elsewhere the hybrid
//     transparently degrades to NZSTM (the HyTM portability story — the
//     Rock processor that would have run it was never shipped).
//   - GlobalLock — the single-global-lock baseline of Figure 4.
//
// Programs write transactions once against the System/Tx interfaces and can
// execute them either as ordinary concurrent Go (NewThread) or on the
// discrete-event simulated CMP (NewMachine/RunSim) that regenerates the
// paper's figures. See DESIGN.md for the architecture and EXPERIMENTS.md
// for the paper-vs-measured results.
package nztm

import (
	"nztm/internal/audit"
	"nztm/internal/bench"
	"nztm/internal/core"
	"nztm/internal/dstm"
	"nztm/internal/dstm2sf"
	"nztm/internal/glock"
	"nztm/internal/hybrid"
	"nztm/internal/logtm"
	"nztm/internal/machine"
	"nztm/internal/tm"
	"nztm/internal/trace"
)

// Core programming-model types (see the tm package for full documentation).
type (
	// Data is the user payload stored in a transactional object.
	Data = tm.Data
	// Object is an opaque transactional object handle.
	Object = tm.Object
	// Tx is an active transaction: Read to open for reading, Update to
	// open for writing (mutations go through a callback).
	Tx = tm.Tx
	// System is one transactional memory implementation.
	System = tm.System
	// Thread carries per-thread transaction context.
	Thread = tm.Thread
	// Stats holds a system's cumulative counters.
	Stats = tm.Stats
	// StatsView is a plain snapshot of Stats.
	StatsView = tm.StatsView
	// Ints is a ready-made Data implementation: a fixed vector of int64.
	Ints = tm.Ints
	// Set is a transactional integer set (linked list, hash table, or
	// red-black tree).
	Set = bench.Set
	// Machine is the discrete-event simulated CMP used for evaluation.
	Machine = machine.Machine
	// Proc is one simulated core (the Thread environment inside RunSim).
	Proc = machine.Proc
)

// NewInts returns an Ints of length n, zero-filled.
func NewInts(n int) *Ints { return tm.NewInts(n) }

// NewThread creates a thread context for ordinary (non-simulated) use.
// Thread IDs must be unique among concurrently running threads and below
// the system's thread cap. Prefer a Registry (see NewNZSTMDynamic), which
// hands IDs out and recycles them safely.
func NewThread(id int) *Thread {
	return tm.NewThread(id, tm.NewRealEnv(id, tm.NewRealWorld()))
}

// Registry hands out numbered thread slots at runtime: Registry.NewThread
// mints a Thread bound to the lowest free slot (blocking at capacity) and
// Thread.Close returns it. Generation counters distinguish a recycled
// slot's new tenant from its predecessor, so threads may come and go freely
// — the dynamic replacement for the fixed thread counts of the paper's
// 16-core chip.
type Registry = tm.Registry

// NewRegistry creates a registry of at most max slots (0 selects the
// default cap). For threads that drive a specific system, prefer the paired
// constructor (NewNZSTMDynamic) so both share one layout address space.
func NewRegistry(max int) *Registry { return tm.NewRegistry(max) }

// NewNZSTMDynamic returns NZSTM wired to a thread registry: instead of a
// fixed thread count, threads acquire slots at runtime (reg.NewThread) and
// release them (Thread.Close) when done. hint sizes the initial reader
// tables (they grow on demand); max bounds concurrently live threads, with
// 0 selecting the default cap.
func NewNZSTMDynamic(hint, max int) (System, *Registry) {
	world := tm.NewRealWorld()
	reg := tm.NewRegistryWorld(max, world)
	cfg := core.DefaultConfig(core.NZ, hint)
	cfg.MaxThreads = reg.Max()
	sys := core.New(world, cfg)
	// Slot churn shows up in the system's Stats (SlotAcquires/SlotReleases).
	reg.BindStats(sys.Stats())
	return sys, reg
}

// FlightRecorder is the per-thread transaction event tracer: each source
// (thread slot) records begin/read/acquire/conflict/contention-decision/
// abort/commit/inflate/deflate events into a fixed-capacity lock-free ring.
// Bind one to a Registry (Registry.BindRecorder) and every thread it mints
// records automatically; Snapshot, WriteJSON, and Dump expose the newest
// events per source in order. Tracing off (no recorder bound) costs one nil
// check per event site and keeps the hot path allocation-free.
type FlightRecorder = trace.FlightRecorder

// TraceEvent is one recorded flight-recorder event.
type TraceEvent = trace.Event

// NewFlightRecorder creates a flight recorder holding the newest
// perSourceCap events per thread (rounded up to a power of two, minimum 16).
func NewFlightRecorder(perSourceCap int) *FlightRecorder {
	return trace.New(perSourceCap)
}

// NewNZSTM returns the paper's nonblocking zero-indirection STM for
// ordinary concurrent use by up to threads threads.
func NewNZSTM(threads int) System { return core.NewNZSTM(tm.NewRealWorld(), threads) }

// NewBZSTM returns the blocking variant (§2.2).
func NewBZSTM(threads int) System { return core.NewBZSTM(tm.NewRealWorld(), threads) }

// NewSCSS returns the SCSS-simplified variant (§2.3.2).
func NewSCSS(threads int) System { return core.NewSCSS(tm.NewRealWorld(), threads) }

// NewNZSTMInvisible returns NZSTM with invisible read sharing: readers take
// versioned private snapshots and revalidate instead of registering (§2
// names both visible and invisible readers). Reads cause no shared-memory
// traffic; long read sets pay O(n²) incremental validation.
func NewNZSTMInvisible(threads int) System {
	cfg := core.DefaultConfig(core.NZ, threads)
	cfg.Readers = core.InvisibleReaders
	return core.New(tm.NewRealWorld(), cfg)
}

// NewDSTM returns the classic DSTM baseline.
func NewDSTM(threads int) System {
	return dstm.New(tm.NewRealWorld(), dstm.Config{Threads: threads})
}

// NewDSTM2SF returns the blocking shadow-factory baseline.
func NewDSTM2SF(threads int) System {
	return dstm2sf.New(tm.NewRealWorld(), dstm2sf.Config{Threads: threads})
}

// NewLogTMSE returns the LogTM-SE model (usable in real mode too: it is the
// only hardware model whose semantics — stalling with in-place writes — are
// safe under real concurrency).
func NewLogTMSE(threads int) System {
	return logtm.New(tm.NewRealWorld(), logtm.Config{Threads: threads})
}

// NewNZTM returns the hybrid. Outside the simulator it behaves as NZSTM.
func NewNZTM(threads int) System {
	return hybrid.New(tm.NewRealWorld(), hybrid.DefaultConfig(threads))
}

// NewGlobalLock returns the single-global-lock baseline.
func NewGlobalLock() System { return glock.New(tm.NewRealWorld()) }

// Releaser is the optional early-release extension of Tx (DSTM-style): a
// released read stops participating in conflict detection.
type Releaser = tm.Releaser

// NewLinkedList returns a sorted-linked-list set over sys.
func NewLinkedList(sys System) Set { return bench.NewLinkedList(sys) }

// NewLinkedListEarlyRelease returns a sorted-list set using DSTM-style
// hand-over-hand traversal: reads behind a two-node window are released,
// shrinking read sets from O(position) to O(1). Requires a System whose
// transactions implement Releaser (the NZSTM family does).
func NewLinkedListEarlyRelease(sys System) Set { return bench.NewLinkedListEarlyRelease(sys) }

// NewHashTable returns a chained hash set over sys.
func NewHashTable(sys System, buckets int) Set { return bench.NewHashTable(sys, buckets) }

// NewRBTree returns a red-black-tree set over sys.
func NewRBTree(sys System) Set { return bench.NewRBTree(sys) }

// NewMachine creates a simulated CMP with the paper's cache parameters.
func NewMachine(cores int) *Machine {
	return machine.New(machine.DefaultConfig(cores))
}

// NewSimNZSTM builds NZSTM over a simulated machine; likewise the sibling
// constructors below. Threads created inside RunSim charge the cache model.
func NewSimNZSTM(m *Machine, threads int) System { return core.NewNZSTM(m, threads) }

// NewSimNZTM builds the hybrid over a simulated machine, where its
// best-effort hardware path engages.
func NewSimNZTM(m *Machine, threads int) System {
	return hybrid.New(m, hybrid.DefaultConfig(threads))
}

// NewSimLogTMSE builds the LogTM-SE model over a simulated machine.
func NewSimLogTMSE(m *Machine, threads int) System {
	return logtm.New(m, logtm.Config{Threads: threads})
}

// Audited wraps a System with the serializability auditor: committed
// transactions' read/write sets are recorded (object versions are threaded
// through the ordinary Data contract) and CheckAudit verifies offline that
// the execution was serializable.
type Audited = audit.System

// NewAudited wraps sys for auditing. All objects must then be created
// through the returned system.
func NewAudited(sys System) *Audited { return audit.New(sys) }

// CheckAudit verifies an audited execution's records; see the audit package
// for the properties checked (version integrity, read validity, acyclic
// serialization graph).
func CheckAudit(records []audit.Record) error { return audit.Check(records) }

// RunSim executes body as n virtual threads on the simulated machine and
// returns the elapsed simulated cycles. Threads are scheduled one at a time
// in logical time (deterministically for a fixed machine seed), so body may
// use the full TM API but must not block on anything outside the Env.
func RunSim(m *Machine, n int, body func(th *Thread)) uint64 {
	start := m.MaxClock()
	m.Run(n, func(p *machine.Proc) {
		body(tm.NewThread(p.ID(), p))
	})
	return m.MaxClock() - start
}
