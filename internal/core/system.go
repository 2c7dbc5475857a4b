package core

import (
	"nztm/internal/cm"
	"nztm/internal/tm"
	"nztm/internal/trace"
)

// Variant selects which of the paper's three STM flavours a System runs.
type Variant int

// Variants.
const (
	NZ   Variant = iota // NZSTM: nonblocking via inflation (§2.3.1)
	BZ                  // BZSTM: blocking, never inflates (§2.2)
	SCSS                // SCSS: short-hardware-transaction stores (§2.3.2)
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case NZ:
		return "NZSTM"
	case BZ:
		return "BZSTM"
	case SCSS:
		return "SCSS"
	}
	return "invalid"
}

// ReaderMode selects how read sharing is implemented (§2 notes the
// algorithm "can handle read sharing with little modification, for both
// visible and invisible readers").
type ReaderMode int

// Reader modes.
const (
	// VisibleReaders register in a per-object table; writers must obtain
	// acknowledgements from (or inflate past) active readers before
	// mutating in place. Reads are zero-copy but announce themselves with
	// a shared-memory write.
	VisibleReaders ReaderMode = iota
	// InvisibleReaders take private versioned snapshots and re-validate
	// their whole read set at every open and at commit. Reads cause no
	// shared-memory traffic, at the price of O(reads) incremental
	// validation and a per-read copy.
	InvisibleReaders
)

// String implements fmt.Stringer.
func (r ReaderMode) String() string {
	switch r {
	case VisibleReaders:
		return "visible"
	case InvisibleReaders:
		return "invisible"
	}
	return "invalid"
}

// Config parameterises a System.
type Config struct {
	// Threads is a *hint* for the expected number of concurrent threads: it
	// sizes the initial visible-reader tables (and their simulated layout
	// charge). Threads with higher slot IDs are still accepted — the tables
	// grow on demand up to MaxThreads.
	Threads int

	// MaxThreads is the hard ceiling on thread slot IDs the system will
	// accept (it bounds reader-table growth). Zero selects
	// tm.DefaultMaxSlots, matching the default Registry capacity; it is
	// never below Threads.
	MaxThreads int

	// Variant selects NZSTM, BZSTM, or SCSS behaviour.
	Variant Variant

	// Readers selects visible (default) or invisible read sharing.
	Readers ReaderMode

	// Manager resolves conflicts; the paper's default is Karma with
	// flag-based deadlock detection (§4.3).
	Manager cm.Manager

	// AckPatience is how long (env time units) a transaction waits for an
	// abort acknowledgement before declaring the enemy unresponsive and
	// inflating (NZ) or stealing via the SCSS barrier (SCSS). BZ ignores it
	// and waits forever.
	AckPatience uint64

	// InflationCheckCost models the per-open instruction overhead of
	// decoding the Owner word's inflation tag — the overhead behind the
	// paper's 2–5% NZSTM-vs-BZSTM gap (§4.4.2). Zero for BZ.
	InflationCheckCost uint64

	// SCSSStoreCost models the latency of the short hardware transaction
	// wrapped around each store burst in the SCSS variant — the overhead
	// that hurts the write-dominated kmeans (§4.4.2).
	SCSSStoreCost uint64

	// OnOwnerChange, if set, runs synchronously after every successful
	// owner-word CAS. The NZTM hybrid uses it to abort hardware
	// transactions tracking the object — modelling the coherence-triggered
	// abort a software acquisition causes on real best-effort HTM (§2.4).
	OnOwnerChange func(o *Object)

	// OnReadRegistered, if set, runs after a software reader has visibly
	// registered on an object (and re-confirmed the owner word). The hybrid
	// uses it to abort hardware writers of the object.
	OnReadRegistered func(o *Object)

	// Stats, if non-nil, is used as the system's counter sink instead of a
	// private one — the NZTM hybrid shares one sink between its hardware
	// and software paths.
	Stats *tm.Stats
}

// DefaultConfig returns paper-flavoured settings for the given variant.
func DefaultConfig(v Variant, threads int) Config {
	cfg := Config{
		Threads:     threads,
		Variant:     v,
		Manager:     cm.NewKarma(4_000),
		AckPatience: 8_000,
	}
	switch v {
	case NZ:
		cfg.InflationCheckCost = 1
	case SCSS:
		cfg.SCSSStoreCost = 60
	}
	return cfg
}

// System is an NZSTM/BZSTM/SCSS transactional memory instance.
type System struct {
	cfg        Config
	world      tm.World
	maxThreads int
	stats      *tm.Stats
}

// New creates a System over the given world (a *machine.Machine in sim mode,
// tm.NewRealWorld() otherwise).
func New(world tm.World, cfg Config) *System {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.MaxThreads <= 0 {
		cfg.MaxThreads = tm.DefaultMaxSlots
	}
	if cfg.MaxThreads < cfg.Threads {
		cfg.MaxThreads = cfg.Threads
	}
	if cfg.Manager == nil {
		cfg.Manager = cm.NewKarma(4_000)
	}
	if cfg.AckPatience == 0 {
		cfg.AckPatience = 8_000
	}
	stats := cfg.Stats
	if stats == nil {
		stats = &tm.Stats{}
	}
	return &System{cfg: cfg, world: world, maxThreads: cfg.MaxThreads, stats: stats}
}

// NewNZSTM returns an NZSTM system with default configuration.
func NewNZSTM(world tm.World, threads int) *System {
	return New(world, DefaultConfig(NZ, threads))
}

// NewBZSTM returns the blocking variant with default configuration.
func NewBZSTM(world tm.World, threads int) *System {
	return New(world, DefaultConfig(BZ, threads))
}

// NewSCSS returns the SCSS variant with default configuration.
func NewSCSS(world tm.World, threads int) *System {
	return New(world, DefaultConfig(SCSS, threads))
}

// Name implements tm.System.
func (s *System) Name() string { return s.cfg.Variant.String() }

// Stats implements tm.System.
func (s *System) Stats() *tm.Stats { return s.stats }

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// NewObject implements tm.System.
func (s *System) NewObject(initial tm.Data) tm.Object {
	return s.newObject(initial)
}

// Atomic implements tm.System: it runs fn transactionally on th, retrying
// aborted attempts with contention-manager backoff. Each attempt gets a fresh
// Transaction descriptor, as in the paper (§3).
func (s *System) Atomic(th *tm.Thread, fn func(tm.Tx) error) error {
	if th.ID < 0 || th.ID >= s.maxThreads {
		panic("core: thread ID out of range for this System")
	}
	for attempt := 0; ; attempt++ {
		tx := s.begin(th)
		tx.sc.fn = fn
		err, reason, ok := tm.RunAttempt(tx.sc.run)
		if ok {
			if err != nil {
				// User-level failure: discard effects and return the error.
				tx.status.Acknowledge()
				tx.finish(false)
				return err
			}
			if !tx.commitReadsValid() {
				// A snapshot went stale (invisible readers): abort.
				tx.status.Acknowledge()
				tx.finish(false)
				s.stats.CountAbort(tm.AbortConflict)
				s.cfg.Manager.Backoff(th.Env, attempt+1)
				continue
			}
			th.Env.CAS(tx.addr) // the commit CAS on the status word
			if tx.status.TryCommit() {
				tx.finish(true)
				s.stats.Commits.Add(1)
				th.Trace(trace.KindCommit, 0, uint64(attempt), 0)
				return nil
			}
			// AbortNowPlease beat us to the status word.
			reason = tm.AbortRequest
		}
		tx.status.Acknowledge()
		tx.finish(false)
		s.stats.CountAbort(reason)
		th.Trace(trace.KindAbort, 0, uint64(reason), uint64(attempt))
		s.cfg.Manager.Backoff(th.Env, attempt+1)
	}
}

// begin allocates the attempt's transaction descriptor and checks the
// thread's scratch out to it until finish; an attempt that never finishes (a
// user panic unwound through Atomic) keeps its scratch, and the thread's next
// attempt starts a new one.
func (s *System) begin(th *tm.Thread) *Txn {
	sc, _ := th.Scratch(s).(*scratch)
	if sc == nil {
		sc = s.newScratch()
	} else {
		th.SetScratch(s, nil)
	}
	tx := &Txn{sys: s, th: th, addr: sc.addr, sc: sc}
	sc.tx = tx
	tx.InitMeta(th.NextBirth())
	th.Trace(trace.KindBegin, 0, tx.Birth(), 0)
	return tx
}

var _ tm.System = (*System)(nil)
