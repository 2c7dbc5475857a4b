// Package fault is a deterministic, seedable fault-injection plane for the
// serving stack. The paper's headline property is nonblocking progress: a
// transaction that stalls or dies mid-flight must not wedge anyone else
// (§3). This package manufactures exactly that adversarial regime on demand
// so the rest of the repository can prove it survives:
//
//   - Plane.WrapSystem decorates any tm.System so that transactional
//     operations suffer injected aborts, latency spikes, and mid-transaction
//     stalls (the stall lands *after* the object is opened, so ownership is
//     held while the thread sleeps — the worst case for a blocking design).
//   - Plane.WrapEnv / Plane.WrapThreads decorate tm.Env so wait loops also
//     eat injected latency.
//   - Plane.WrapConn / Plane.WrapListener decorate net.Conn with injected
//     connection resets, torn (partial, delayed) writes, and slow reads.
//
// Determinism: every injection site draws from its own xorshift64* stream
// seeded by splitmix64(seed, site id). Given the same seed, each thread and
// each connection sees the same fault schedule; the global interleaving of
// goroutines is of course still up to the scheduler. Counters record every
// injected fault and how many faulted transactions nevertheless committed,
// for /metricsz reporting.
package fault

import (
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nztm/internal/metrics"
	"nztm/internal/tm"
	"nztm/internal/trace"
)

// Config tunes a Plane. Probabilities are per injection site visit: per
// transactional operation (Read/Update) for the TM-layer faults, per
// Read/Write syscall for the connection-layer faults. Zero disables the
// corresponding fault; a zero-value Config injects nothing.
type Config struct {
	// Seed derives every injection stream. Two planes with the same Seed
	// and Config produce identical per-site schedules.
	Seed uint64

	// AbortProb forcibly aborts the current transaction attempt (via
	// tm.Retry, so the system's ordinary retry loop runs). Do not enable
	// it over systems that cannot retry (glock panics on tm.Retry).
	AbortProb float64
	// DelayProb injects a latency spike of Delay mid-transaction.
	DelayProb float64
	Delay     time.Duration
	// StallProb injects a long stall of Stall mid-transaction, while
	// holding whatever the transaction has opened.
	StallProb float64
	Stall     time.Duration

	// ResetProb tears the connection down mid-write, leaving a torn frame
	// on the wire.
	ResetProb float64
	// PartialWriteProb splits a write into two segments with a delay in
	// between, stressing frame reassembly.
	PartialWriteProb float64
	// SlowReadProb delays a read by SlowRead.
	SlowReadProb float64
	SlowRead     time.Duration
}

// DefaultConfig returns the standard chaos profile used by the soak runner:
// every fault class enabled at rates that keep throughput useful while
// injecting hundreds of faults per minute even on one core.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:             seed,
		AbortProb:        0.01,
		DelayProb:        0.01,
		Delay:            200 * time.Microsecond,
		StallProb:        0.002,
		Stall:            20 * time.Millisecond,
		ResetProb:        0.0005,
		PartialWriteProb: 0.02,
		SlowReadProb:     0.01,
		SlowRead:         2 * time.Millisecond,
	}
}

// Counters aggregates the plane's injection and survival counts. All fields
// are updated atomically.
type Counters struct {
	Aborts atomic.Uint64 // injected transaction aborts
	Delays atomic.Uint64 // injected latency spikes (tx ops and env spins)
	Stalls atomic.Uint64 // injected mid-transaction stalls

	Resets        atomic.Uint64 // injected connection resets
	PartialWrites atomic.Uint64 // injected torn writes
	SlowReads     atomic.Uint64 // injected slow reads

	// FaultedCommits counts Atomic calls that absorbed at least one
	// injected TM-layer fault and still committed — the "survived" count.
	FaultedCommits atomic.Uint64
	// FaultedFailures counts faulted Atomic calls that returned an error.
	FaultedFailures atomic.Uint64
}

// Injected returns the total number of injected faults across all classes.
func (c *Counters) Injected() uint64 {
	return c.Aborts.Load() + c.Delays.Load() + c.Stalls.Load() +
		c.Resets.Load() + c.PartialWrites.Load() + c.SlowReads.Load()
}

// Plane is one fault-injection domain: a config, its counters, and the
// derived per-site random streams.
type Plane struct {
	cfg Config
	Counters

	connSeq atomic.Uint64 // allocates connection stream ids

	// rec, when bound, receives connection-layer fault events (which have no
	// thread context) under trace.PlaneSource. TM-layer faults record into
	// the faulted thread's own ring instead.
	rec atomic.Pointer[trace.Recorder]

	mu      sync.Mutex
	threads map[int]*stream // per-tm.Thread-ID streams
}

// New creates a fault plane. A nil return never happens; a zero-value
// Config yields a plane that injects nothing (Enabled reports false).
func New(cfg Config) *Plane {
	return &Plane{cfg: cfg, threads: make(map[int]*stream)}
}

// Config returns the plane's configuration.
func (p *Plane) Config() Config { return p.cfg }

// BindRecorder routes the plane's connection-layer fault events (resets,
// torn writes, slow reads — injected below any thread context) into fr's
// trace.PlaneSource ring, timestamped on the same tm.Monotime clock as
// per-thread events. TM-layer faults need no binding: they land in the
// faulted thread's own ring. Nil detaches.
func (p *Plane) BindRecorder(fr *trace.FlightRecorder) {
	if fr == nil {
		p.rec.Store(nil)
		return
	}
	p.rec.Store(fr.ForSource(trace.PlaneSource))
}

// planeTrace records one connection-layer event, if a recorder is bound.
func (p *Plane) planeTrace(kind trace.Kind, obj, a uint64) {
	if r := p.rec.Load(); r != nil {
		r.Record(tm.Monotime(), kind, obj, a, 0)
	}
}

// Enabled reports whether any fault class has a nonzero probability.
func (p *Plane) Enabled() bool {
	c := p.cfg
	return c.AbortProb > 0 || c.DelayProb > 0 || c.StallProb > 0 ||
		c.ResetProb > 0 || c.PartialWriteProb > 0 || c.SlowReadProb > 0
}

// threadStream returns the deterministic stream for tm thread id. Each
// stream is drawn from by one goroutine at a time (a registry slot ID has
// exactly one live tenant, and the server binds one slot per connection),
// so streams need no internal locking. A recycled slot resumes its
// predecessor's stream, keeping injection schedules seed-deterministic.
func (p *Plane) threadStream(id int) *stream {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.threads[id]
	if !ok {
		s = newStream(p.cfg.Seed, uint64(id)+1)
		p.threads[id] = s
	}
	return s
}

// WriteProm exports the plane's seed and every Counters field
// (metrics.WriteFields) as Prometheus families.
func (p *Plane) WriteProm(w io.Writer) {
	metrics.Info(w, "nztm_fault_info", "fault plane seed and whether any fault class is enabled",
		"seed", strconv.FormatUint(p.cfg.Seed, 10), "enabled", strconv.FormatBool(p.Enabled()))
	metrics.WriteFields(w, "nztm_fault", "counter", &p.Counters)
}

// stream is a private xorshift64* generator. Not safe for concurrent use;
// every injection site owns its stream exclusively.
type stream struct{ x uint64 }

// splitmix64 is the recommended seeder for xorshift-family generators.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newStream(seed, site uint64) *stream {
	x := splitmix64(seed ^ splitmix64(site))
	if x == 0 {
		x = 0x2545f4914f6cdd1d // xorshift's absorbing state; never start there
	}
	return &stream{x: x}
}

func (s *stream) next() uint64 {
	x := s.x
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.x = x
	return x * 0x2545f4914f6cdd1d
}

// hit makes one deterministic Bernoulli draw with probability prob.
func (s *stream) hit(prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		s.next()
		return true
	}
	const scale = 1 << 53
	return s.next()>>11 < uint64(prob*scale)
}
