package tm

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"nztm/internal/trace"
)

// DefaultMaxSlots bounds a Registry when no explicit maximum is given. It is
// deliberately far above the paper's 16-thread chip: the serving stack binds
// one slot per live connection, and slots are cheap (reader-table chunks only
// materialise up to the high-water mark actually reached).
const DefaultMaxSlots = 1 << 14

// Registry hands out numbered thread slots at runtime, replacing the static
// "thread IDs are fixed at [0, Config.Threads) forever" contract the paper's
// fixed 16-core chip allowed. It is a lock-free bitmap freelist:
//
//   - Acquire scans the bitmap from word 0 and claims the lowest free slot
//     with a CAS, so slot IDs stay dense and the per-object reader tables
//     (which grow to the high-water slot ID) stay small.
//   - Release bumps the slot's generation counter *before* freeing the bit,
//     so the next tenant of a recycled slot always observes a fresh
//     generation: stale per-slot state left by the previous tenant is
//     distinguishable from the current one.
//   - The high-water mark records the densest concurrency ever reached;
//     /metricsz reports it alongside the configured maximum.
//
// A Registry optionally carries the World its minted threads allocate layout
// addresses from, so registry-minted threads and the system they drive share
// one address space.
type Registry struct {
	max   int
	world World

	words []atomic.Uint64 // acquisition bitmap: bit set = slot taken
	gens  []atomic.Uint64 // per-slot generation, bumped on every release

	high   atomic.Int64 // 1 + highest slot ID ever acquired
	active atomic.Int64 // currently held slots

	wake chan struct{} // capacity-1 doorbell for blocked Acquire calls

	// stats, when bound, receives SlotAcquires/SlotReleases — the
	// connection-churn signal /metricsz reports.
	stats atomic.Pointer[Stats]
	// rec, when bound, hands each minted thread its per-slot flight-recorder
	// ring.
	rec atomic.Pointer[trace.FlightRecorder]
}

// NewRegistry creates a registry of at most max slots (0 or negative selects
// DefaultMaxSlots). Threads minted via NewThread allocate from a private
// RealWorld; use NewRegistryWorld to share a World with a System.
func NewRegistry(max int) *Registry {
	return NewRegistryWorld(max, NewRealWorld())
}

// NewRegistryWorld creates a registry whose minted threads share world.
func NewRegistryWorld(max int, world World) *Registry {
	if max <= 0 {
		max = DefaultMaxSlots
	}
	return &Registry{
		max:   max,
		world: world,
		words: make([]atomic.Uint64, (max+63)/64),
		gens:  make([]atomic.Uint64, max),
		wake:  make(chan struct{}, 1),
	}
}

// Max returns the registry's slot capacity.
func (r *Registry) Max() int { return r.max }

// Active returns the number of currently held slots.
func (r *Registry) Active() int { return int(r.active.Load()) }

// High returns the high-water mark: 1 + the highest slot ID ever acquired
// (so it is also the table length needed to cover every slot handed out).
func (r *Registry) High() int { return int(r.high.Load()) }

// World returns the World registry-minted threads allocate from.
func (r *Registry) World() World { return r.world }

// BindStats routes the registry's slot-churn counters (SlotAcquires,
// SlotReleases) into s — normally the backing system's Stats, so connection
// churn shows up next to commit/abort counts. Nil detaches.
func (r *Registry) BindStats(s *Stats) { r.stats.Store(s) }

// BindRecorder attaches a flight recorder: every thread minted after the
// call carries the recorder's ring for its slot ID (rings are reused across
// slot recycling, so one ring holds a slot's successive tenants in a single
// timeline). Nil detaches; threads already minted keep whatever they have.
func (r *Registry) BindRecorder(fr *trace.FlightRecorder) { r.rec.Store(fr) }

// Recorder returns the bound flight recorder, if any.
func (r *Registry) Recorder() *trace.FlightRecorder { return r.rec.Load() }

// Slot is one acquired registry slot: its ID plus the generation it was
// acquired at. The generation distinguishes this tenancy from any previous
// tenant of the same ID.
type Slot struct {
	r   *Registry
	id  int
	gen uint64
}

// ID returns the slot number.
func (s Slot) ID() int { return s.id }

// Gen returns the slot's acquisition generation.
func (s Slot) Gen() uint64 { return s.gen }

// Valid reports whether the slot was actually acquired (the zero Slot is
// invalid).
func (s Slot) Valid() bool { return s.r != nil }

// TryAcquire claims the lowest free slot, or reports failure when the
// registry is at capacity. It never blocks.
func (r *Registry) TryAcquire() (Slot, bool) {
	for w := range r.words {
		for {
			v := r.words[w].Load()
			free := ^v
			if w == len(r.words)-1 {
				// Mask bits beyond max in the (possibly partial) last word.
				if rem := r.max - w*64; rem < 64 {
					free &= 1<<rem - 1
				}
			}
			if free == 0 {
				break // word full: next word
			}
			bit := bits.TrailingZeros64(free)
			if !r.words[w].CompareAndSwap(v, v|1<<bit) {
				continue // lost the race on this word: rescan it
			}
			id := w*64 + bit
			// The releaser bumped the generation before clearing the bit,
			// so this load observes a generation no previous tenant held.
			gen := r.gens[id].Load()
			r.active.Add(1)
			if s := r.stats.Load(); s != nil {
				s.SlotAcquires.Add(1)
			}
			for {
				h := r.high.Load()
				if int64(id+1) <= h || r.high.CompareAndSwap(h, int64(id+1)) {
					break
				}
			}
			return Slot{r: r, id: id, gen: gen}, true
		}
	}
	return Slot{}, false
}

// Acquire claims the lowest free slot, blocking while the registry is at
// capacity. The timed re-poll makes lost wakeups (a Release racing with many
// blocked acquirers on the capacity-1 doorbell) harmless.
func (r *Registry) Acquire() Slot {
	for {
		if s, ok := r.TryAcquire(); ok {
			return s
		}
		select {
		case <-r.wake:
		case <-time.After(time.Millisecond):
		}
	}
}

// Release frees the slot for reuse. Releasing a slot whose generation has
// already moved on (a double release, or a release through a stale copy)
// panics: silently freeing another tenant's slot would hand one ID to two
// live threads.
func (r *Registry) Release(s Slot) {
	if s.r != r {
		panic("tm: Release of a slot from a different registry")
	}
	// Bump the generation first: once the bit clears, any new tenant must
	// already see the new generation.
	if !r.gens[s.id].CompareAndSwap(s.gen, s.gen+1) {
		panic(fmt.Sprintf("tm: double release of registry slot %d (gen %d)", s.id, s.gen))
	}
	w, bit := s.id/64, uint(s.id%64)
	for {
		v := r.words[w].Load()
		if v&(1<<bit) == 0 {
			panic(fmt.Sprintf("tm: registry slot %d released while free", s.id))
		}
		if r.words[w].CompareAndSwap(v, v&^(1<<bit)) {
			break
		}
	}
	r.active.Add(-1)
	if st := r.stats.Load(); st != nil {
		st.SlotReleases.Add(1)
	}
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// NewThread acquires a slot (blocking at capacity) and mints a Thread bound
// to it: the thread's ID is the slot number and its Env is a RealEnv over the
// registry's World. Close the thread to return the slot.
func (r *Registry) NewThread() *Thread {
	return r.bind(r.Acquire())
}

// TryNewThread is NewThread without blocking; ok is false at capacity.
func (r *Registry) TryNewThread() (*Thread, bool) {
	s, ok := r.TryAcquire()
	if !ok {
		return nil, false
	}
	return r.bind(s), true
}

func (r *Registry) bind(s Slot) *Thread {
	th := NewThread(s.id, NewRealEnv(s.id, r.world))
	th.slot = s
	if fr := r.rec.Load(); fr != nil {
		th.rec = fr.ForSource(s.id)
	}
	return th
}

// Slot returns the registry slot the thread is bound to, if any.
func (t *Thread) Slot() (Slot, bool) { return t.slot, t.slot.Valid() }

// Close releases the thread's registry slot (idempotent; a no-op for threads
// not minted by a Registry). The thread must not run transactions afterwards:
// its slot ID may immediately belong to someone else.
func (t *Thread) Close() {
	if t.slot.Valid() {
		s := t.slot
		t.slot = Slot{}
		s.r.Release(s)
	}
}
