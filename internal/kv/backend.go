package kv

import (
	"fmt"
	"sort"
	"strings"

	"nztm/internal/core"
	"nztm/internal/dstm"
	"nztm/internal/dstm2sf"
	"nztm/internal/glock"
	"nztm/internal/logtm"
	"nztm/internal/tm"
)

// Backend bundles a TM system with the thread Registry that mints driver
// contexts for it at runtime. Callers acquire a thread per worker — the
// server binds one per executor in its M:N scheduler pool, so N connections
// share M slots — via NewThread and release it with Thread.Close; slot IDs
// are recycled with generation counters, and the registry and system share
// one World so layout addresses never collide.
type Backend struct {
	Sys tm.System
	Reg *tm.Registry
}

// NewThread mints a thread context bound to a registry slot (blocking while
// the registry is at capacity). Close the thread to return the slot.
func (b *Backend) NewThread() *tm.Thread { return b.Reg.NewThread() }

// Executors clamps a requested executor-pool size to what this backend's
// registry can actually bind. A pool sized above the registry would park
// surplus workers in NewThread forever; a pool that consumed every slot
// would starve system actors (replication apply loops, snapshotters) that
// also mint threads from the same registry. The clamp leaves one slot free
// whenever the registry has more than one, so those actors always make
// progress. n <= 0 asks for "as many as fit".
func (b *Backend) Executors(n int) int {
	max := b.Reg.Max()
	if max > 1 {
		max-- // reserve a slot for system threads (repl apply, snapshots)
	}
	if n <= 0 || n > max {
		return max
	}
	return n
}

// BackendNames lists the systems OpenBackend accepts, sorted.
func BackendNames() []string {
	names := make([]string, 0, len(backends))
	for n := range backends {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fixedTableSlots caps the registry for backends whose per-object reader
// tables are fixed slices sized by Config.Threads (DSTM, DSTM2-SF, LogTM-SE):
// their tables must cover every slot the registry can hand out, so an
// unbounded registry would bloat every object. internal/core has no such
// limit — its chunked tables grow to the high-water mark actually reached.
const fixedTableSlots = 256

// backend builders. hint is the caller's expected-concurrency hint; max is
// the registry capacity the system must be prepared to see thread IDs below.
var backends = map[string]struct {
	mk          func(world tm.World, hint, max int) tm.System
	fixedTables bool
}{
	"nzstm": {mk: func(w tm.World, n, max int) tm.System {
		cfg := core.DefaultConfig(core.NZ, n)
		cfg.MaxThreads = max
		return core.New(w, cfg)
	}},
	"nzstm-iv": {mk: func(w tm.World, n, max int) tm.System {
		cfg := core.DefaultConfig(core.NZ, n)
		cfg.Readers = core.InvisibleReaders
		cfg.MaxThreads = max
		return core.New(w, cfg)
	}},
	"bzstm": {mk: func(w tm.World, n, max int) tm.System {
		cfg := core.DefaultConfig(core.BZ, n)
		cfg.MaxThreads = max
		return core.New(w, cfg)
	}},
	"scss": {mk: func(w tm.World, n, max int) tm.System {
		cfg := core.DefaultConfig(core.SCSS, n)
		cfg.MaxThreads = max
		return core.New(w, cfg)
	}},
	"dstm": {fixedTables: true, mk: func(w tm.World, n, max int) tm.System {
		return dstm.New(w, dstm.Config{Threads: max})
	}},
	"dstm2sf": {fixedTables: true, mk: func(w tm.World, n, max int) tm.System {
		return dstm2sf.New(w, dstm2sf.Config{Threads: max})
	}},
	"logtm": {fixedTables: true, mk: func(w tm.World, n, max int) tm.System {
		return logtm.New(w, logtm.Config{Threads: max})
	}},
	"glock": {mk: func(w tm.World, n, max int) tm.System { return glock.New(w) }},
}

// OpenBackend builds the named TM system for real-concurrency serving use,
// along with the Registry that mints thread contexts for it. threads is a
// soft concurrency hint (it sizes initial tables), not a cap: the registry
// accepts up to its capacity — tm.DefaultMaxSlots for backends whose reader
// tables grow dynamically, fixedTableSlots for the fixed-table comparison
// systems. Names are case-insensitive; see BackendNames.
func OpenBackend(name string, threads int) (*Backend, error) {
	if threads <= 0 {
		threads = 1
	}
	be, ok := backends[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("kv: unknown backend %q (have %s)",
			name, strings.Join(BackendNames(), ", "))
	}
	world := tm.NewRealWorld()
	maxSlots := 0 // tm.DefaultMaxSlots
	if be.fixedTables {
		maxSlots = fixedTableSlots
		if threads > maxSlots {
			maxSlots = threads
		}
	}
	reg := tm.NewRegistryWorld(maxSlots, world)
	sys := be.mk(world, threads, reg.Max())
	// Slot churn (one acquire/release per connection) lands in the system's
	// Stats so /metricsz reports it beside commits and aborts.
	reg.BindStats(sys.Stats())
	return &Backend{Sys: sys, Reg: reg}, nil
}
