package kv

import (
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"nztm/internal/metrics"
)

// hotKeysPerShard caps how many distinct keys each shard's hotspot table
// tracks. Contention is by definition concentrated — a handful of keys absorb
// most aborts — so a small per-shard cap captures the hot set while bounding
// memory on adversarial key churn. Keys arriving after a shard's table is
// full are counted in the shard's overflow tally instead of individually.
const hotKeysPerShard = 128

// hotspotWindow is the hotspot decay window. Counts are epoch-rotated:
// each table keeps a current and a previous window, reports sum both, and
// rotation retires the previous one — so a key that stops aborting
// disappears from TopK within two windows. Cumulative-since-start counts
// could never show contention *subsiding*.
const hotspotWindow = 15 * time.Second

// hotShard is one shard's abort-attribution table. A mutex (not atomics) is
// fine here: the table is only touched on the retry path, which has already
// paid for an aborted transaction and usually a backoff sleep.
type hotShard struct {
	mu       sync.Mutex
	cur      map[string]*uint64 // current window
	prev     map[string]*uint64 // last completed window
	overflow uint64             // cumulative aborts on keys a full table could not admit
}

// note counts one abort on key. The table outlives the request the key came
// from, so it holds a clone made at first sighting — and counts through a
// pointer, because assigning to an existing map entry would swap the stored
// key for the caller's.
func (h *hotShard) note(key string) {
	h.mu.Lock()
	if h.cur == nil {
		h.cur = make(map[string]*uint64, hotKeysPerShard)
	}
	if n, ok := h.cur[key]; ok {
		*n++
	} else if len(h.cur) < hotKeysPerShard {
		one := uint64(1)
		h.cur[strings.Clone(key)] = &one
	} else {
		h.overflow++
	}
	h.mu.Unlock()
}

// rotate retires the previous window and starts a new current one.
func (h *hotShard) rotate() {
	h.mu.Lock()
	h.prev = h.cur
	h.cur = nil
	h.mu.Unlock()
}

// sum merges both windows into out.
func (h *hotShard) sum(out map[string]uint64) {
	h.mu.Lock()
	for key, n := range h.cur {
		out[key] += *n
	}
	for key, n := range h.prev {
		out[key] += *n
	}
	h.mu.Unlock()
}

// Hotspot is one entry of the top-K aborted-keys report.
type Hotspot struct {
	Key    string `json:"key"`
	Aborts uint64 `json:"aborts"`
}

// Metrics collects the store's contention attribution: the retry backoff
// histogram and the hotspot table. Request timing and attempts come from
// the request span (server.SpanMetrics), not from here; backoff is the one
// kv interval a span cannot split out of its tm stage. The histogram is
// lock-free; the hotspot table takes a per-shard mutex only on the retry
// path. A nil *Metrics is inert: every method is a no-op or returns zero
// values, so the store's hot path stays allocation- and branch-cheap when
// metrics are off.
type Metrics struct {
	// BackoffTime is the duration of each retry backoff sleep.
	BackoffTime metrics.Histogram

	hot []hotShard // indexed like Store.shards

	// Hotspot window rotation state. Rotation is lazy (checked on the note
	// and report paths) so no timer goroutine is needed.
	winMu    sync.Mutex
	winStart time.Time
}

// newMetrics sizes the hotspot table to the store's shard geometry.
func newMetrics(shards int) *Metrics {
	return &Metrics{hot: make([]hotShard, shards), winStart: time.Now()}
}

// maybeRotate performs any due lazy window rotations.
func (m *Metrics) maybeRotate(now time.Time) {
	m.winMu.Lock()
	for !now.Before(m.winStart.Add(hotspotWindow)) {
		for i := range m.hot {
			m.hot[i].rotate()
		}
		if elapsed := now.Sub(m.winStart); elapsed >= 2*hotspotWindow {
			// Idle gap spanning multiple windows: both windows are stale.
			for i := range m.hot {
				m.hot[i].rotate()
			}
			m.winStart = now
			break
		}
		m.winStart = m.winStart.Add(hotspotWindow)
	}
	m.winMu.Unlock()
}

// RotateHotspots forces one window rotation: current counts become the
// previous window, and the window before that is forgotten. Two rotations
// with no intervening aborts empty the tables — what the cooled-key test
// relies on.
func (m *Metrics) RotateHotspots() {
	if m == nil {
		return
	}
	for i := range m.hot {
		m.hot[i].rotate()
	}
	m.winMu.Lock()
	m.winStart = time.Now()
	m.winMu.Unlock()
}

// noteAbortedOps attributes one aborted attempt to every key the batch
// touches. Batch aborts cannot be blamed on a single key (the TM only knows
// the conflicting object, which several keys may share), so each key in the
// batch is charged once — for the dominant single-op request shape this is
// exact.
func (m *Metrics) noteAbortedOps(ops []Op) {
	if m == nil {
		return
	}
	m.maybeRotate(time.Now())
	for i := range ops {
		key := ops[i].Key
		m.hot[fnv1a(key)%uint64(len(m.hot))].note(key)
	}
}

// TopK returns the k most-aborted keys across all shards within the last
// two decay windows, most aborted first (ties broken by key for
// determinism). k <= 0 returns all tracked keys.
func (m *Metrics) TopK(k int) []Hotspot {
	if m == nil {
		return nil
	}
	m.maybeRotate(time.Now())
	merged := make(map[string]uint64)
	for i := range m.hot {
		m.hot[i].sum(merged)
	}
	all := make([]Hotspot, 0, len(merged))
	for key, n := range merged {
		all = append(all, Hotspot{Key: key, Aborts: n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Aborts != all[j].Aborts {
			return all[i].Aborts > all[j].Aborts
		}
		return all[i].Key < all[j].Key
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

// OverflowAborts returns the number of aborts charged to keys the capped
// per-shard tables could not admit — nonzero means the TopK report is a
// lower bound on the tail.
func (m *Metrics) OverflowAborts() uint64 {
	if m == nil {
		return 0
	}
	var n uint64
	for i := range m.hot {
		h := &m.hot[i]
		h.mu.Lock()
		n += h.overflow
		h.mu.Unlock()
	}
	return n
}

// WriteProm emits the store's metrics in Prometheus text exposition format:
// the backoff histogram plus per-key abort counters for the top-k hotspots.
func (m *Metrics) WriteProm(w io.Writer, topK int) {
	if m == nil {
		return
	}
	m.BackoffTime.WriteProm(w, "nztm_kv_backoff_seconds")
	if top := m.TopK(topK); len(top) > 0 {
		// Keys that differ only in invalid UTF-8 export as one label
		// value: sum them, so the family never repeats a series.
		rows := make([]Hotspot, 0, len(top))
		at := make(map[string]int, len(top))
		for _, h := range top {
			k := metrics.LabelValue(h.Key)
			if i, ok := at[k]; ok {
				rows[i].Aborts += h.Aborts
				continue
			}
			at[k] = len(rows)
			rows = append(rows, Hotspot{Key: k, Aborts: h.Aborts})
		}
		metrics.Head(w, "nztm_kv_key_aborts_total", "counter", "per-key abort counts (top-K hotspot window)")
		for _, h := range rows {
			metrics.Counter(w, "nztm_kv_key_aborts_total", h.Aborts, "key", h.Key)
		}
	}
	metrics.CounterFam(w, "nztm_kv_key_aborts_overflow_total", "aborts charged to keys outside the hotspot table", m.OverflowAborts())
}

// EnableMetrics attaches (and returns) a Metrics collector to the store.
// Idempotent: repeated calls return the same collector. Not safe to race
// with in-flight Do calls — enable before serving.
func (s *Store) EnableMetrics() *Metrics {
	if s.metrics == nil {
		s.metrics = newMetrics(len(s.shards))
	}
	return s.metrics
}

// Metrics returns the store's collector, nil when metrics are off.
func (s *Store) Metrics() *Metrics { return s.metrics }
