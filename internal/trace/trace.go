// Package trace is the repository's flight recorder: a per-thread,
// fixed-capacity, allocation-free ring buffer of transaction lifecycle
// events. The paper's evaluation (§5) explains throughput differences via
// abort causes, inflation events, and contention-manager decisions — signals
// the cumulative tm.Stats counters collapse into totals. The flight recorder
// keeps the *sequence*: the most recent N events per thread, with enough
// detail (object, enemy thread, abort reason, CM verdict) to replay how a
// transaction died.
//
// Design constraints, in order:
//
//   - Recording must be allocation-free and cheap enough to leave compiled
//     into the hot path: every slot is preallocated, an event is six atomic
//     word stores plus two counter bumps, and a nil *Recorder is a valid
//     no-op — the default, so untraced runs pay one pointer compare per
//     event site (the PR-3 0 allocs/op gate keeps holding).
//   - Snapshots must be race-detector clean while recording continues, so
//     event fields live in a flat []atomic.Uint64 rather than a plain
//     struct slice. A snapshot taken concurrently with recording may
//     contain a torn event (fields from two writes of the same wrapped
//     slot); it never contains a data race. Post-mortem dumps (the soak
//     runner's failure path) read quiesced recorders and are exact.
//   - The package sits below tm in the layering (it imports only the
//     standard library), so tm, core, kv, fault, and server can all record
//     into it without cycles.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a recorded event.
type Kind uint8

// Event kinds. The Arg/Arg2 columns document what each kind stores in
// Event.A / Event.B.
const (
	KindBegin          Kind = iota // A=birth ordinal
	KindRead                       // shared-read open succeeded; Obj=object
	KindAcquire                    // exclusive write acquire; Obj=object
	KindConflict                   // hit an active enemy; A=enemy thread, B=1 if enemy is a reader
	KindCMWait                     // contention manager said wait; A=enemy thread
	KindCMAbortSelf                // contention manager said abort self; A=enemy thread
	KindCMAbortOther               // requested the enemy's abort; A=enemy thread
	KindAbort                      // attempt aborted; A=tm.AbortReason, B=attempt ordinal
	KindCommit                     // attempt committed; A=attempt ordinal (0 = first try)
	KindInflate                    // object inflated past an unresponsive enemy; A=enemy thread
	KindDeflate                    // object deflated back in place
	KindFaultAbort                 // fault plane injected a forced abort
	KindFaultDelay                 // fault plane injected a latency spike; A=ns
	KindFaultStall                 // fault plane injected a mid-tx stall; A=ns
	KindFaultReset                 // fault plane reset a connection mid-write
	KindFaultTornWrite             // fault plane split a write; A=bytes delivered first
	KindFaultSlowRead              // fault plane delayed a read; A=ns
	KindWALRecover                 // durability plane recovered a shard; Obj=shard, A=replayed frames, B=truncated bytes
	KindWALSnapshot                // durability plane sealed a snapshot; Obj=shard, A=snapshot LSN, B=keys
	KindWALTruncate                // durability plane removed covered files; Obj=shard, A=files removed
	KindWALDegrade                 // durability plane stopped: the log refuses writes from here on
	KindReplSubscribe              // replication: follower subscribed; A=epoch, B=follower's applied total
	KindReplFrames                 // replication: batch of frames shipped/applied; A=frames, B=last total LSN
	KindReplPromote                // replication: node promoted to primary; A=new epoch, B=applied total at promotion
	KindReplReject                 // replication: fencing rejected a stale-epoch message; A=msg epoch, B=local epoch
	KindSchedEnqueue               // scheduler: request admitted to the queue; A=queue depth after enqueue
	KindSchedDispatch              // scheduler: executor picked a request up; A=queue wait ns
	KindSchedReject                // scheduler: admission refused a request (queue full); A=queue depth
	kindCount
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindBegin:
		return "begin"
	case KindRead:
		return "read"
	case KindAcquire:
		return "acquire"
	case KindConflict:
		return "conflict"
	case KindCMWait:
		return "cm-wait"
	case KindCMAbortSelf:
		return "cm-abort-self"
	case KindCMAbortOther:
		return "cm-abort-other"
	case KindAbort:
		return "abort"
	case KindCommit:
		return "commit"
	case KindInflate:
		return "inflate"
	case KindDeflate:
		return "deflate"
	case KindFaultAbort:
		return "fault-abort"
	case KindFaultDelay:
		return "fault-delay"
	case KindFaultStall:
		return "fault-stall"
	case KindFaultReset:
		return "fault-conn-reset"
	case KindFaultTornWrite:
		return "fault-torn-write"
	case KindFaultSlowRead:
		return "fault-slow-read"
	case KindWALRecover:
		return "wal-recover"
	case KindWALSnapshot:
		return "wal-snapshot"
	case KindWALTruncate:
		return "wal-truncate"
	case KindWALDegrade:
		return "wal-degrade"
	case KindReplSubscribe:
		return "repl-subscribe"
	case KindReplFrames:
		return "repl-frames"
	case KindReplPromote:
		return "repl-promote"
	case KindReplReject:
		return "repl-reject"
	case KindSchedEnqueue:
		return "sched-enqueue"
	case KindSchedDispatch:
		return "sched-dispatch"
	case KindSchedReject:
		return "sched-reject"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// AuxFormatter, when non-nil, renders an event's A field for human dumps.
// The tm package installs one that decodes KindAbort's A as a
// tm.AbortReason name (trace cannot import tm — it sits below it).
var AuxFormatter func(e Event) string

// Event is one recorded lifecycle event.
type Event struct {
	Seq  uint64 `json:"seq"`           // recorder-global recording order
	When uint64 `json:"when"`          // env time (ns in real mode, cycles in sim)
	Kind Kind   `json:"-"`             // what happened
	Obj  uint64 `json:"obj,omitempty"` // object layout address (0 if none)
	A    uint64 `json:"a,omitempty"`   // kind-specific (see Kind docs)
	B    uint64 `json:"b,omitempty"`   // kind-specific (see Kind docs)
}

// MarshalJSON renders Kind by name so /tracez output is self-describing.
func (e Event) MarshalJSON() ([]byte, error) {
	type alias Event // drop methods to avoid recursion
	return json.Marshal(struct {
		Kind string `json:"kind"`
		alias
	}{Kind: e.Kind.String(), alias: alias(e)})
}

// String renders an event compactly for text dumps.
func (e Event) String() string {
	s := fmt.Sprintf("#%d @%d %s", e.Seq, e.When, e.Kind)
	if e.Obj != 0 {
		s += fmt.Sprintf(" obj=%d", e.Obj)
	}
	if AuxFormatter != nil {
		if aux := AuxFormatter(e); aux != "" {
			return s + " " + aux
		}
	}
	if e.A != 0 || e.B != 0 {
		s += fmt.Sprintf(" a=%d b=%d", e.A, e.B)
	}
	return s
}

// eventWords is an Event's footprint in the flat atomic ring: seq, when,
// kind, obj, a, b.
const eventWords = 6

// Recorder is one source's ring buffer (typically one TM thread slot). All
// storage is preallocated at construction; Record never allocates. A nil
// *Recorder is valid and records nothing — the disabled-by-default case.
//
// Record is safe for concurrent use (slots are claimed with an atomic
// cursor), though the normal discipline is single-writer: one recorder per
// thread slot, one live tenant per slot.
type Recorder struct {
	fr     *FlightRecorder
	source int    // thread slot ID, or a reserved source like PlaneSource
	mask   uint64 // capacity - 1 (capacity is a power of two)
	cursor atomic.Uint64
	ring   []atomic.Uint64 // capacity × eventWords flat event storage
}

// PlaneSource is the reserved source ID for events that belong to no TM
// thread (the fault plane's connection-layer injections).
const PlaneSource = -1

// WALSource is the reserved source ID for durability-plane events
// (recovery, snapshots, truncation), which run outside any TM thread.
const WALSource = -2

// ReplSource is the reserved source ID for replication-plane events
// (subscriptions, frame shipping, promotions, fencing rejections).
const ReplSource = -3

// SchedSource is the reserved source ID for request-scheduler events
// (admission, dispatch, rejection), which happen before any TM thread is
// involved with a request.
const SchedSource = -4

// Source returns the recorder's source ID (a thread slot, or PlaneSource).
func (r *Recorder) Source() int { return r.source }

// Capacity returns how many events the ring retains. Zero on nil.
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return int(r.mask + 1)
}

// Count returns how many events were ever recorded (including overwritten
// ones). Zero on nil.
func (r *Recorder) Count() uint64 {
	if r == nil {
		return 0
	}
	return r.cursor.Load()
}

// Record appends one event. Safe on a nil receiver; never allocates.
func (r *Recorder) Record(when uint64, kind Kind, obj, a, b uint64) {
	if r == nil {
		return
	}
	seq := r.fr.seq.Add(1)
	slot := (r.cursor.Add(1) - 1) & r.mask
	base := slot * eventWords
	r.ring[base+0].Store(seq)
	r.ring[base+1].Store(when)
	r.ring[base+2].Store(uint64(kind))
	r.ring[base+3].Store(obj)
	r.ring[base+4].Store(a)
	r.ring[base+5].Store(b)
}

// Snapshot returns the retained events, oldest first. Concurrent recording
// may tear the oldest entries (they are being overwritten); torn or
// half-written slots are dropped by a seq sanity filter rather than
// returned out of order.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	n := r.cursor.Load()
	cap64 := r.mask + 1
	start := uint64(0)
	if n > cap64 {
		start = n - cap64
	}
	out := make([]Event, 0, n-start)
	for i := start; i < n; i++ {
		base := (i & r.mask) * eventWords
		e := Event{
			Seq:  r.ring[base+0].Load(),
			When: r.ring[base+1].Load(),
			Kind: Kind(r.ring[base+2].Load()),
			Obj:  r.ring[base+3].Load(),
			A:    r.ring[base+4].Load(),
			B:    r.ring[base+5].Load(),
		}
		// A slot being overwritten concurrently carries a newer (or, half
		// written, zero) seq; keep the snapshot monotone instead of torn.
		if e.Kind >= kindCount {
			continue
		}
		if last := len(out) - 1; last >= 0 && e.Seq <= out[last].Seq {
			continue
		}
		if e.Seq == 0 {
			continue
		}
		out = append(out, e)
	}
	return out
}

// FlightRecorder owns the per-source recorders and the global event
// sequence that orders a merged dump. Construct one per process (or per
// soak run), bind it to the thread registry and the fault plane, and
// snapshot it from /tracez or a failure handler.
type FlightRecorder struct {
	seq    atomic.Uint64
	perCap int

	mu   sync.Mutex
	byID map[int]*Recorder
	ids  []int // insertion-ordered keys of byID
}

// New creates a flight recorder whose per-source rings retain the most
// recent perSourceCap events each (rounded up to a power of two; minimum
// 16).
func New(perSourceCap int) *FlightRecorder {
	n := 16
	for n < perSourceCap {
		n <<= 1
	}
	return &FlightRecorder{perCap: n, byID: make(map[int]*Recorder)}
}

// ForSource returns the ring for the given source ID, creating (and
// permanently retaining) it on first use. Rings are reused across registry
// slot recycling, so a slot's ring holds its successive tenants' events in
// one timeline — exactly what a per-connection post-mortem wants. This path
// allocates; call it at bind time, not per event.
func (f *FlightRecorder) ForSource(id int) *Recorder {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.byID[id]
	if !ok {
		r = &Recorder{
			fr:     f,
			source: id,
			mask:   uint64(f.perCap - 1),
			ring:   make([]atomic.Uint64, f.perCap*eventWords),
		}
		f.byID[id] = r
		f.ids = append(f.ids, id)
	}
	return r
}

// Count returns the total number of events ever recorded across all
// sources. Zero on nil.
func (f *FlightRecorder) Count() uint64 {
	if f == nil {
		return 0
	}
	return f.seq.Load()
}

// SourceLog is one source's retained event log.
type SourceLog struct {
	Source   int     `json:"source"` // thread slot ID, or -1 for the fault plane
	Recorded uint64  `json:"recorded_total"`
	Dropped  uint64  `json:"dropped"` // recorded minus retained
	Events   []Event `json:"events"`
}

// Snapshot returns every source's retained events, sources in first-use
// order, each source's events oldest first.
func (f *FlightRecorder) Snapshot() []SourceLog {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	recs := make([]*Recorder, 0, len(f.ids))
	for _, id := range f.ids {
		recs = append(recs, f.byID[id])
	}
	f.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].source < recs[j].source })
	logs := make([]SourceLog, 0, len(recs))
	for _, r := range recs {
		evs := r.Snapshot()
		logs = append(logs, SourceLog{
			Source:   r.source,
			Recorded: r.Count(),
			Dropped:  r.Count() - uint64(len(evs)),
			Events:   evs,
		})
	}
	return logs
}

// WriteJSON writes the /tracez document: total event count plus every
// source's retained log.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	return f.WriteJSONOpts(w, nil, 0)
}

// WriteJSONOpts is WriteJSON with the /tracez query filters applied:
// when source is non-nil only that source id's log is emitted (an
// unknown id yields an empty source list, not an error), and when
// limit > 0 each emitted log keeps only its newest limit events
// (Dropped grows by what the limit cut).
func (f *FlightRecorder) WriteJSONOpts(w io.Writer, source *int, limit int) error {
	logs := f.Snapshot()
	if source != nil {
		kept := logs[:0]
		for _, l := range logs {
			if l.Source == *source {
				kept = append(kept, l)
			}
		}
		logs = kept
	}
	if limit > 0 {
		for i := range logs {
			if cut := len(logs[i].Events) - limit; cut > 0 {
				logs[i].Events = logs[i].Events[cut:]
				logs[i].Dropped += uint64(cut)
			}
		}
	}
	doc := struct {
		EventsTotal uint64      `json:"events_total"`
		Sources     []SourceLog `json:"sources"`
	}{EventsTotal: f.Count(), Sources: logs}
	if doc.Sources == nil {
		doc.Sources = []SourceLog{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Dump writes a human-readable per-source event log — the soak runner's
// failure artifact. Each source's events appear oldest first; the Seq
// column is the recorder-global order, so interleaving across sources can
// be reconstructed by eye.
func (f *FlightRecorder) Dump(w io.Writer) {
	if f == nil {
		return
	}
	fmt.Fprintf(w, "flight recorder: %d events recorded\n", f.Count())
	for _, log := range f.Snapshot() {
		name := fmt.Sprintf("thread %d", log.Source)
		if log.Source == PlaneSource {
			name = "fault plane (connection layer)"
		}
		if log.Source == WALSource {
			name = "durability plane (wal)"
		}
		if log.Source == ReplSource {
			name = "replication plane (repl)"
		}
		if log.Source == SchedSource {
			name = "scheduler plane (admission/dispatch)"
		}
		fmt.Fprintf(w, "--- %s: %d recorded, last %d retained ---\n",
			name, log.Recorded, len(log.Events))
		for _, e := range log.Events {
			fmt.Fprintf(w, "  %s\n", e.String())
		}
	}
}
