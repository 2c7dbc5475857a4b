package trace

// Span is the per-request stage stopwatch: a fixed-size array of monotime
// stamps, one per pipeline stage, that moves BY VALUE inside the
// scheduler's task struct. No heap, no map, no pointer chasing — stamping
// a stage is one clock read and one array store, so the instrumentation
// is always on and the hot-path allocation gates keep holding.
//
// The stage taxonomy follows a request through the serving pipeline:
//
//	decode      frame parsed and pre-admission checks passed
//	enqueue     in-flight token taken, request offered to the admission queue
//	dispatch    an executor picked the task up (queue wait ends here)
//	exec_start  the executor is about to run the transaction
//	tm          the transaction finished (all retries and backoff included)
//	wal_append  the commit's frame is write()n in every vector shard
//	fsync_wait  the group-commit fsync covering the frame landed
//	stable_wait every observed prefix is stable in all its shards
//	repl_gate   the replication commit gate released the acknowledgement
//	respond     the response was handed to the connection's writer
//
// A stage whose stamp is zero did not happen (memory-only stores never
// stamp the WAL stages; FsyncInterval/Never skip fsync_wait; ungated
// stores skip repl_gate). A stage's DURATION is its stamp minus the
// latest earlier non-zero stamp (or Begin), so the non-zero stage
// durations always partition [Begin, End] exactly — summed stage time
// equals total request time by construction.

import "time"

// Stage indices into Span.Stamp, in pipeline order.
const (
	StageDecode = iota
	StageEnqueue
	StageDispatch
	StageExecStart
	StageTM
	StageWALAppend
	StageFsyncWait
	StageStableWait
	StageReplGate
	StageRespond
	// SpanStages is the number of stages (not itself a stage).
	SpanStages
)

// stageNames indexes human/label names by stage constant.
var stageNames = [SpanStages]string{
	"decode", "enqueue", "dispatch", "exec_start", "tm",
	"wal_append", "fsync_wait", "stable_wait", "repl_gate", "respond",
}

// StageName returns the stage's stable label ("decode", "tm", ...).
func StageName(i int) string {
	if i < 0 || i >= SpanStages {
		return "unknown"
	}
	return stageNames[i]
}

// spanEpoch is the shared zero instant for Now. The span machinery sits
// below tm in the layering (wal stamps spans but cannot import tm), so
// trace owns its own process epoch; every stamping site uses Now, so all
// stamps in one span share it.
var spanEpoch = time.Now()

// Now returns nanoseconds since the trace package's process epoch — the
// monotime every span stamp uses. Allocation-free.
func Now() uint64 { return uint64(time.Since(spanEpoch)) }

// Time returns the instant a stamp taken with Now stands for, so that a
// deadline can be counted from a stamp instead of from one more clock read.
func Time(stamp uint64) time.Time { return spanEpoch.Add(time.Duration(stamp)) }

// Span is one request's stage timeline. The zero value is ready: set
// Begin, Mark stages as they complete, read durations at the end.
type Span struct {
	// Begin is the Now() at which the request's frame was fully read.
	Begin uint64
	// ID is the request id (echoed in responses; keys /slowz entries to
	// client logs).
	ID uint64
	// Ops is the request's operation count.
	Ops uint32
	// Attempts counts transaction attempts (1 = first try committed);
	// zero for requests that never reached the TM.
	Attempts uint32
	// Status is the response status code the request was answered with.
	Status uint8
	// Stamp[i] is the Now() at which stage i COMPLETED (0 = stage skipped).
	Stamp [SpanStages]uint64
}

// Mark stamps stage as completed now. Nil-safe and allocation-free, so
// plumbing layers (kv, wal) can stamp unconditionally and callers without
// a span pass nil.
func (sp *Span) Mark(stage int) {
	if sp == nil {
		return
	}
	sp.Stamp[stage] = Now()
}

// End returns the last non-zero stamp (the request's completion time),
// or Begin when nothing was stamped.
func (sp *Span) End() uint64 {
	for i := SpanStages - 1; i >= 0; i-- {
		if sp.Stamp[i] != 0 {
			return sp.Stamp[i]
		}
	}
	return sp.Begin
}

// Total returns the span's end-to-end duration in nanoseconds.
func (sp *Span) Total() uint64 {
	end := sp.End()
	if end <= sp.Begin {
		return 0
	}
	return end - sp.Begin
}

// StageDur returns stage i's duration: its stamp minus the latest earlier
// non-zero stamp (or Begin). Zero for skipped stages. The non-zero stage
// durations of a span sum exactly to Total.
func (sp *Span) StageDur(i int) uint64 {
	if i < 0 || i >= SpanStages || sp.Stamp[i] == 0 {
		return 0
	}
	prev := sp.Begin
	for j := i - 1; j >= 0; j-- {
		if sp.Stamp[j] != 0 {
			prev = sp.Stamp[j]
			break
		}
	}
	if sp.Stamp[i] <= prev {
		return 0
	}
	return sp.Stamp[i] - prev
}
