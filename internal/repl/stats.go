package repl

import (
	"io"
	"sync/atomic"

	"nztm/internal/metrics"
)

// Stats is the replication plane's counter block. Every field is
// exported through WriteMetricsz as one nztm_repl_<snake_case> gauge by
// reflection (metrics.WriteFields), so adding a counter here is all it
// takes to export it.
type Stats struct {
	// Epoch is the node's current fencing epoch.
	Epoch atomic.Uint64
	// IsPrimary is 1 while this node is the primary.
	IsPrimary atomic.Uint64
	// FramesShipped counts WAL frames sent to followers (all
	// subscribers summed).
	FramesShipped atomic.Uint64
	// BytesShipped counts encoded frame bytes sent to followers.
	BytesShipped atomic.Uint64
	// FramesApplied counts frames this node applied from a primary.
	FramesApplied atomic.Uint64
	// SnapshotsShipped counts bootstrap shard snapshots sent.
	SnapshotsShipped atomic.Uint64
	// SnapshotsLoaded counts bootstrap shard snapshots installed.
	SnapshotsLoaded atomic.Uint64
	// Subscribes counts follower subscriptions accepted.
	Subscribes atomic.Uint64
	// Heartbeats counts heartbeats — stream messages stamped with no
	// frames or snapshot bytes in them — sent (primary) or received
	// (follower).
	Heartbeats atomic.Uint64
	// AcksSent counts applied-vector acks this node sent upstream.
	AcksSent atomic.Uint64
	// AcksReceived counts follower acks this node received.
	AcksReceived atomic.Uint64
	// GateWaits counts requests that blocked in the commit gate.
	GateWaits atomic.Uint64
	// GateTimeouts counts requests the commit gate failed on timeout.
	GateTimeouts atomic.Uint64
	// Elections counts election rounds this node started.
	Elections atomic.Uint64
	// Promotions counts times this node promoted itself to primary,
	// the election that makes a booted node primary included.
	Promotions atomic.Uint64
	// Depositions counts times this node stepped down from primary.
	Depositions atomic.Uint64
	// FencingRejects counts stale-epoch messages this node refused.
	FencingRejects atomic.Uint64
	// StepdownProbes counts follower-silence polls a primary ran to
	// detect its own deposition across a partition.
	StepdownProbes atomic.Uint64
	// LeaseRefusals counts writes and tokened reads a lease-lapsed
	// primary refused instead of risking a split-brain ack.
	LeaseRefusals atomic.Uint64
	// Resyncs counts re-seeds: on a primary, followers it found holding
	// history off its log and re-seeded with every shard's snapshot; on a
	// follower, re-seeds it began installing.
	Resyncs atomic.Uint64
	// LagFrames is the follower's LSN-total delta behind the stable
	// total of the newest stamp (0 when caught up or primary).
	LagFrames atomic.Uint64
	// LagMs is the follower's staleness in milliseconds: time since its
	// applied state last covered a stamp's stable vector on arrival (0
	// when primary).
	LagMs atomic.Uint64
}

// WriteMetricsz appends one Prometheus gauge per field
// (metrics.WriteFields).
func (st *Stats) WriteMetricsz(w io.Writer) {
	metrics.WriteFields(w, "nztm_repl", "gauge", st)
}
