package kv

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nztm/internal/metrics"
	"nztm/internal/tm"
	"nztm/internal/trace"
	"nztm/internal/wal"
)

// seqData is the per-shard commit sequencer: a single transactional
// counter. Every transaction that writes shard s bumps seq[s] inside
// the transaction, so the TM's serializability makes LSN order equal
// commit order per shard — the property the WAL needs and a post-commit
// handoff alone cannot provide. Transactions that only read a shard
// tx.Read the sequencer instead, pinning the exact prefix of commits
// their results depend on; the acknowledgement then waits until that
// prefix is durable, so no client ever observes a commit that recovery
// could drop.
type seqData struct {
	lsn uint64
}

// Clone implements tm.Data.
func (s *seqData) Clone() tm.Data { return &seqData{lsn: s.lsn} }

// CopyFrom implements tm.Data.
func (s *seqData) CopyFrom(src tm.Data) { s.lsn = src.(*seqData).lsn }

// Words implements tm.Data.
func (s *seqData) Words() int { return 1 }

var _ tm.Data = (*seqData)(nil)

// Durability configures NewDurable.
type Durability struct {
	// Dir is the WAL data directory.
	Dir string
	// Fsync is the sync policy (default wal.FsyncAlways).
	Fsync wal.FsyncPolicy
	// FsyncInterval is the background sync period under FsyncInterval.
	FsyncInterval time.Duration
	// SnapshotEvery, when positive, starts a background snapshotter
	// that periodically snapshots every shard (via a read-only
	// transaction) and truncates the covered log. Requires NewThread.
	SnapshotEvery time.Duration
	// NewThread mints the snapshotter's TM thread (kv.Backend.NewThread
	// fits). Required when SnapshotEvery > 0.
	NewThread func() *tm.Thread
	// FS is the WAL's filesystem seam (fault.Disk fits: I/O errors and
	// kill sites); nil means the real filesystem.
	FS wal.FS
	// Recorder, when non-nil, receives durability-plane trace events
	// (recovery, snapshots, truncation) — typically
	// FlightRecorder.ForSource(trace.WALSource).
	Recorder *trace.Recorder
}

// durState is a durable store's extra machinery. A nil *durState (the
// memory-only store) keeps the hot path untouched: every durable branch
// in Do is behind one pointer test.
type durState struct {
	log   *wal.Log
	state *wal.State
	seqs  []tm.Object // per-shard sequencer objects
	recs  sync.Pool   // *commitRec sized to the shard count
	cfg   Durability
	rec   *trace.Recorder

	// gate, when set, delays acknowledgements on the replication plane's
	// say-so (semi-synchronous replication); see SetCommitGate.
	gate atomic.Pointer[CommitGate]
	// epoch stamps every frame this store commits; see SetEpoch.
	epoch atomic.Uint64
	// fenced refuses client write batches (see Fence); writers counts
	// the batches between that check and their frame's admission.
	fenced  atomic.Bool
	writers atomic.Int64

	stop      chan struct{}
	wg        sync.WaitGroup
	th        *tm.Thread // snapshotter's registry slot
	closeOnce sync.Once
}

// NewDurable creates a store whose commits are logged to a write-ahead
// log under d.Dir, after first recovering whatever state the directory
// proves: the latest valid snapshots plus the log's valid prefix.
// Recovery happens before any object is published, so the store starts
// serving the recovered state. The returned wal.State reports what
// recovery found.
func NewDurable(sys tm.System, shards, bucketsPerShard int, d Durability) (*Store, *wal.State, error) {
	if shards <= 0 {
		shards = 1
	}
	if bucketsPerShard <= 0 {
		bucketsPerShard = 1
	}
	log, st, err := wal.Open(wal.Config{
		Dir:           d.Dir,
		Shards:        shards,
		Fsync:         d.Fsync,
		FsyncInterval: d.FsyncInterval,
		FS:            d.FS,
		OnDegrade: func(error) {
			d.Recorder.Record(tm.Monotime(), trace.KindWALDegrade, 0, 0, 0)
		},
	})
	if err != nil {
		return nil, nil, err
	}
	s := buildStore(sys, shards, bucketsPerShard, st.Keys)
	dur := &durState{
		log:   log,
		state: st,
		cfg:   d,
		rec:   d.Recorder,
		stop:  make(chan struct{}),
	}
	dur.recs.New = func() any { return newCommitRec(shards) }
	dur.seqs = make([]tm.Object, shards)
	for i := range dur.seqs {
		// The sequencer resumes one below NextLSN so the next commit is
		// assigned exactly NextLSN — the first LSN past the log's valid
		// prefix (Open cut the torn tail, so the slot is genuinely free).
		dur.seqs[i] = sys.NewObject(&seqData{lsn: st.NextLSN[i] - 1})
	}
	dur.rec.Record(tm.Monotime(), trace.KindWALRecover, uint64(shards), st.ReplayedFrames, st.TruncatedBytes)
	s.dur = dur
	if d.SnapshotEvery > 0 {
		if d.NewThread == nil {
			log.Close()
			return nil, nil, fmt.Errorf("kv: SnapshotEvery set without NewThread")
		}
		dur.th = d.NewThread()
		dur.wg.Add(1)
		go dur.snapshotLoop(s)
	}
	return s, st, nil
}

// WAL returns the store's write-ahead log (nil for memory-only stores).
func (s *Store) WAL() *wal.Log {
	if s.dur == nil {
		return nil
	}
	return s.dur.log
}

// RecoveryState returns what boot-time recovery found (nil for
// memory-only stores).
func (s *Store) RecoveryState() *wal.State {
	if s.dur == nil {
		return nil
	}
	return s.dur.state
}

// Close stops the store's background work — the snapshotter and its
// registry slot, then the WAL (flush + sync + close files). Idempotent;
// a memory-only store's Close is a cheap no-op. Callers must drain
// in-flight Do calls first.
func (s *Store) Close() error {
	if s.dur == nil {
		return nil
	}
	var err error
	s.dur.closeOnce.Do(func() {
		close(s.dur.stop)
		s.dur.wg.Wait()
		if s.dur.th != nil {
			s.dur.th.Close()
			s.dur.th = nil
		}
		err = s.dur.log.Close()
	})
	return err
}

// commitRec is one request's per-shard commit record, shared by Do and
// ApplyFrame: the sequencer value each touched shard showed the
// transaction, the LSN it took where it wrote, and the frame of resolved
// write effects. Indexing by shard makes "read each sequencer once, bump
// it at most once" two slice lookups. Records come from a per-store pool
// and are reset at the start of every attempt (a retry re-runs from
// scratch).
type commitRec struct {
	seen    []uint64      // shard → observed sequencer value + 1 (0 = untouched)
	lsn     []uint64      // shard → LSN this attempt took there (0 = not written)
	touched []int         // shards with seen set; sorted by finish
	frame   wal.Frame     // Shards filled by finish; Ops are the resolved effects
	to      uint64        // the value setSeq stores
	setSeq  func(tm.Data) // stores to into a sequencer; made once per record
	writer  bool          // holds one of durState.writers until its frame is in the log
}

func newCommitRec(shards int) *commitRec {
	r := &commitRec{seen: make([]uint64, shards), lsn: make([]uint64, shards)}
	r.setSeq = func(data tm.Data) { data.(*seqData).lsn = r.to }
	return r
}

func (r *commitRec) reset() {
	for _, sh := range r.touched {
		r.seen[sh], r.lsn[sh] = 0, 0
	}
	r.touched = r.touched[:0]
	clear(r.frame.Ops) // a pooled record must not pin the last request's values
	r.frame.Ops, r.frame.Shards = r.frame.Ops[:0], r.frame.Shards[:0]
}

// observe pins the shard's sequence number on first touch and returns
// it: every result this transaction returns depends on at most the
// commits ≤ that value.
func (r *commitRec) observe(tx tm.Tx, d *durState, shard int) uint64 {
	if r.seen[shard] == 0 {
		r.seen[shard] = tx.Read(d.seqs[shard]).(*seqData).lsn + 1
		r.touched = append(r.touched, shard)
	}
	return r.seen[shard] - 1
}

// take bumps an observed shard's sequencer on the attempt's first write
// there (LSN assignment inside the transaction is what makes log order
// equal commit order): the LSN taken is the observed value + 1, which a
// committed transaction read from the same version it overwrites.
func (r *commitRec) take(tx tm.Tx, d *durState, shard int) {
	if r.lsn[shard] == 0 {
		r.lsn[shard] = r.seen[shard]
		r.set(tx, d, shard, r.lsn[shard])
	}
}

// set stores lsn into the shard's sequencer through the record's one
// prebuilt update closure, so a sequencer write allocates nothing.
func (r *commitRec) set(tx tm.Tx, d *durState, shard int, lsn uint64) {
	r.to = lsn
	tx.Update(d.seqs[shard], r.setSeq)
}

// effect records one resolved write, taking the shard's LSN on its first.
func (r *commitRec) effect(tx tm.Tx, d *durState, shard int, op wal.Op) {
	r.take(tx, d, shard)
	r.frame.Ops = append(r.frame.Ops, op)
}

// enterWrite admits one client write batch unless the store is fenced;
// the batch counts in writers until leaveWrite. The increment comes
// before the check and Fence sets the flag before it counts, so a batch
// either sees the fence or is waited for.
func (d *durState) enterWrite(r *commitRec) bool {
	d.writers.Add(1)
	if d.fenced.Load() {
		d.writers.Add(-1)
		return false
	}
	r.writer = true
	return true
}

// leaveWrite releases r's writer slot, if it holds one.
func (d *durState) leaveWrite(r *commitRec) {
	if r.writer {
		r.writer = false
		d.writers.Add(-1)
	}
}

// release resets r and returns it to the store's pool.
func (d *durState) release(r *commitRec) {
	d.leaveWrite(r)
	r.reset()
	d.recs.Put(r)
}

// finish runs after the Atomic call, before results are released to the
// caller. committed reports whether the transaction committed (false on
// the CAS-miss abort path, whose observations are still acknowledged).
// One walk of the record, in shard order, builds the request's commit
// vector — for each touched shard the highest LSN its results depend on,
// its own where it wrote and the observed prefix elsewhere, shards that
// never committed omitted — and the frame's identity vector, the written
// subset. finish appends the frame for any write effects, then gates the
// acknowledgement on the durability of every observed prefix. Append
// returning already covers the written shards (everything earlier in
// file order is durable with the frame), so in practice the wait is for
// shards the transaction only read.
func (d *durState) finish(r *commitRec, committed bool, sp *trace.Span) ([]wal.ShardLSN, error) {
	slices.Sort(r.touched)
	vec := make([]wal.ShardLSN, 0, len(r.touched))
	for _, sh := range r.touched {
		lsn := r.seen[sh] - 1
		// The LSNs an aborted attempt took were rolled back with it:
		// nothing will ever log them, so the acknowledgement (and the
		// vector handed to the gate and the client) rests on the observed
		// prefixes alone.
		if committed && r.lsn[sh] != 0 {
			lsn = r.lsn[sh]
			r.frame.Shards = append(r.frame.Shards, wal.ShardLSN{Shard: sh, LSN: lsn})
		}
		if lsn > 0 {
			vec = append(vec, wal.ShardLSN{Shard: sh, LSN: lsn})
		}
	}
	wrote := len(r.frame.Shards) > 0
	if wrote {
		r.frame.Epoch = d.epoch.Load()
		err := d.log.AppendSpan(&r.frame, sp)
		d.leaveWrite(r) // the frame is in the log (or the log stopped): Fence may pass
		if err != nil {
			// The commit is live in memory but not durable: failing the
			// request keeps "acknowledged implies recoverable" intact.
			return nil, fmt.Errorf("kv: wal append: %w", err)
		}
	}
	if err := d.log.WaitStable(vec); err != nil {
		return nil, fmt.Errorf("kv: wal wait: %w", err)
	}
	sp.Mark(trace.StageStableWait)
	// Replication gate: local durability alone is not enough when a
	// failover could abandon this machine's tail. Reads gate too — a
	// result may expose a concurrent commit that no follower has yet, and
	// acknowledging it would let a client observe state the promoted
	// primary never had.
	if gp := d.gate.Load(); gp != nil && len(vec) > 0 {
		if err := (*gp)(vec, wrote); err != nil {
			return nil, fmt.Errorf("kv: commit gate: %w", err)
		}
		sp.Mark(trace.StageReplGate)
	}
	return vec, nil
}

// snapshotLoop periodically snapshots every shard through a read-only
// transaction and lets the WAL truncate covered segments.
func (d *durState) snapshotLoop(s *Store) {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			for shard := 0; shard < len(s.shards); shard++ {
				select {
				case <-d.stop:
					return
				default:
				}
				d.snapshotShard(s, shard)
			}
		}
	}
}

// snapshotShard seals one shard's snapshot. Failures are recorded (the
// log keeps growing, correctness is unaffected) and retried next tick.
func (d *durState) snapshotShard(s *Store, shard int) {
	lsn, keys, err := s.SnapshotShard(d.th, shard)
	if err != nil || lsn == 0 {
		return
	}
	removedBefore := d.log.Stats().RemovedFiles.Load()
	if err := d.log.Snapshot(shard, lsn, keys); err != nil {
		return
	}
	d.rec.Record(tm.Monotime(), trace.KindWALSnapshot, uint64(shard), lsn, uint64(len(keys)))
	if removed := d.log.Stats().RemovedFiles.Load() - removedBefore; removed > 0 {
		d.rec.Record(tm.Monotime(), trace.KindWALTruncate, uint64(shard), removed, 0)
	}
}

// WriteDurabilityProm appends the durability plane's Prometheus
// metrics: the log's directory and sync policy, recovery counters and
// duration, the stopped gauge and every wal.Stats field
// (metrics.WriteFields). No-op for memory-only stores.
func (s *Store) WriteDurabilityProm(w io.Writer) {
	if s.dur == nil {
		return
	}
	d := s.dur
	st := d.state
	metrics.Info(w, "nztm_wal_info", "write-ahead log directory and fsync policy",
		"dir", d.log.Dir(), "fsync", d.cfg.Fsync.String())
	metrics.CounterFam(w, "nztm_wal_replayed_frames_total", "frames replayed during recovery", st.ReplayedFrames)
	metrics.CounterFam(w, "nztm_wal_truncated_bytes_total", "log bytes truncated during recovery", st.TruncatedBytes)
	metrics.GaugeFam(w, "nztm_wal_recovery_seconds", "wall time of this boot's recovery", st.Duration.Seconds())
	stopped := 0.0
	if d.log.Degraded() != nil {
		stopped = 1
	}
	metrics.GaugeFam(w, "nztm_wal_readonly", "1 once the log refuses writes", stopped)
	metrics.WriteFields(w, "nztm_wal", "counter", d.log.Stats())
}
