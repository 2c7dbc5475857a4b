package wal

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"nztm/internal/metrics"
	"nztm/internal/trace"
)

// FsyncPolicy selects when appended frames are forced to stable media.
type FsyncPolicy int

// Fsync policies. The acknowledgement rule each implies is documented on
// Append.
const (
	// FsyncAlways fsyncs before every append acknowledgement: commits
	// survive an OS crash at the cost of one sync per group commit.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs in the background every Config.FsyncInterval:
	// commits survive a process crash immediately (the page cache holds
	// the write) and an OS crash after at most one interval.
	FsyncInterval
	// FsyncNever leaves syncing to the OS (and to segment rotation and
	// Close): process-crash durable only.
	FsyncNever
)

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("fsync(%d)", int(p))
}

// ParseFsyncPolicy parses "always", "interval" or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// Config configures Open.
type Config struct {
	// Dir is the data directory (created if absent). One directory holds
	// one store's commit log, snapshots and MANIFEST.
	Dir string
	// Shards is the store's shard count; it is sealed into MANIFEST and
	// must match on reopen (recovery has no hash function, so replay
	// cannot re-shard).
	Shards int
	// Fsync is the sync policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the background sync period under FsyncInterval
	// (default 50ms).
	FsyncInterval time.Duration
	// FS is the filesystem seam (nil = the real filesystem). The fault
	// plane substitutes one that injects I/O errors and process death.
	FS FS
	// OnDegrade, when non-nil, is called once, when the log stops,
	// from whatever goroutine observed the I/O error. It must not call
	// back into the log.
	OnDegrade func(cause error)
}

// Stats are cumulative counters and commit-pipeline distributions, safe
// for concurrent reading while the log runs (exported to /metricsz by
// metrics.WriteFields — atomic.Uint64 fields as counters,
// metrics.Histogram fields as dimensionless histograms, by reflection
// over this struct, so a new field cannot ship unexported).
type Stats struct {
	AppendedFrames atomic.Uint64 // frames written (exactly one copy per committed transaction)
	AppendedBytes  atomic.Uint64 // encoded frame bytes written
	Fsyncs         atomic.Uint64 // successful fsyncs of log segments (cohort, interval, rotation, close)
	Snapshots      atomic.Uint64 // snapshots sealed
	SnapshotKeys   atomic.Uint64 // keys in the last sealed snapshot pass
	RemovedFiles   atomic.Uint64 // covered segments + stale snapshots deleted

	// Storage fault-plane counters (DESIGN.md §17): I/O errors the log
	// observed. Whether the log stopped is Degraded, not a counter.
	WriteErrors  atomic.Uint64 // segment open/write and snapshot file errors observed
	SyncFailures atomic.Uint64 // segment fsync errors observed

	// FsyncCohortFrames is how many frames, across all shards, each
	// fsync made durable: the group-commit amortization factor (1 = no
	// batching happening).
	FsyncCohortFrames metrics.Histogram
	// ReorderOccupancy samples the reorder buffer's depth at each
	// enqueue (counting the arriving frame): how far out of readiness
	// order post-commit handoff arrives.
	ReorderOccupancy metrics.Histogram
}

// segment is one file of the log's single segment chain. Sequence
// numbers are dense, so a missing middle segment is detectable from the
// names alone.
type segment struct {
	seq  uint64
	path string
	// last is, per shard, the highest LSN the log had written when the
	// segment closed — an upper bound on every (shard, lsn) inside it.
	// Nil while the segment is the active one.
	last []uint64
}

// covered reports whether every (shard, lsn) a closed segment can
// contain is ≤ have[shard].
func (g *segment) covered(have []uint64) bool {
	if g.last == nil {
		return false
	}
	for s, lsn := range g.last {
		if lsn > have[s] {
			return false
		}
	}
	return true
}

// appendReq is one in-flight Append: the encoded frame and, once the
// readiness rule admits it, its position in file order. Pooled, so the
// encode buffer is reused across commits.
type appendReq struct {
	buf    []byte
	shards []ShardLSN
	epoch  uint64
	pos    uint64 // file-order position (frames before it, plus one); parked until admitted
	stale  bool   // every vector entry was already logged: refused, never written
}

// parked marks a request the readiness rule has not admitted yet: no
// durable position ever reaches it.
const parked = ^uint64(0)

var reqPool = sync.Pool{New: func() any { return new(appendReq) }}

// ErrReadOnly is what Degraded, and every later Append, returns once
// the log has stopped: the frame was refused before any byte of it was
// logged. That says nothing about the caller's in-memory effects, so it
// is a clean refusal only for a caller that checked Degraded before
// executing anything (as kv does).
var ErrReadOnly = errors.New("wal: log stopped, refusing writes")

// errClosed poisons the log after Close.
var errClosed = errors.New("wal: log closed")

// Log is an open write-ahead log: one physical commit log shared by
// every shard. Frames are admitted in an order consistent with every
// shard's LSN order, written once, and acknowledged when the log's
// single durable position passes them.
type Log struct {
	cfg   Config
	dir   string
	fs    FS
	stats Stats

	// stopped holds the storage error that stopped the log; nil while it
	// accepts appends. It is set once and never cleared: "retrying" a
	// failed fsync would treat pages the kernel already marked clean as
	// durable when they never reached media (the fsyncgate bug class),
	// nothing may be written past a torn frame, and a full volume cannot
	// promise new appends space. A restart re-proves the directory.
	stopped atomic.Pointer[error]

	mu   sync.Mutex
	cond *sync.Cond

	f       File      // active (last) segment
	segs    []segment // live chain, ascending seq; the last one is active
	segBase uint64    // durable position when the active segment was opened

	// Admission. A frame is ready when every (shard, lsn) of its vector
	// is that shard's next LSN (entries below next are already covered,
	// as on a follower after a snapshot bootstrap); ready frames move
	// from pending into batch in that order, which becomes file order.
	next     []uint64 // per shard: LSN the next admitted frame must carry
	pending  []*appendReq
	batch    []byte // admitted, not yet written
	spare    []byte // the writer's last buffer, recycled as the next batch
	admitted uint64 // frames admitted so far (file-order position of the newest)

	// durable is the file-order position through which the log is
	// persisted per policy (fsynced under FsyncAlways, write()n
	// otherwise); stable is the same prefix seen per shard — the highest
	// LSN of each shard inside it. Acknowledgements gate on these.
	durable uint64
	stable  []uint64
	cut     []uint64 // writer-role scratch: stable as it will be once the cohort lands

	snapLSN []uint64 // per shard: latest sealed snapshot LSN

	// epochs records, per shard, which epoch wrote which LSNs: recovery
	// rebuilds it from the snapshot header and the frames after it, and
	// every admitted frame extends it (EpochAt).
	epochs [][]epochRun

	writing bool  // the writer role is held (a cohort's Write/Sync, a rotation, an install)
	syncing bool  // the interval syncer has an fsync of the active segment in flight
	err     error // sticky: fails every wait that the durable prefix does not already satisfy

	flushes sync.WaitGroup // background flushes of rotated-out segments
	quit    chan struct{}
	wg      sync.WaitGroup

	// Stable-advance watchers (replication senders); see NotifyStable.
	notifyMu sync.Mutex
	notify   map[chan struct{}]struct{}

	closeOnce sync.Once
}

// Stats returns the log's counters (live; fields are atomics).
func (l *Log) Stats() *Stats { return &l.stats }

// Dir returns the data directory.
func (l *Log) Dir() string { return l.dir }

// Degraded returns nil while the log accepts appends, else ErrReadOnly
// wrapped with the storage error that stopped it — callers shed writes
// before executing them. One atomic load while the log runs.
func (l *Log) Degraded() error {
	if cause := l.stopped.Load(); cause != nil {
		return fmt.Errorf("%w: %v", ErrReadOnly, *cause)
	}
	return nil
}

// stop is the log's one reaction to a storage error it cannot write
// past: every later append is refused, and OnDegrade fires on the first
// call only. It does not fail frames already admitted; the caller whose
// I/O failed does that under mu (failLocked). Never touches mu, so I/O
// paths may call it unlocked.
func (l *Log) stop(cause error) {
	if l.stopped.CompareAndSwap(nil, &cause) {
		if h := l.cfg.OnDegrade; h != nil {
			h(cause)
		}
	}
}

// failLocked records the sticky error (first one wins) that fails every
// wait the durable prefix does not already satisfy, and wakes waiters
// and replication senders. Called with mu held, after stop.
func (l *Log) failLocked(err error) {
	if l.err == nil {
		l.err = err
	}
	l.cond.Broadcast()
	l.notifyStable()
}

// acquireLocked takes the writer role — the exclusive right to write,
// sync, swap or remove segment files. Called with mu held.
func (l *Log) acquireLocked() {
	for l.writing {
		l.cond.Wait()
	}
	l.writing = true
}

// releaseLocked gives the writer role up. Called with mu held.
func (l *Log) releaseLocked() {
	l.writing = false
	l.cond.Broadcast()
}

// Append durably records f, which must carry a fully-populated identity
// vector (every shard written, with the LSN assigned inside the
// transaction, sorted by shard). It blocks until the frame — and with
// it every frame earlier in file order, which includes every earlier
// LSN of each of its shards — is persisted per policy: write()n for
// FsyncInterval / FsyncNever (process crashes cannot lose it), fsynced
// for FsyncAlways. Only after Append returns may the commit be
// acknowledged to a client.
func (l *Log) Append(f *Frame) error { return l.AppendSpan(f, nil) }

// AppendSpan is Append with a request span. Under FsyncAlways the
// wal_append stage is stamped once the frame is written — or, when it
// must queue behind another appender's cohort, once it is admitted —
// and fsync_wait once the covering fsync lands; other policies stamp
// only wal_append, on completion. sp may be nil.
func (l *Log) AppendSpan(f *Frame, sp *trace.Span) error {
	if err := CheckVector(f.Shards, len(l.next)); err != nil {
		return err
	}
	if err := l.Degraded(); err != nil {
		return err // shed before any byte is logged: provably no effect
	}
	r := reqPool.Get().(*appendReq)
	r.buf = appendFrame(r.buf[:0], f)
	r.shards, r.epoch, r.pos, r.stale = f.Shards, f.Epoch, parked, false
	err := l.commit(r, sp)
	r.shards = nil
	reqPool.Put(r)
	if err != nil {
		return err
	}
	if l.cfg.Fsync == FsyncAlways {
		sp.Mark(trace.StageFsyncWait)
	} else {
		sp.Mark(trace.StageWALAppend)
	}
	return nil
}

// CheckVector rejects a frame vector the readiness rule cannot order
// on a log of the given shard count: empty, out of range, or not strictly
// ascending by shard (the caller builds it sorted; the log never
// reorders a caller's slice).
func CheckVector(vec []ShardLSN, shards int) error {
	if len(vec) == 0 {
		return errors.New("wal: frame with empty shard vector")
	}
	for i, sl := range vec {
		if sl.Shard < 0 || sl.Shard >= shards {
			return fmt.Errorf("wal: frame names shard %d of %d", sl.Shard, shards)
		}
		if i > 0 && sl.Shard <= vec[i-1].Shard {
			return fmt.Errorf("wal: frame vector not sorted by shard (%d after %d)", sl.Shard, vec[i-1].Shard)
		}
	}
	return nil
}

// commit enqueues r and blocks until the durable position passes it.
// Whichever blocked appender finds the writer role free takes it for
// one cohort: every frame admitted so far goes out in one Write and,
// under FsyncAlways, one Sync.
func (l *Log) commit(r *appendReq, sp *trace.Span) error {
	always := l.cfg.Fsync == FsyncAlways
	marked := false
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.stats.ReorderOccupancy.ObserveValue(uint64(len(l.pending) + 1))
	if !l.admitLocked(r) {
		l.pending = append(l.pending, r)
	} else if len(l.pending) > 0 {
		l.sweepLocked()
	}
	for l.durable < r.pos {
		switch {
		case l.err != nil:
			return l.err
		case r.pos != parked && !l.writing:
			// Admitted, not durable, nobody writing: the frame is in batch.
			l.flushLocked(always && !marked, sp)
			marked = true
		default:
			if always && !marked && r.pos != parked {
				sp.Mark(trace.StageWALAppend)
				marked = true
			}
			l.cond.Wait()
		}
	}
	if r.stale {
		return fmt.Errorf("wal: frame %v is already logged in every shard it names", r.shards)
	}
	return nil
}

// admitLocked applies the readiness rule to r. A ready frame takes the
// next file-order position and its bytes join the batch. A frame whose
// every entry is already below next repeats LSNs the log has handed to
// other frames — a sequencer bug upstream — and is refused rather than
// acknowledged unwritten. Reports whether r left the reorder buffer
// (false = park it).
func (l *Log) admitLocked(r *appendReq) bool {
	fresh := false
	for _, sl := range r.shards {
		switch next := l.next[sl.Shard]; {
		case sl.LSN > next:
			return false
		case sl.LSN == next:
			fresh = true
		}
	}
	if !fresh {
		r.stale, r.pos = true, 0
		return true
	}
	for _, sl := range r.shards {
		if sl.LSN == l.next[sl.Shard] {
			l.next[sl.Shard]++
			l.epochs[sl.Shard] = noteEpoch(l.epochs[sl.Shard], sl.LSN, r.epoch)
		}
	}
	l.batch = append(l.batch, r.buf...)
	l.admitted++
	r.pos = l.admitted
	return true
}

// sweepLocked re-applies the readiness rule to the reorder buffer until
// no parked frame is ready. The buffer holds at most one frame per
// blocked appender, so the quadratic sweep stays tiny.
func (l *Log) sweepLocked() {
	for progress := true; progress; {
		progress = false
		for i := 0; i < len(l.pending); i++ {
			if l.admitLocked(l.pending[i]) {
				last := len(l.pending) - 1
				l.pending[i], l.pending[last] = l.pending[last], nil
				l.pending = l.pending[:last]
				i--
				progress = true
			}
		}
	}
	l.cond.Broadcast() // admitted appenders may now take the writer role
}

// flushLocked holds the writer role for one cohort: the whole batch in
// one Write, then (FsyncAlways) one Sync covering every shard in it,
// then the single durable position and the per-shard stable vector
// advance together. Called with mu held; releases it around the I/O.
// mark stamps the caller's wal_append stage once its bytes are written.
func (l *Log) flushLocked(mark bool, sp *trace.Span) {
	l.writing = true
	buf, upto, f := l.batch, l.admitted, l.f
	l.batch, l.spare = l.spare[:0], nil
	for s, next := range l.next {
		l.cut[s] = next - 1
	}
	l.mu.Unlock()

	err := writeFull(f, buf)
	if err != nil {
		l.stats.WriteErrors.Add(1)
		l.stop(err)
	} else {
		if mark {
			sp.Mark(trace.StageWALAppend)
		}
		if l.cfg.Fsync == FsyncAlways {
			if err = f.Sync(); err != nil {
				// A failed fsync means the kernel may have dropped the dirty
				// pages while marking them clean — no retry can make these
				// frames durable.
				l.stats.SyncFailures.Add(1)
				l.stop(err)
			}
		}
	}

	l.mu.Lock()
	l.spare = buf[:0]
	if err != nil {
		l.failLocked(err)
	} else {
		frames := upto - l.durable
		l.stats.AppendedFrames.Add(frames)
		l.stats.AppendedBytes.Add(uint64(len(buf)))
		if l.cfg.Fsync == FsyncAlways {
			l.stats.Fsyncs.Add(1)
			l.stats.FsyncCohortFrames.ObserveValue(frames)
		}
		l.durable = upto
		copy(l.stable, l.cut)
		l.notifyStable()
	}
	l.releaseLocked()
}

// writeFull writes p, promoting error-free short writes to
// io.ErrShortWrite: silently accepting one would mark a torn frame
// written.
func writeFull(f File, p []byte) error {
	n, err := f.Write(p)
	if err == nil && n < len(p) {
		return io.ErrShortWrite
	}
	return err
}

// WaitStable blocks until, for every entry of vec, every frame of that
// shard with an LSN ≤ the entry's is inside the log's durable prefix.
// Transactions call this with the sequence numbers they observed before
// acknowledging results: an acked read must never expose a commit that
// recovery could drop. A prefix that is already durable stays
// acknowledgeable after the log stops, which is what keeps reads
// serving on a stopped store.
func (l *Log) WaitStable(vec []ShardLSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, sl := range vec {
		if sl.Shard < 0 || sl.Shard >= len(l.stable) {
			continue
		}
		for l.stable[sl.Shard] < sl.LSN {
			if l.err != nil {
				return l.err
			}
			l.cond.Wait()
		}
	}
	return nil
}

// rotate closes the active segment and starts a fresh one, flushing the
// rotated-out file in the background: under FsyncNever that flush
// covers a whole snapshot interval of dirty pages, and appends must not
// wait on it. The caller holds the writer role and not mu.
func (l *Log) rotate() error {
	seq := l.segs[len(l.segs)-1].seq + 1 // only the writer role ever changes the chain
	path := filepath.Join(l.dir, segmentName(seq))
	nf, err := l.fs.OpenFile(path, osCreateAppend, 0o644)
	if err != nil {
		l.stats.WriteErrors.Add(1)
		l.stop(err)
		return err
	}
	l.mu.Lock()
	for l.syncing {
		l.cond.Wait() // the interval syncer still holds the outgoing file
	}
	old := l.f
	l.f = nf
	l.segs[len(l.segs)-1].last = append([]uint64(nil), l.stable...)
	l.segs = append(l.segs, segment{seq: seq, path: path})
	l.segBase = l.durable
	l.mu.Unlock()

	l.flushes.Add(1)
	go func() {
		defer l.flushes.Done()
		err := old.Sync()
		if cerr := old.Close(); err == nil {
			// A close error on a rotated-out segment can surface a deferred
			// writeback failure; dropping it would leave acknowledged frames
			// that never reached media.
			err = cerr
		}
		if err != nil {
			l.stats.SyncFailures.Add(1)
			l.stop(err)
			l.mu.Lock()
			l.failLocked(err)
			l.mu.Unlock()
			return
		}
		l.stats.Fsyncs.Add(1)
		syncDir(l.fs, l.dir)
	}()
	return nil
}

// syncLoop is the FsyncInterval background goroutine. It syncs the
// active segment alongside appends (holding only the syncing flag, which
// rotation waits out), so a tick never stalls the write path.
func (l *Log) syncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.cfg.FsyncInterval)
	defer t.Stop()
	var synced uint64 // durable position covered by the last tick
	for {
		select {
		case <-l.quit:
			return
		case <-t.C:
		}
		l.mu.Lock()
		if l.err != nil || l.durable == synced {
			l.mu.Unlock()
			continue
		}
		f, upto := l.f, l.durable
		l.syncing = true
		l.mu.Unlock()
		err := f.Sync()
		if err != nil {
			l.stats.SyncFailures.Add(1)
			l.stop(err)
		}
		l.mu.Lock()
		l.syncing = false
		if err != nil {
			l.failLocked(err)
		} else {
			l.stats.Fsyncs.Add(1)
			l.stats.FsyncCohortFrames.ObserveValue(upto - synced)
			synced = upto
		}
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}

// Close flushes and syncs the log and stops background work. It must
// not race in-flight Appends (drain the server first).
func (l *Log) Close() error {
	var err error
	l.closeOnce.Do(func() {
		close(l.quit)
		l.wg.Wait()
		l.mu.Lock()
		l.acquireLocked()
		l.mu.Unlock()
		l.flushes.Wait()
		l.mu.Lock()
		if err = l.f.Sync(); err == nil {
			l.stats.Fsyncs.Add(1)
		}
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = l.err
		}
		l.err = errClosed
		l.releaseLocked()
		l.notifyStable() // wake stable watchers so they observe the close
		l.mu.Unlock()
	})
	return err
}

// File-name helpers. Names embed 16-hex-digit numbers so lexicographic
// order equals numeric order.
func segmentName(seq uint64) string { return fmt.Sprintf("wal-%016x.log", seq) }

func snapshotName(shard int, lsn uint64) string {
	return fmt.Sprintf("snap-%03d-%016x.snap", shard, lsn)
}
