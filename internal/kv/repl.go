package kv

import (
	"errors"
	"fmt"
	"time"

	"nztm/internal/tm"
	"nztm/internal/wal"
)

// Replication-facing surface of the store. A follower applies the
// primary's WAL frames through ApplyFrame (one transaction per frame,
// so streamed cross-shard atomicity holds on the replica) and
// bootstraps whole shards through LoadShardSnapshot when the primary
// has truncated past its position. The primary builds those bootstrap
// snapshots from SnapshotShard, encoded by its WAL, and gates client
// acknowledgements on follower acknowledgement through the commit gate
// — the property that makes "no acked write lost" survive a primary
// SIGKILL.

// CommitGate delays an acknowledgement until the replication plane is
// satisfied: vec is the per-shard commit prefix the request's results
// depend on (its own writes plus every observed read prefix), and wrote
// reports whether the request itself committed writes — the plane fails
// a deposed primary's writes outright but lets replica-local reads
// through. A nil error releases the ack; an error fails the request
// with its outcome unknown to the client.
type CommitGate func(vec []wal.ShardLSN, wrote bool) error

// SetCommitGate installs (or, with nil, removes) the acknowledgement
// gate. No-op on memory-only stores. Safe to swap while serving — a
// follower promoting to primary installs its gate before accepting
// writes.
func (s *Store) SetCommitGate(g CommitGate) {
	if s.dur == nil {
		return
	}
	if g == nil {
		s.dur.gate.Store(nil)
		return
	}
	s.dur.gate.Store(&g)
}

// SetEpoch sets the epoch stamped on every frame the store commits from
// now on (0 until called) and lifts a Fence. The replication plane calls
// it when its node becomes primary, before it admits a write. No-op on
// memory-only stores.
func (s *Store) SetEpoch(e uint64) {
	if s.dur != nil {
		s.dur.epoch.Store(e)
		s.dur.fenced.Store(false)
	}
}

// Fence makes the store refuse client write batches with ErrFenced
// until the next SetEpoch, then waits until every batch already past
// that check has its frame in the log, or stop closes. Once it returns
// nil the log describes all the store holds in memory, and only
// ApplyFrame and LoadShardSnapshot change it: the state a follower's
// subscribe handshake offers. It returns the log's error once the log
// has stopped (memory may then hold a commit the log never took). No-op
// on memory-only stores.
func (s *Store) Fence(stop <-chan struct{}) error {
	if s.dur == nil {
		return nil
	}
	d := s.dur
	d.fenced.Store(true)
	for d.writers.Load() > 0 {
		select {
		case <-stop:
			return errors.New("kv: fence: stopped while writes drained")
		case <-time.After(time.Millisecond):
		}
	}
	return d.log.Degraded()
}

// ApplyFrame applies one replicated frame to a follower store: a single
// transaction advances every vector shard's sequencer from lsn-1 to lsn
// and applies that shard's ops, then the frame is appended to the
// follower's own WAL, epoch included, so the follower's log remains a
// dense, provable prefix of the primary's history (and can seed
// promotion or re-serve the stream later).
//
// A vector entry already covered by the follower's state (sequencer ≥
// lsn, e.g. after a snapshot bootstrap) is skipped — ops included — and
// the WAL admits the frame on its remaining entries. A vector entry that
// would leave a gap (sequencer < lsn-1) is a stream-order violation and
// errors without effect.
//
// The store keeps each op's Val slice as the value, uncopied: f must own
// its values (a frame from wal.DecodeFrame does) and nothing may write to
// them afterwards.
//
// th must not be used concurrently; the follower's single apply
// goroutine is the store's only writer.
func (s *Store) ApplyFrame(th *tm.Thread, f *wal.Frame) error {
	if s.dur == nil {
		return errors.New("kv: ApplyFrame on a memory-only store")
	}
	// Validate the vector before the transaction: a frame the log would
	// refuse must not commit in memory first, and the record's
	// observe-once rule needs each shard named once.
	if err := wal.CheckVector(f.Shards, len(s.shards)); err != nil {
		return fmt.Errorf("kv: ApplyFrame: %w", err)
	}
	d := s.dur
	r := d.recs.Get().(*commitRec)
	defer d.release(r)
	anyNew := false
	err := s.sys.Atomic(th, func(tx tm.Tx) error {
		// A retried attempt re-decides from scratch.
		r.reset()
		anyNew = false
		for _, sl := range f.Shards {
			switch cur := r.observe(tx, d, sl.Shard); {
			case cur >= sl.LSN: // covered: snapshot bootstrap got here first
			case cur == sl.LSN-1:
				r.take(tx, d, sl.Shard)
				anyNew = true
			default:
				return fmt.Errorf("kv: replication gap: shard %d applied through %d, frame carries lsn %d",
					sl.Shard, cur, sl.LSN)
			}
		}
		if !anyNew {
			return nil
		}
		for i := range f.Ops {
			op := &f.Ops[i]
			if op.Shard < 0 || op.Shard >= len(s.shards) || r.lsn[op.Shard] == 0 {
				continue // a covered shard's op, or one the vector does not name
			}
			obj, shard := s.locate(op.Key)
			if shard != op.Shard {
				return fmt.Errorf("kv: frame op key %q hashes to shard %d, frame says %d", op.Key, shard, op.Shard)
			}
			if op.Del {
				tx.Update(obj, func(dd tm.Data) {
					dd.(*bucketData).del(op.Key)
				})
			} else {
				tx.Update(obj, func(dd tm.Data) {
					dd.(*bucketData).put(op.Key, op.Val)
				})
			}
		}
		return nil
	})
	if err != nil || !anyNew {
		return err
	}
	return d.log.Append(f)
}

// LoadShardSnapshot replaces one shard's entire state with a snapshot
// container shipped by the primary (wal.Log.SnapshotContainer): it
// decodes the container once, the sequencer jumps to its LSN, every
// bucket is rebuilt from its keys, and the follower's WAL installs the
// same bytes, so its on-disk history matches (see wal.InstallSnapshot).
// It returns the shard and LSN installed. A damaged container is
// wal.ErrCorrupt and changes nothing. reseed marks an install that
// belongs to a re-seed: the follower's log holds a tail the primary's
// does not, so the WAL drops its whole segment chain and every shard is
// replaced. Outside a re-seed a snapshot below the shard's position is
// refused with wal.ErrSnapshotBehind before anything changes. A request
// whose transaction ran before the install fails rather than answer
// from the state it replaced. The follower's apply goroutine is the
// only permitted caller.
func (s *Store) LoadShardSnapshot(th *tm.Thread, container []byte, reseed bool) (int, uint64, error) {
	if s.dur == nil {
		return 0, 0, errors.New("kv: LoadShardSnapshot on a memory-only store")
	}
	shard, lsn, _, keys, err := wal.DecodeSnapshot(container)
	if err != nil {
		return 0, 0, err
	}
	if shard < 0 || shard >= len(s.shards) {
		return 0, 0, fmt.Errorf("kv: snapshot of shard %d of %d", shard, len(s.shards))
	}
	d := s.dur
	r := d.recs.Get().(*commitRec)
	defer d.release(r)
	err = s.sys.Atomic(th, func(tx tm.Tx) error {
		if cur := tx.Read(d.seqs[shard]).(*seqData).lsn; !reseed && cur > lsn {
			return fmt.Errorf("%w: shard %d applied through %d, snapshot at %d", wal.ErrSnapshotBehind, shard, cur, lsn)
		}
		r.set(tx, d, shard, lsn)
		for b := 0; b < s.buckets; b++ {
			tx.Update(s.shards[shard][b], func(dd tm.Data) {
				bd := dd.(*bucketData)
				bd.entries = bd.entries[:0]
			})
		}
		for k, v := range keys {
			obj, sh := s.locate(k)
			if sh != shard {
				return fmt.Errorf("kv: snapshot key %q hashes to shard %d, not %d", k, sh, shard)
			}
			key, val := k, v
			tx.Update(obj, func(dd tm.Data) {
				dd.(*bucketData).put(key, val)
			})
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	// After the commit: a request that observed the replaced state loaded
	// the count before it, and fails in finish.
	d.installs.Add(1)
	return shard, lsn, d.log.InstallSnapshot(container, reseed)
}

// SnapshotShard reads one shard's complete state — sequencer value plus
// every key — in a single read-only transaction, so the result is a
// consistent cut at exactly that LSN. The periodic snapshotter and the
// replication catch-up path (the primary shipping a bootstrap snapshot
// to a lagging follower) both use it, and both hand it to the WAL to
// encode. The map's values are the stored slices themselves: read-only
// (see Result.Value).
func (s *Store) SnapshotShard(th *tm.Thread, shard int) (uint64, map[string][]byte, error) {
	if s.dur == nil {
		return 0, nil, errors.New("kv: SnapshotShard on a memory-only store")
	}
	if shard < 0 || shard >= len(s.shards) {
		return 0, nil, fmt.Errorf("kv: snapshot of shard %d of %d", shard, len(s.shards))
	}
	d := s.dur
	var lsn uint64
	var keys map[string][]byte
	err := s.sys.Atomic(th, func(tx tm.Tx) error {
		// A retried attempt re-reads from scratch.
		lsn = tx.Read(d.seqs[shard]).(*seqData).lsn
		keys = make(map[string][]byte)
		for b := 0; b < s.buckets; b++ {
			bd := tx.Read(s.shards[shard][b]).(*bucketData)
			for _, e := range bd.entries {
				keys[e.key] = e.val // immutable, so shared rather than copied
			}
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return lsn, keys, nil
}

// AppliedVector returns the per-shard prefix this durable store has
// applied and persisted — for a follower, exactly the frames it can
// prove, which is what it offers when (re)subscribing and what its
// acks report. Nil for memory-only stores.
func (s *Store) AppliedVector() []uint64 {
	if s.dur == nil {
		return nil
	}
	return s.dur.log.StableVector()
}
