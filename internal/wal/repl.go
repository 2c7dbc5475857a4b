package wal

// Replication-facing surface of the log. The replication plane ships
// durable frames to followers by reading them back off disk in file
// order (the log IS the replication stream), so it needs: the frame
// codec, a tailing reader over the segment chain, the stable vector
// that bounds what may be shipped, a wakeup when it advances, and a way
// to force-install a snapshot into a follower's log during catch-up
// bootstrap.

import (
	"errors"
	"fmt"
)

// EncodeFrame appends f's encoded container (checksummed header +
// payload) to dst and returns the extended slice. The bytes are exactly
// what Append writes to the log — the on-disk and on-wire frame formats
// are one format.
func EncodeFrame(dst []byte, f *Frame) []byte { return appendFrame(dst, f) }

// DecodeFrame decodes one frame from the head of b, returning the frame
// and the container size consumed. Errors wrap ErrTorn (b ends before
// the declared length) or ErrCorrupt (checksum or structure).
func DecodeFrame(b []byte) (*Frame, int, error) {
	f, n, err := decodeFrame(b)
	if err == ErrTorn {
		err = fmt.Errorf("%w: %d bytes end inside a frame", ErrTorn, len(b))
	}
	return f, n, err
}

// OpenStream builds a StreamReader that tails the live log in file
// order — which, by the admission rule, is a valid replication order:
// every frame appears after every earlier LSN of each of its shards.
// Leading segments that hold nothing above have (the reader's per-shard
// position) are skipped. The caller skips frames have already covers,
// ships only frames inside StableVector, and answers a frame that is
// more than one LSN ahead in some shard — the log no longer reaches back
// that far — with a snapshot of that shard.
func (l *Log) OpenStream(have []uint64) *StreamReader {
	l.mu.Lock()
	defer l.mu.Unlock()
	first := 0
	for first < len(l.segs)-1 && l.segs[first].covered(have) {
		first++
	}
	return &StreamReader{fs: l.fs, segs: refsOf(l.segs[first:]), more: l.segmentsAfter}
}

// segmentsAfter lists the live segments rotated in after seq.
func (l *Log) segmentsAfter(seq uint64) []SegmentRef {
	l.mu.Lock()
	defer l.mu.Unlock()
	first := len(l.segs)
	for first > 0 && l.segs[first-1].seq > seq {
		first--
	}
	return refsOf(l.segs[first:])
}

func refsOf(segs []segment) []SegmentRef {
	refs := make([]SegmentRef, len(segs))
	for i, g := range segs {
		refs[i] = SegmentRef{Seq: g.seq, Path: g.path}
	}
	return refs
}

// epochRun says that one shard's LSNs from from up to the next run's
// from − 1 were written at epoch.
type epochRun struct{ from, epoch uint64 }

// noteEpoch extends runs with lsn, written at epoch.
func noteEpoch(runs []epochRun, lsn, epoch uint64) []epochRun {
	if runs[len(runs)-1].epoch != epoch {
		runs = append(runs, epochRun{from: lsn, epoch: epoch})
	}
	return runs
}

// EpochAt returns the epoch of the frame that wrote shard's lsn, and
// false when the log does not know it: lsn is past the shard's last
// admitted frame, or below what this process has seen of the shard —
// recovery starts from the snapshot header, which keeps only the
// snapshot LSN's own epoch, and an installed snapshot restarts the
// record the same way. LSN 0, the empty history, is epoch 0.
func (l *Log) EpochAt(shard int, lsn uint64) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epochAtLocked(shard, lsn)
}

func (l *Log) epochAtLocked(shard int, lsn uint64) (uint64, bool) {
	if lsn == 0 {
		return 0, true
	}
	if shard < 0 || shard >= len(l.epochs) || lsn >= l.next[shard] || lsn < l.epochs[shard][0].from {
		return 0, false
	}
	runs := l.epochs[shard]
	i := len(runs) - 1
	for runs[i].from > lsn {
		i--
	}
	return runs[i].epoch, true
}

// StableEpochs returns StableVector and, per shard, the epoch that
// wrote its stable LSN: the (LSN, epoch) pairs a subscriber offers and
// an election compares.
func (l *Log) StableEpochs() (lsns, epochs []uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsns = append([]uint64(nil), l.stable...)
	epochs = make([]uint64, len(lsns))
	for s, lsn := range lsns {
		epochs[s], _ = l.epochAtLocked(s, lsn) // the stable LSN is admitted and at or above the base
	}
	return lsns, epochs
}

// StableVector returns, per shard, the highest LSN inside the log's
// durable prefix: every frame at or below it is persisted per policy,
// so recovery is guaranteed to keep it and it may be shipped to
// followers. Frames above it must not be shipped.
func (l *Log) StableVector() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]uint64(nil), l.stable...)
}

// NotifyStable registers ch to receive a non-blocking signal whenever
// the durable prefix advances (and when the log fails or closes). The
// replication sender parks on it instead of polling. A full channel is
// skipped, so register a buffered channel and treat a receive as "go
// look", not as a count.
func (l *Log) NotifyStable(ch chan struct{}) {
	l.notifyMu.Lock()
	defer l.notifyMu.Unlock()
	if l.notify == nil {
		l.notify = make(map[chan struct{}]struct{})
	}
	l.notify[ch] = struct{}{}
}

// StopNotify unregisters ch.
func (l *Log) StopNotify(ch chan struct{}) {
	l.notifyMu.Lock()
	defer l.notifyMu.Unlock()
	delete(l.notify, ch)
}

// notifyStable signals every registered watcher, without blocking.
func (l *Log) notifyStable() {
	l.notifyMu.Lock()
	defer l.notifyMu.Unlock()
	for ch := range l.notify {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// ErrSnapshotBehind reports an InstallSnapshot below the shard's own
// position outside a re-seed: installing it would leave the shard's later
// frames readable above the snapshot.
var ErrSnapshotBehind = errors.New("wal: snapshot is behind the shard's log position")

// InstallSnapshot force-installs a snapshot of shard at lsn, whose
// frame epoch wrote: it becomes the shard's entire history at or below
// lsn and appending resumes at lsn+1. This is the follower catch-up
// bootstrap — the primary has truncated past the follower's position,
// so the follower replaces the shard wholesale instead of replaying
// frames.
//
// No frame of the shard above lsn may stay readable on disk (recovery
// and a later replication stream would replay it on top of the
// snapshot). An ordinary catch-up installs at or above the shard's
// position, so the chain stays and the shard's frames in it become
// covered leftovers; one below the position is refused with
// ErrSnapshotBehind and changes nothing. reseed marks an install that
// belongs to a re-seed, which replaces every shard because the log
// holds a tail the primary's history does not: the segment chain is the
// only copy of all shards' frames, so it is dropped whole — newest
// segment first, so a crash mid-way leaves a prefix of the old chain
// under the old snapshots, never a disconnected suffix or a splice —
// by the re-seed's first install (the later ones find it empty).
//
// The caller must have quiesced appends (the follower's single apply
// goroutine is the only writer) and has already replaced the shard in
// memory, so a failure past the position check fails the log: it can no
// longer describe the store.
func (l *Log) InstallSnapshot(shard int, lsn, epoch uint64, keys map[string][]byte, reseed bool) error {
	if shard < 0 || shard >= len(l.next) {
		return fmt.Errorf("wal: install snapshot of shard %d of %d", shard, len(l.next))
	}
	l.mu.Lock()
	at := l.next[shard] - 1
	l.mu.Unlock()
	if !reseed && at > lsn {
		return fmt.Errorf("%w: shard %d is at %d, snapshot at %d", ErrSnapshotBehind, shard, at, lsn)
	}
	tmpName, err := l.writeSnapshotTemp(shard, lsn, epoch, keys)
	l.mu.Lock()
	l.acquireLocked()
	if err == nil {
		err = l.err
	}
	drop := reseed && (len(l.segs) > 1 || l.durable > l.segBase) // the chain holds frames
	l.mu.Unlock()
	if err == nil && drop {
		err = l.dropChain()
	}
	var final string
	if err == nil {
		final, err = l.publishSnapshot(tmpName, shard, lsn, len(keys))
	} else if tmpName != "" {
		l.fs.Remove(tmpName)
	}
	if err != nil {
		l.stop(err)
	}
	l.mu.Lock()
	if err == nil {
		l.next[shard], l.stable[shard], l.snapLSN[shard] = lsn+1, lsn, lsn
		l.epochs[shard] = []epochRun{{from: lsn, epoch: epoch}}
		l.notifyStable()
	} else {
		l.failLocked(err)
	}
	l.releaseLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	l.removeFiles(l.staleSnapshots(shard, final))
	return nil
}

// dropChain discards every segment written so far and leaves a fresh,
// empty active segment. The caller holds the writer role.
func (l *Log) dropChain() error {
	if err := l.rotate(); err != nil {
		return err
	}
	l.flushes.Wait() // the rotated-out segment is about to be unlinked
	l.mu.Lock()
	active := len(l.segs) - 1
	old := l.segs[:active]
	l.segs = l.segs[active:]
	l.mu.Unlock()
	for i := len(old) - 1; i >= 0; i-- {
		if l.fs.Remove(old[i].path) == nil {
			l.stats.RemovedFiles.Add(1)
		}
	}
	syncDir(l.fs, l.dir)
	return nil
}
