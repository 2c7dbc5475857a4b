package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"syscall"
)

// snapVersion is the snapshot payload format version byte (distinct
// from frameVersion so a snapshot record can never be mistaken for a
// log frame). Version 3 added the epoch.
const snapVersion = 3

// encodeSnapshot builds a snapshot file's contents: a single
// checksummed container (same header as a log frame) whose payload is
//
//	snapVersion, uvarint shard, uvarint lsn, uvarint epoch,
//	uvarint nKeys, then per key: len-prefixed key, len-prefixed value
//
// where epoch is the epoch of the frame that wrote lsn, the one epoch
// recovery knows below the frames that follow the snapshot. Keys are
// sorted so identical state encodes identically (the double-recovery
// test depends on determinism).
func encodeSnapshot(shard int, lsn, epoch uint64, keys map[string][]byte) []byte {
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	payload := []byte{snapVersion}
	payload = binary.AppendUvarint(payload, uint64(shard))
	payload = binary.AppendUvarint(payload, lsn)
	payload = binary.AppendUvarint(payload, epoch)
	payload = binary.AppendUvarint(payload, uint64(len(names)))
	for _, k := range names {
		payload = binary.AppendUvarint(payload, uint64(len(k)))
		payload = append(payload, k...)
		v := keys[k]
		payload = binary.AppendUvarint(payload, uint64(len(v)))
		payload = append(payload, v...)
	}
	out := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(out, uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// decodeSnapshot parses a snapshot file's contents. Any defect —
// truncation, checksum mismatch, malformed payload, trailing bytes —
// makes the snapshot invalid (recovery falls back to an older one).
func decodeSnapshot(b []byte) (shard int, lsn, epoch uint64, keys map[string][]byte, err error) {
	if len(b) < frameHeaderSize {
		return 0, 0, 0, nil, fmt.Errorf("%w: snapshot header", ErrTorn)
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 || n > maxFramePayload {
		return 0, 0, 0, nil, fmt.Errorf("%w: snapshot payload length %d", ErrCorrupt, n)
	}
	if uint32(len(b)-frameHeaderSize) < n {
		return 0, 0, 0, nil, fmt.Errorf("%w: snapshot payload", ErrTorn)
	}
	payload := b[frameHeaderSize : frameHeaderSize+int(n)]
	if len(b) != frameHeaderSize+int(n) {
		return 0, 0, 0, nil, fmt.Errorf("%w: %d trailing snapshot bytes", ErrCorrupt, len(b)-frameHeaderSize-int(n))
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(b[4:]); got != want {
		return 0, 0, 0, nil, fmt.Errorf("%w: snapshot checksum", ErrCorrupt)
	}
	if len(payload) < 1 || payload[0] != snapVersion {
		return 0, 0, 0, nil, fmt.Errorf("%w: snapshot version", ErrCorrupt)
	}
	p := payload[1:]
	var sh, nKeys uint64
	if sh, p, err = uvarint(p); err != nil {
		return 0, 0, 0, nil, err
	}
	if lsn, p, err = uvarint(p); err != nil {
		return 0, 0, 0, nil, err
	}
	if epoch, p, err = uvarint(p); err != nil {
		return 0, 0, 0, nil, err
	}
	if nKeys, p, err = uvarint(p); err != nil {
		return 0, 0, 0, nil, err
	}
	if nKeys > uint64(len(p)) {
		return 0, 0, 0, nil, fmt.Errorf("%w: %d snapshot keys", ErrCorrupt, nKeys)
	}
	keys = make(map[string][]byte, nKeys)
	for i := uint64(0); i < nKeys; i++ {
		var k, v []byte
		if k, p, err = lenBytes(p); err != nil {
			return 0, 0, 0, nil, err
		}
		if v, p, err = lenBytes(p); err != nil {
			return 0, 0, 0, nil, err
		}
		keys[string(k)] = append([]byte{}, v...) // owned and non-nil, as in decodePayload
	}
	if len(p) != 0 {
		return 0, 0, 0, nil, fmt.Errorf("%w: trailing snapshot payload", ErrCorrupt)
	}
	return int(sh), lsn, epoch, keys, nil
}

// writeSnapshotTemp writes and syncs a snapshot into a temp file in the
// data directory and returns its name. Publication is a later atomic
// rename, so a crash mid-write leaves only ignorable garbage.
func (l *Log) writeSnapshotTemp(shard int, lsn, epoch uint64, keys map[string][]byte) (string, error) {
	tmp, err := l.fs.CreateTemp(l.dir, "tmp-snap-*")
	if err != nil {
		return "", l.snapshotError(err)
	}
	name := tmp.Name()
	if err = writeFull(tmp, encodeSnapshot(shard, lsn, epoch, keys)); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		l.fs.Remove(name)
		return "", l.snapshotError(err)
	}
	return name, nil
}

// snapshotError counts a snapshot file error and applies the stop
// rule's one asymmetry: ENOSPC stops the log, because the volume is
// full, but fails no frame already admitted; any other error fails only
// this snapshot, because the frames it would have covered are still
// durable in the log.
func (l *Log) snapshotError(err error) error {
	l.stats.WriteErrors.Add(1)
	if errors.Is(err, syscall.ENOSPC) {
		l.stop(err)
	}
	return err
}

// publishSnapshot renames a temp snapshot into place and returns the
// final path.
func (l *Log) publishSnapshot(tmpName string, shard int, lsn uint64, nKeys int) (string, error) {
	final := filepath.Join(l.dir, snapshotName(shard, lsn))
	if err := l.fs.Rename(tmpName, final); err != nil {
		l.fs.Remove(tmpName)
		return "", err
	}
	syncDir(l.fs, l.dir)
	l.stats.Snapshots.Add(1)
	l.stats.SnapshotKeys.Store(uint64(nKeys))
	return final, nil
}

// removeFiles deletes dead files (covered segments, superseded
// snapshots).
func (l *Log) removeFiles(dead []string) {
	for _, p := range dead {
		if l.fs.Remove(p) == nil {
			l.stats.RemovedFiles.Add(1)
		}
	}
	if len(dead) > 0 {
		syncDir(l.fs, l.dir)
	}
}

// staleSnapshots lists shard's snapshot files other than keep.
func (l *Log) staleSnapshots(shard int, keep string) []string {
	olds, err := l.fs.Glob(filepath.Join(l.dir, fmt.Sprintf("snap-%03d-*.snap", shard)))
	if err != nil {
		return nil
	}
	stale := olds[:0]
	for _, p := range olds {
		if p != keep {
			stale = append(stale, p)
		}
	}
	return stale
}

// Snapshot seals a snapshot of shard at lsn: keys must be the shard's
// complete state as observed by a transaction that read sequence number
// lsn. The snapshot only seals once every frame ≤ lsn of the shard is
// inside the durable prefix (else a crash could leave the snapshot
// exposing a commit recovery drops). On seal the log rotates to a fresh
// segment and deletes, oldest first, every leading segment whose every
// (shard, lsn) is at or below that shard's sealed snapshot — plus the
// shard's stale snapshots.
func (l *Log) Snapshot(shard int, lsn uint64, keys map[string][]byte) error {
	if shard < 0 || shard >= len(l.snapLSN) {
		return fmt.Errorf("wal: snapshot of shard %d of %d", shard, len(l.snapLSN))
	}
	if err := l.WaitStable([]ShardLSN{{Shard: shard, LSN: lsn}}); err != nil {
		return err
	}
	l.mu.Lock()
	already := lsn <= l.snapLSN[shard]
	epoch, known := l.epochAtLocked(shard, lsn)
	l.mu.Unlock()
	if already {
		return nil // an equal-or-newer snapshot is already sealed
	}
	if !known {
		return fmt.Errorf("wal: snapshot of shard %d at lsn %d, whose epoch the log does not know", shard, lsn)
	}
	tmpName, err := l.writeSnapshotTemp(shard, lsn, epoch, keys)
	if err != nil {
		return err
	}
	final, err := l.publishSnapshot(tmpName, shard, lsn, len(keys))
	if err != nil {
		return err
	}

	l.mu.Lock()
	if lsn > l.snapLSN[shard] {
		l.snapLSN[shard] = lsn
	}
	l.acquireLocked()
	rotate := l.err == nil && l.durable > l.segBase // the active segment holds frames
	l.mu.Unlock()
	if rotate {
		err = l.rotate()
	}
	var dead []string
	l.mu.Lock()
	if err != nil {
		l.failLocked(err)
	}
	for len(l.segs) > 1 && l.segs[0].covered(l.snapLSN) {
		dead = append(dead, l.segs[0].path)
		l.segs = l.segs[1:]
	}
	l.releaseLocked()
	l.mu.Unlock()
	l.removeFiles(append(dead, l.staleSnapshots(shard, final)...))
	return err
}
