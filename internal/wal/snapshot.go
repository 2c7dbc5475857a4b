package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"path/filepath"
	"sort"
	"syscall"
)

// snapVersion is the snapshot payload format version byte (distinct
// from frameVersion so a snapshot record can never be mistaken for a
// log frame). Version 3 added the epoch.
const snapVersion = 3

// errSnapshotSize refuses a snapshot whose payload no reader would
// accept: decoding bounds a container by maxFramePayload.
var errSnapshotSize = errors.New("wal: snapshot payload over the frame limit")

// encodeSnapshot builds a snapshot container (same header as a log
// frame) whose payload is
//
//	snapVersion, uvarint shard, uvarint lsn, uvarint epoch,
//	uvarint nKeys, then per key: len-prefixed key, len-prefixed value
//
// where epoch is the epoch of the frame that wrote lsn, the one epoch
// recovery knows below the frames that follow the snapshot. Keys are
// sorted so identical state encodes identically (the double-recovery
// test depends on determinism). A payload over maxFramePayload is
// refused before anything is allocated for it.
func encodeSnapshot(shard int, lsn, epoch uint64, keys map[string][]byte) ([]byte, error) {
	size := 1 + uvarintLen(uint64(shard)) + uvarintLen(lsn) + uvarintLen(epoch) + uvarintLen(uint64(len(keys)))
	names := make([]string, 0, len(keys))
	for k, v := range keys {
		names = append(names, k)
		size += uvarintLen(uint64(len(k))) + len(k) + uvarintLen(uint64(len(v))) + len(v)
	}
	if size > maxFramePayload {
		return nil, fmt.Errorf("%w: shard %d at lsn %d is %d bytes", errSnapshotSize, shard, lsn, size)
	}
	sort.Strings(names)
	out := make([]byte, frameHeaderSize, frameHeaderSize+size)
	out = append(out, snapVersion)
	out = binary.AppendUvarint(out, uint64(shard))
	out = binary.AppendUvarint(out, lsn)
	out = binary.AppendUvarint(out, epoch)
	out = binary.AppendUvarint(out, uint64(len(names)))
	for _, k := range names {
		out = binary.AppendUvarint(out, uint64(len(k)))
		out = append(out, k...)
		v := keys[k]
		out = binary.AppendUvarint(out, uint64(len(v)))
		out = append(out, v...)
	}
	payload := out[frameHeaderSize:]
	binary.LittleEndian.PutUint32(out, uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.Checksum(payload, castagnoli))
	return out, nil
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// snapHead is what a snapshot container says before its keys.
type snapHead struct {
	shard             int
	lsn, epoch, nKeys uint64
}

// snapshotHead checks a whole snapshot container — length, checksum,
// version — and parses the fields before its keys, returning the keys'
// encoding after them. A container is published or shipped whole, so
// every defect, a short one included, is ErrCorrupt.
func snapshotHead(b []byte) (h snapHead, keys []byte, err error) {
	if n := len(b) - frameHeaderSize; n < 0 || n > maxFramePayload || uint32(n) != binary.LittleEndian.Uint32(b) {
		return h, nil, fmt.Errorf("%w: snapshot length", ErrCorrupt)
	}
	p := b[frameHeaderSize:]
	if crc32.Checksum(p, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return h, nil, fmt.Errorf("%w: snapshot checksum", ErrCorrupt)
	}
	if len(p) < 1 || p[0] != snapVersion {
		return h, nil, fmt.Errorf("%w: snapshot version", ErrCorrupt)
	}
	p = p[1:]
	var sh uint64
	if sh, p, err = uvarint(p); err != nil {
		return h, nil, err
	}
	if h.lsn, p, err = uvarint(p); err != nil {
		return h, nil, err
	}
	if h.epoch, p, err = uvarint(p); err != nil {
		return h, nil, err
	}
	if h.nKeys, p, err = uvarint(p); err != nil {
		return h, nil, err
	}
	if h.nKeys > uint64(len(p)) {
		return h, nil, fmt.Errorf("%w: %d snapshot keys", ErrCorrupt, h.nKeys)
	}
	h.shard = int(sh)
	return h, p, nil
}

// DecodeSnapshot parses a snapshot container: the shard, the LSN it
// cuts at, the epoch that wrote that LSN, and the shard's keys, each
// value owned by the caller. Every defect wraps ErrCorrupt; recovery
// then falls back to an older snapshot.
func DecodeSnapshot(b []byte) (shard int, lsn, epoch uint64, keys map[string][]byte, err error) {
	h, p, err := snapshotHead(b)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	keys = make(map[string][]byte, h.nKeys)
	for i := uint64(0); i < h.nKeys; i++ {
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
	return h.shard, h.lsn, h.epoch, keys, nil
}

// SnapshotContainer builds the container of shard's snapshot at lsn,
// where keys is the shard's complete state as observed by a transaction
// that read sequence number lsn. It is the one encoding of a snapshot:
// Snapshot seals it, the replication plane ships it in chunks, and a
// follower's InstallSnapshot writes the received bytes as they are. It
// waits until lsn is inside the durable prefix (else a crash could leave
// the snapshot exposing a commit recovery drops), which also puts the
// frame that wrote lsn, and its epoch, in the log. A payload no reader
// would decode is refused.
func (l *Log) SnapshotContainer(shard int, lsn uint64, keys map[string][]byte) ([]byte, error) {
	if shard < 0 || shard >= len(l.snapLSN) {
		return nil, fmt.Errorf("wal: snapshot of shard %d of %d", shard, len(l.snapLSN))
	}
	if err := l.WaitStable([]ShardLSN{{Shard: shard, LSN: lsn}}); err != nil {
		return nil, err
	}
	epoch, known := l.EpochAt(shard, lsn)
	if !known {
		return nil, fmt.Errorf("wal: snapshot of shard %d at lsn %d, whose epoch the log does not know", shard, lsn)
	}
	return encodeSnapshot(shard, lsn, epoch, keys)
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

// publishSnapshot writes a snapshot container under its final name
// with the one durable writer and returns that path. A failure, the
// directory sync's included, leaves the snapshot unsealed.
func (l *Log) publishSnapshot(container []byte, shard int, lsn uint64, nKeys int) (string, error) {
	name := snapshotName(shard, lsn)
	if err := writeDurable(l.fs, l.dir, name, container); err != nil {
		return "", err
	}
	l.stats.Snapshots.Add(1)
	l.stats.SnapshotKeys.Store(uint64(nKeys))
	return filepath.Join(l.dir, name), nil
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

// Snapshot seals a snapshot of shard at lsn (see SnapshotContainer for
// keys and the wait). On seal the log rotates to a fresh segment and
// deletes, oldest first, every leading segment whose every (shard, lsn)
// is at or below that shard's sealed snapshot — plus the shard's stale
// snapshots. A snapshot that cannot be built or written, its
// directory sync included, seals nothing and deletes nothing.
func (l *Log) Snapshot(shard int, lsn uint64, keys map[string][]byte) error {
	l.mu.Lock()
	already := shard >= 0 && shard < len(l.snapLSN) && lsn <= l.snapLSN[shard]
	l.mu.Unlock()
	if already {
		return nil // an equal-or-newer snapshot is already sealed
	}
	container, err := l.SnapshotContainer(shard, lsn, keys)
	if err != nil {
		return err
	}
	final, err := l.publishSnapshot(container, shard, lsn, len(keys))
	if err != nil {
		return l.snapshotError(err)
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
