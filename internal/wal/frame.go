// Package wal is the durability plane for the sharded KV store: one
// physical commit log of checksummed frames shared by every shard,
// periodic full-shard snapshots, and a recovery path that rebuilds
// committed state from the latest valid snapshots plus the log's valid
// prefix.
//
// One frame records the resolved effects of one committed transaction
// (absolute values, post-CAS resolution) together with the per-shard
// commit sequence numbers (LSNs) the transaction was assigned inside the
// transaction itself. That shard-LSN vector is the frame's identity and
// its commit-order proof: the log admits a frame only when every entry
// is its shard's next LSN, so each frame is written exactly once, file
// order respects every shard's commit order, a torn frame can only be
// the tail, and the disk order is itself a valid replication order.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Frame container layout, preceding the payload:
//
//	offset 0: uint32 LE  payload length
//	offset 4: uint32 LE  CRC32-C of the payload
//	offset 8: payload (frameVersion, epoch, shard-LSN vector, ops)
const frameHeaderSize = 8

// frameVersion is the payload format version byte. Version 2 added the
// epoch; a version-1 payload decodes as ErrCorrupt (no dual-format
// reader, DESIGN §12.1).
const frameVersion = 2

// maxFramePayload bounds a single frame (and snapshot record) so a
// corrupt length prefix cannot drive recovery into a giant allocation.
const maxFramePayload = 1 << 26 // 64 MiB

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Decode failure classes. Recovery treats both as "the valid prefix
// ends here" and Open cuts the log there; a live reader distinguishes
// them: a torn frame at the tail is the expected residue of a write in
// progress (or of a crash mid-write) and is retried, a corrupt frame
// (bad checksum, malformed payload) is permanent.
var (
	// ErrTorn reports a frame whose bytes end before the declared
	// length: the tail of a log cut off mid-write.
	ErrTorn = errors.New("wal: torn frame")
	// ErrCorrupt reports a frame whose bytes are complete but wrong:
	// checksum mismatch, unknown version, or a malformed payload.
	ErrCorrupt = errors.New("wal: corrupt frame")
)

// Op is one resolved key effect inside a frame. Values are absolute
// (the state after the transaction), never deltas, so replay is
// idempotent and a dropped earlier frame cannot corrupt a later one.
type Op struct {
	Shard int  // shard the key lives in (recovery needs no hash)
	Del   bool // true: delete Key; false: set Key = Val
	Key   string
	Val   []byte
}

// ShardLSN is one entry of a frame's identity vector: the commit
// sequence number the transaction holds in one shard.
type ShardLSN struct {
	Shard int
	LSN   uint64
}

// Frame is the durable record of one committed transaction.
type Frame struct {
	// Epoch is the replication epoch of the primary that committed the
	// transaction (0 on a store without replication). Two logs that hold
	// a frame with the same epoch at the same (shard, LSN) hold the same
	// history up to it, which is how a primary tells a follower's
	// diverged tail from a lagging one (DESIGN §13.3).
	Epoch uint64
	// Shards is the identity vector: every shard the transaction wrote,
	// with the LSN it was assigned there, sorted by shard.
	Shards []ShardLSN
	// Ops are the resolved write effects, each tagged with its shard.
	Ops []Op
}

// appendFrame appends the encoded container (header + payload) to dst.
func appendFrame(dst []byte, f *Frame) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	dst = append(dst, frameVersion)
	dst = binary.AppendUvarint(dst, f.Epoch)
	dst = binary.AppendUvarint(dst, uint64(len(f.Shards)))
	for _, sl := range f.Shards {
		dst = binary.AppendUvarint(dst, uint64(sl.Shard))
		dst = binary.AppendUvarint(dst, sl.LSN)
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.Ops)))
	for i := range f.Ops {
		op := &f.Ops[i]
		kind := byte(0)
		if op.Del {
			kind = 1
		}
		dst = append(dst, kind)
		dst = binary.AppendUvarint(dst, uint64(op.Shard))
		dst = binary.AppendUvarint(dst, uint64(len(op.Key)))
		dst = append(dst, op.Key...)
		if !op.Del {
			dst = binary.AppendUvarint(dst, uint64(len(op.Val)))
			dst = append(dst, op.Val...)
		}
	}
	payload := dst[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// decodeFrame decodes one frame from the head of b, returning the frame
// and the total container size consumed. A b that ends inside the frame
// returns ErrTorn itself, unwrapped: a reader polling the live end of
// the log meets that once per write and must not build an error for it.
// Every other error wraps ErrCorrupt.
func decodeFrame(b []byte) (*Frame, int, error) {
	if len(b) < frameHeaderSize {
		return nil, 0, ErrTorn
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 || n > maxFramePayload {
		return nil, 0, fmt.Errorf("%w: payload length %d", ErrCorrupt, n)
	}
	if uint32(len(b)-frameHeaderSize) < n {
		return nil, 0, ErrTorn
	}
	payload := b[frameHeaderSize : frameHeaderSize+int(n)]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(b[4:]); got != want {
		return nil, 0, fmt.Errorf("%w: checksum %08x != %08x", ErrCorrupt, got, want)
	}
	f, err := decodePayload(payload)
	if err != nil {
		return nil, 0, err
	}
	return f, frameHeaderSize + int(n), nil
}

// decodePayload decodes a checksummed-OK payload. Any structural
// problem is ErrCorrupt: the checksum matched, so the writer was buggy
// or the version is from the future.
func decodePayload(p []byte) (*Frame, error) {
	if len(p) < 1 || p[0] != frameVersion {
		return nil, fmt.Errorf("%w: payload version", ErrCorrupt)
	}
	epoch, p, err := uvarint(p[1:])
	if err != nil {
		return nil, err
	}
	nShards, p, err := uvarint(p)
	if err != nil {
		return nil, err
	}
	if nShards > uint64(len(p)) { // each entry needs ≥ 2 bytes
		return nil, fmt.Errorf("%w: %d vector entries", ErrCorrupt, nShards)
	}
	f := &Frame{Epoch: epoch, Shards: make([]ShardLSN, 0, nShards)}
	for i := uint64(0); i < nShards; i++ {
		var shard, lsn uint64
		if shard, p, err = uvarint(p); err != nil {
			return nil, err
		}
		if lsn, p, err = uvarint(p); err != nil {
			return nil, err
		}
		f.Shards = append(f.Shards, ShardLSN{Shard: int(shard), LSN: lsn})
	}
	nOps, p, err := uvarint(p)
	if err != nil {
		return nil, err
	}
	if nOps > uint64(len(p)) {
		return nil, fmt.Errorf("%w: %d ops", ErrCorrupt, nOps)
	}
	f.Ops = make([]Op, 0, nOps)
	for i := uint64(0); i < nOps; i++ {
		if len(p) < 1 {
			return nil, fmt.Errorf("%w: op kind", ErrCorrupt)
		}
		kind := p[0]
		if kind > 1 {
			return nil, fmt.Errorf("%w: op kind %d", ErrCorrupt, kind)
		}
		p = p[1:]
		var shard uint64
		if shard, p, err = uvarint(p); err != nil {
			return nil, err
		}
		var key []byte
		if key, p, err = lenBytes(p); err != nil {
			return nil, err
		}
		op := Op{Shard: int(shard), Del: kind == 1, Key: string(key)}
		if kind == 0 {
			var val []byte
			if val, p, err = lenBytes(p); err != nil {
				return nil, err
			}
			// The one copy on the way in from a log or stream: the frame
			// buffer is reused, and the store keeps this slice as the
			// value. Never nil — an empty value is not an absent one.
			op.Val = append([]byte{}, val...)
		}
		f.Ops = append(f.Ops, op)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(p))
	}
	return f, nil
}

func uvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
	}
	return v, p[n:], nil
}

func lenBytes(p []byte) ([]byte, []byte, error) {
	n, p, err := uvarint(p)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(p)) {
		return nil, nil, fmt.Errorf("%w: %d-byte field exceeds payload", ErrCorrupt, n)
	}
	return p[:n], p[n:], nil
}
