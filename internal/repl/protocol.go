// Package repl is the replication plane: a primary streams its
// write-ahead log to follower processes over TCP, followers apply the
// frames through the same transactional path recovery uses and serve
// bounded-staleness reads, and when the primary's lease lapses a vote
// elects a follower whose log is at least as new as a majority's — with
// epoch fencing so a deposed primary can never acknowledge another
// write.
//
// The log IS the replication stream: the primary re-reads durable frames
// off disk with wal.StreamReader and ships them in file order (the log
// admits a frame only once every shard named in its identity vector is
// exactly up to date, so file order is already a valid apply order).
// Every frame carries the epoch of the primary that wrote it, and each
// voter grants one vote per epoch, so at most one primary writes at an
// epoch and two logs that hold the same (shard, LSN) at the same epoch
// agree up to it (Raft's log matching, Ongaro and Ousterhout, USENIX ATC
// 2014, §5.3). A subscriber therefore proves its state a prefix of the
// primary's history with one (LSN, epoch) pair per shard, and one that
// cannot is re-seeded from snapshots. Snapshots travel the way frames
// do: as the checksummed container the primary's WAL encodes, which the
// follower's WAL writes as received. A primary acknowledges a write
// only after a majority applied it and a candidate needs a majority's
// votes, each granted only to a log at least as new as the voter's
// (§5.4.1), so the winner holds every acknowledged write.
package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"

	"nztm/internal/server"
)

// Replication messages ride the same length-prefixed framing as the KV
// protocol (server.ReadFrame / server.WriteFrame) but speak their own
// payload vocabulary. Every message carries the sender's epoch — the
// fencing token — immediately after the type byte.
//
//	uint8   message type
//	uint64  epoch
//	...     type-specific fields (big endian; strings are uint16
//	        length + bytes, dense vectors are uint16 shard count +
//	        one uint64 LSN per shard)
type MsgType uint8

// Message types.
const (
	// MsgSubscribe opens a follower's stream: node id, advertised KV
	// address, and per shard the follower's applied LSN (where to resume)
	// with the epoch that wrote it (whether it can resume there at all).
	MsgSubscribe MsgType = 1
	// MsgFrames ships a batch of encoded WAL frame containers, in merged
	// stream order.
	MsgFrames MsgType = 2
	// MsgHeartbeat renews the primary's lease and carries its stable
	// vector for staleness accounting, its monotonic send stamp for the
	// followers' acks to echo, and its client address (so followers can
	// redirect writes).
	MsgHeartbeat MsgType = 3
	// MsgSnapshot ships one chunk of a shard's snapshot container, the
	// bytes the primary's WAL encodes (shard, LSN, the epoch that wrote
	// it, keys, checksum): the primary truncated past the follower's
	// position, or it re-seeds every shard of a follower whose log is off
	// its own (the re-seed flag). The last chunk is flagged; the follower
	// installs the container its chunks make up.
	MsgSnapshot MsgType = 4
	// MsgAck reports a follower's applied vector back to the primary —
	// the semi-synchronous acknowledgement signal — and echoes the send
	// stamp of the newest heartbeat the follower has received.
	MsgAck MsgType = 5
	// MsgReject refuses a message or a subscription: fencing (stale
	// epoch) or redirection (not primary, with the primary's addresses).
	MsgReject MsgType = 6
	// MsgPoll is an election pre-vote: epoch, node id, and the
	// candidate's history — the epoch of its newest frame and its applied
	// total.
	MsgPoll MsgType = 7
	// MsgPollResp answers a poll or a vote request with the peer's epoch,
	// whether it grants (would grant, for a poll) the vote, and whether it
	// sees a live primary (with its addresses).
	MsgPollResp MsgType = 8
	// MsgVote asks for a peer's one vote at the message's epoch; its body
	// is a poll's.
	MsgVote MsgType = 9
)

// Reject codes.
const (
	// RejectNotPrimary redirects: this node cannot serve the stream; the
	// message's KVAddr/ReplAddr name the primary when known.
	RejectNotPrimary = 1
	// RejectStaleEpoch fences: the sender's epoch is behind the
	// receiver's, so the sender is a deposed primary (or hopelessly
	// stale) and none of its frames were — or ever will be — applied.
	RejectStaleEpoch = 2
)

// Protocol limits.
const (
	// maxShards bounds a dense vector.
	maxShards = 1 << 10
	// maxBatch bounds the frames in one MsgFrames.
	maxBatch = 1 << 12
	// snapshotChunkBytes bounds one MsgSnapshot chunk, well under the
	// transport's server.MaxFrame.
	snapshotChunkBytes = 4 << 20
	// maxStr bounds an encoded string (addresses, reject messages).
	maxStr = 1 << 12
)

var errMsg = errors.New("repl: malformed message")

// Message is the decoded form of every replication message; which
// fields are meaningful depends on Type (see the type constants).
type Message struct {
	Type  MsgType
	Epoch uint64

	NodeID uint16 // subscribe, poll, vote
	KVAddr string // subscribe + heartbeat (sender's), reject + pollresp (primary's)

	Total  uint64   // poll, vote: the candidate's applied total
	Stamp  uint64   // heartbeat: primary's send stamp (trace.Now()); ack: the newest one received
	Vector []uint64 // subscribe, heartbeat, ack: dense per-shard LSNs
	Epochs []uint64 // subscribe: per shard, the epoch that wrote Vector's LSN

	LastEpoch uint64 // poll, vote: the epoch of the candidate's newest frame
	Granted   bool   // pollresp: the vote is (or, for a poll, would be) granted

	Frames [][]byte // frames: encoded wal frame containers

	Reseed bool   // snapshot: part of a re-seed of every shard
	Last   bool   // snapshot: final chunk, install now
	Data   []byte // snapshot: one chunk of a wal snapshot container

	Code     uint8  // reject
	Text     string // reject: human-readable detail
	ReplAddr string // reject + pollresp: primary's replication address

	PrimaryLive bool // pollresp
}

func appendStr(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func appendDense(b []byte, v []uint64) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(v)))
	for _, x := range v {
		b = binary.BigEndian.AppendUint64(b, x)
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// EncodeMessage appends m's wire form onto b.
func EncodeMessage(b []byte, m *Message) ([]byte, error) {
	if len(m.Vector) > maxShards || len(m.Epochs) > maxShards {
		return nil, fmt.Errorf("repl: vector with over %d shards", maxShards)
	}
	if len(m.KVAddr) > maxStr || len(m.ReplAddr) > maxStr || len(m.Text) > maxStr {
		return nil, fmt.Errorf("repl: string field over %d bytes", maxStr)
	}
	b = append(b, byte(m.Type))
	b = binary.BigEndian.AppendUint64(b, m.Epoch)
	switch m.Type {
	case MsgSubscribe:
		b = binary.BigEndian.AppendUint16(b, m.NodeID)
		b = appendStr(b, m.KVAddr)
		b = appendDense(b, m.Vector)
		b = appendDense(b, m.Epochs)
	case MsgFrames:
		if len(m.Frames) > maxBatch {
			return nil, fmt.Errorf("repl: %d frames in one batch (max %d)", len(m.Frames), maxBatch)
		}
		b = binary.BigEndian.AppendUint16(b, uint16(len(m.Frames)))
		for _, f := range m.Frames {
			b = binary.BigEndian.AppendUint32(b, uint32(len(f)))
			b = append(b, f...)
		}
	case MsgHeartbeat:
		b = binary.BigEndian.AppendUint64(b, m.Stamp)
		b = appendStr(b, m.KVAddr)
		b = appendDense(b, m.Vector)
	case MsgSnapshot:
		if len(m.Data) > snapshotChunkBytes {
			return nil, fmt.Errorf("repl: %d-byte snapshot chunk (max %d)", len(m.Data), snapshotChunkBytes)
		}
		b = appendBool(b, m.Reseed)
		b = appendBool(b, m.Last)
		b = binary.BigEndian.AppendUint32(b, uint32(len(m.Data)))
		b = append(b, m.Data...)
	case MsgAck:
		b = binary.BigEndian.AppendUint64(b, m.Stamp)
		b = appendDense(b, m.Vector)
	case MsgReject:
		b = append(b, m.Code)
		b = appendStr(b, m.Text)
		b = appendStr(b, m.KVAddr)
		b = appendStr(b, m.ReplAddr)
	case MsgPoll, MsgVote:
		b = binary.BigEndian.AppendUint16(b, m.NodeID)
		b = binary.BigEndian.AppendUint64(b, m.LastEpoch)
		b = binary.BigEndian.AppendUint64(b, m.Total)
	case MsgPollResp:
		b = appendBool(b, m.Granted)
		b = appendBool(b, m.PrimaryLive)
		b = appendStr(b, m.KVAddr)
		b = appendStr(b, m.ReplAddr)
	default:
		return nil, fmt.Errorf("repl: unknown message type %d", m.Type)
	}
	return b, nil
}

// decoder walks a payload.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) u8() (uint8, error) {
	if d.off+1 > len(d.b) {
		return 0, errMsg
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u16() (uint16, error) {
	if d.off+2 > len(d.b) {
		return 0, errMsg
	}
	v := binary.BigEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.off+4 > len(d.b) {
		return 0, errMsg
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if d.off+8 > len(d.b) {
		return 0, errMsg
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) boolean() (bool, error) {
	v, err := d.u8()
	if err != nil || v > 1 {
		return false, errMsg
	}
	return v == 1, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.b) {
		return nil, errMsg
	}
	v := d.b[d.off : d.off+n : d.off+n]
	d.off += n
	return v, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.u16()
	if err != nil {
		return "", err
	}
	if int(n) > maxStr {
		return "", errMsg
	}
	raw, err := d.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

func (d *decoder) dense() ([]uint64, error) {
	n, err := d.u16()
	if err != nil {
		return nil, err
	}
	if int(n) > maxShards {
		return nil, errMsg
	}
	if n == 0 {
		return nil, nil
	}
	v := make([]uint64, n)
	for i := range v {
		if v[i], err = d.u64(); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// ParseMessage decodes one message payload. Accepted payloads survive
// an EncodeMessage round trip semantically unchanged.
func ParseMessage(payload []byte) (*Message, error) {
	d := &decoder{b: payload}
	t, err := d.u8()
	if err != nil {
		return nil, err
	}
	m := &Message{Type: MsgType(t)}
	if m.Epoch, err = d.u64(); err != nil {
		return nil, err
	}
	switch m.Type {
	case MsgSubscribe:
		if m.NodeID, err = d.u16(); err != nil {
			return nil, err
		}
		if m.KVAddr, err = d.str(); err != nil {
			return nil, err
		}
		if m.Vector, err = d.dense(); err != nil {
			return nil, err
		}
		if m.Epochs, err = d.dense(); err != nil {
			return nil, err
		}
	case MsgFrames:
		n, err := d.u16()
		if err != nil {
			return nil, err
		}
		if int(n) > maxBatch {
			return nil, errMsg
		}
		m.Frames = make([][]byte, 0, n)
		for i := 0; i < int(n); i++ {
			fl, err := d.u32()
			if err != nil {
				return nil, err
			}
			raw, err := d.bytes(int(fl))
			if err != nil {
				return nil, err
			}
			m.Frames = append(m.Frames, append([]byte(nil), raw...))
		}
	case MsgHeartbeat:
		if m.Stamp, err = d.u64(); err != nil {
			return nil, err
		}
		if m.KVAddr, err = d.str(); err != nil {
			return nil, err
		}
		if m.Vector, err = d.dense(); err != nil {
			return nil, err
		}
	case MsgSnapshot:
		if m.Reseed, err = d.boolean(); err != nil {
			return nil, err
		}
		if m.Last, err = d.boolean(); err != nil {
			return nil, err
		}
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		if n > snapshotChunkBytes {
			return nil, errMsg
		}
		raw, err := d.bytes(int(n))
		if err != nil {
			return nil, err
		}
		m.Data = append([]byte(nil), raw...)
	case MsgAck:
		if m.Stamp, err = d.u64(); err != nil {
			return nil, err
		}
		if m.Vector, err = d.dense(); err != nil {
			return nil, err
		}
	case MsgReject:
		if m.Code, err = d.u8(); err != nil {
			return nil, err
		}
		if m.Text, err = d.str(); err != nil {
			return nil, err
		}
		if m.KVAddr, err = d.str(); err != nil {
			return nil, err
		}
		if m.ReplAddr, err = d.str(); err != nil {
			return nil, err
		}
	case MsgPoll, MsgVote:
		if m.NodeID, err = d.u16(); err != nil {
			return nil, err
		}
		if m.LastEpoch, err = d.u64(); err != nil {
			return nil, err
		}
		if m.Total, err = d.u64(); err != nil {
			return nil, err
		}
	case MsgPollResp:
		if m.Granted, err = d.boolean(); err != nil {
			return nil, err
		}
		if m.PrimaryLive, err = d.boolean(); err != nil {
			return nil, err
		}
		if m.KVAddr, err = d.str(); err != nil {
			return nil, err
		}
		if m.ReplAddr, err = d.str(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: type %d", errMsg, t)
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes", errMsg, len(payload)-d.off)
	}
	return m, nil
}

// writeMsg frames, writes, and flushes one message.
func writeMsg(bw *bufio.Writer, m *Message) error {
	payload, err := EncodeMessage(nil, m)
	if err != nil {
		return err
	}
	if err := server.WriteFrame(bw, payload); err != nil {
		return err
	}
	return bw.Flush()
}

// readMsg reads and decodes one framed message, reusing buf.
func readMsg(br *bufio.Reader, buf []byte) (*Message, []byte, error) {
	payload, buf, err := server.ReadFrame(br, buf)
	if err != nil {
		return nil, buf, err
	}
	m, err := ParseMessage(payload)
	return m, buf, err
}
