// Package server exposes a kv.Store over TCP: a length-prefixed binary
// protocol, a concurrent server with a thread-checkout pool and graceful
// shutdown, and a pipelining Client. It is the repository's serving path —
// the workload that exercises NZSTM as an ordinary concurrent Go library
// under real socket traffic.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"nztm/internal/kv"
	"nztm/internal/wal"
)

// Wire format. Every message, in both directions, is one frame:
//
//	uint32  payload length (big endian)
//	bytes   payload
//
// Request payload:
//
//	uint64  request id (echoed in the response; responses may arrive out
//	        of order, so ids are how a pipelining client matches them up)
//	uint16  op count — a request with n > 1 ops is an atomic batch: the
//	        server runs all n ops as ONE transaction
//	n ×     uint8 kind; uint16 key length; key bytes;
//	        PUT: value blob. CAS: expect blob, then value blob.
//
// A blob is uint32 length + bytes; length 0xFFFFFFFF encodes nil (absent),
// which is distinct from an empty value.
//
// Response payload:
//
//	uint64  request id
//	uint8   status
//	OK:     uint16 result count; each result: uint8 found; value blob
//	else:   error-message blob
const (
	// MaxFrame is the largest accepted frame payload.
	MaxFrame = 1 << 24
	// MaxOps is the largest accepted batch.
	MaxOps = 4096
	// MaxKey is the longest accepted key.
	MaxKey = 1 << 12

	nilBlob = 0xFFFFFFFF
)

// Response statuses (5–7 are the replication extension; see vec.go).
const (
	StatusOK         = 0 // results follow
	StatusBudget     = 1 // retry budget exhausted; request had no effect
	StatusBad        = 2 // malformed or over-limit request
	StatusShutdown   = 3 // server is shutting down; request not executed
	StatusError      = 4 // internal execution error
	StatusOverloaded = 8 // admission queue full; request had no effect
	StatusReadOnly   = 9 // store degraded read-only (disk full); write had no effect
)

// Protocol-level errors.
var (
	// ErrClosed is returned by Client calls after the connection died.
	ErrClosed = errors.New("server: connection closed")
	// ErrOverloaded is returned by Client calls answered with
	// StatusOverloaded: the scheduler's admission queue was full and the
	// request had no effect, so retrying (with backoff) is always safe.
	ErrOverloaded = errors.New("server: overloaded (admission queue full)")
	// errFrame aborts a connection whose byte stream desynchronised.
	errFrame = errors.New("server: malformed frame")
)

func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// appendBlob encodes a nil-aware byte slice.
func appendBlob(b, v []byte) []byte {
	if v == nil {
		return appendU32(b, nilBlob)
	}
	b = appendU32(b, uint32(len(v)))
	return append(b, v...)
}

// cursor walks a payload during decoding.
type cursor struct {
	b   []byte
	off int
}

func (c *cursor) u8() (uint8, error) {
	if c.off+1 > len(c.b) {
		return 0, errFrame
	}
	v := c.b[c.off]
	c.off++
	return v, nil
}

func (c *cursor) u16() (uint16, error) {
	if c.off+2 > len(c.b) {
		return 0, errFrame
	}
	v := binary.BigEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v, nil
}

func (c *cursor) u32() (uint32, error) {
	if c.off+4 > len(c.b) {
		return 0, errFrame
	}
	v := binary.BigEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v, nil
}

func (c *cursor) u64() (uint64, error) {
	if c.off+8 > len(c.b) {
		return 0, errFrame
	}
	v := binary.BigEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v, nil
}

func (c *cursor) bytes(n int) ([]byte, error) {
	if n < 0 || c.off+n > len(c.b) {
		return nil, errFrame
	}
	v := c.b[c.off : c.off+n : c.off+n]
	c.off += n
	return v, nil
}

// blob decodes a nil-aware byte slice. The result is copied so it does not
// alias the (reused) frame buffer. A request's PUT value is copied again by
// kv.Store.Do, which cannot know this slice is already private.
func (c *cursor) blob() ([]byte, error) {
	n, err := c.u32()
	if err != nil {
		return nil, err
	}
	if n == nilBlob {
		return nil, nil
	}
	if n == 0 {
		return []byte{}, nil // empty is distinct from nil
	}
	if n > MaxFrame {
		return nil, errFrame
	}
	raw, err := c.bytes(int(n))
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), raw...), nil
}

// appendRequest encodes a request frame payload onto b.
func appendRequest(b []byte, id uint64, ops []kv.Op) ([]byte, error) {
	if len(ops) == 0 || len(ops) > MaxOps {
		return nil, fmt.Errorf("server: request must carry 1..%d ops, have %d", MaxOps, len(ops))
	}
	b = appendU64(b, id)
	b = appendU16(b, uint16(len(ops)))
	for i := range ops {
		op := &ops[i]
		if len(op.Key) > MaxKey {
			return nil, fmt.Errorf("server: key longer than %d bytes", MaxKey)
		}
		b = append(b, byte(op.Kind))
		b = appendU16(b, uint16(len(op.Key)))
		b = append(b, op.Key...)
		switch op.Kind {
		case kv.OpGet, kv.OpDelete:
		case kv.OpPut:
			b = appendBlob(b, op.Value)
		case kv.OpCAS:
			b = appendBlob(b, op.Expect)
			b = appendBlob(b, op.Value)
		default:
			return nil, fmt.Errorf("server: unknown op kind %d", op.Kind)
		}
	}
	return b, nil
}

// parseRequest decodes a request frame payload. st is non-nil exactly
// when the request was vector-aware (its op count carried vecFlag).
func parseRequest(payload []byte) (id uint64, ops []kv.Op, st *Staleness, err error) {
	c := &cursor{b: payload}
	if id, err = c.u64(); err != nil {
		return 0, nil, nil, err
	}
	n, err := c.u16()
	if err != nil {
		return id, nil, nil, err
	}
	vecAware := n&vecFlag != 0
	n &^= vecFlag
	if n == 0 || int(n) > MaxOps {
		return id, nil, nil, errFrame
	}
	ops = make([]kv.Op, n)
	for i := range ops {
		kind, err := c.u8()
		if err != nil {
			return id, nil, nil, err
		}
		klen, err := c.u16()
		if err != nil {
			return id, nil, nil, err
		}
		if int(klen) > MaxKey {
			return id, nil, nil, errFrame
		}
		key, err := c.bytes(int(klen))
		if err != nil {
			return id, nil, nil, err
		}
		op := kv.Op{Kind: kv.OpKind(kind), Key: string(key)}
		switch op.Kind {
		case kv.OpGet, kv.OpDelete:
		case kv.OpPut:
			if op.Value, err = c.blob(); err != nil {
				return id, nil, nil, err
			}
		case kv.OpCAS:
			if op.Expect, err = c.blob(); err != nil {
				return id, nil, nil, err
			}
			if op.Value, err = c.blob(); err != nil {
				return id, nil, nil, err
			}
		default:
			return id, nil, nil, errFrame
		}
		ops[i] = op
	}
	if vecAware {
		st = &Staleness{}
		if st.MaxLagMs, err = c.u32(); err != nil {
			return id, nil, nil, err
		}
		if st.Vector, err = c.vector(); err != nil {
			return id, nil, nil, err
		}
	}
	if c.off != len(payload) {
		return id, nil, nil, errFrame
	}
	return id, ops, st, nil
}

// appendResponse encodes a response frame payload onto b. For StatusOK,
// results are encoded; otherwise errmsg is.
func appendResponse(b []byte, id uint64, status uint8, results []kv.Result, errmsg string) []byte {
	b = appendU64(b, id)
	b = append(b, status)
	if status != StatusOK {
		return appendBlob(b, []byte(errmsg))
	}
	b = appendU16(b, uint16(len(results)))
	for i := range results {
		if results[i].Found {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendBlob(b, results[i].Value)
	}
	return b
}

// parseResponse decodes a response frame payload. vec is non-nil only
// for StatusOKVec responses carrying a non-empty commit vector.
func parseResponse(payload []byte) (id uint64, status uint8, results []kv.Result, vec []wal.ShardLSN, errmsg string, err error) {
	c := &cursor{b: payload}
	if id, err = c.u64(); err != nil {
		return
	}
	if status, err = c.u8(); err != nil {
		return
	}
	if status != StatusOK && status != StatusOKVec {
		var msg []byte
		if msg, err = c.blob(); err != nil {
			return
		}
		errmsg = string(msg)
		return
	}
	var n uint16
	if n, err = c.u16(); err != nil {
		return
	}
	if int(n) > MaxOps {
		err = errFrame
		return
	}
	results = make([]kv.Result, n)
	for i := range results {
		var found uint8
		if found, err = c.u8(); err != nil {
			return
		}
		results[i].Found = found != 0
		if results[i].Value, err = c.blob(); err != nil {
			return
		}
	}
	if status == StatusOKVec {
		if vec, err = c.vector(); err != nil {
			return
		}
	}
	if c.off != len(payload) {
		err = errFrame
	}
	return
}

// newBufReader and newBufWriter size connection buffers for pipelined
// small frames.
func newBufReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, 64<<10) }
func newBufWriter(w io.Writer) *bufio.Writer { return bufio.NewWriterSize(w, 64<<10) }

// NewBufReader, NewBufWriter, ReadFrame and WriteFrame expose the
// framing layer to the replication plane, which speaks its own message
// vocabulary over the same length-prefixed transport.
func NewBufReader(r io.Reader) *bufio.Reader { return newBufReader(r) }

// NewBufWriter sizes a write buffer for pipelined small frames.
func NewBufWriter(w io.Writer) *bufio.Writer { return newBufWriter(w) }

// ReadFrame reads one length-prefixed frame; see readFrame.
func ReadFrame(r *bufio.Reader, buf []byte) (payload, newBuf []byte, err error) {
	return readFrame(r, buf)
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w *bufio.Writer, payload []byte) error { return writeFrame(w, payload) }

// readFrame reads one length-prefixed frame, reusing buf when it is big
// enough. It returns the payload (valid until the next call with the same
// buf) and the possibly-grown buffer.
func readFrame(r *bufio.Reader, buf []byte) (payload, newBuf []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, buf, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, buf, errFrame
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, buf, err
	}
	return payload, buf, nil
}

// writeFrame writes one length-prefixed frame.
func writeFrame(w *bufio.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}
