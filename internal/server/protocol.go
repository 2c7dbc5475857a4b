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
	StatusReadOnly   = 9 // store's log stopped after a storage error; write had no effect
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

// blob decodes a nil-aware byte slice. It never copies: the result aliases
// the payload (an empty blob is an empty, non-nil slice of it), so a caller
// must own the payload's buffer for as long as it uses what it decoded. The
// server's request record and the client's one buffer per response do.
func (c *cursor) blob() ([]byte, error) {
	n, err := c.u32()
	if err != nil {
		return nil, err
	}
	if n == nilBlob {
		return nil, nil
	}
	if n > MaxFrame {
		return nil, errFrame
	}
	return c.bytes(int(n))
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

// parseRequest decodes a request frame payload into r.id, r.ops and r.st
// (non-nil exactly when the op count carried vecFlag), in place: each
// Op.Value and Op.Expect aliases payload, which the caller must not reuse
// while it uses r.ops. An Op.Key is a real Go string — a substring of one
// string made per request — so a key that outlives the request is safe to
// hold, and pins no more than the request's keys.
func parseRequest(payload []byte, r *request) error {
	c := &cursor{b: payload}
	r.ops, r.keys, r.st = r.ops[:0], r.keys[:0], nil
	var err error
	if r.id, err = c.u64(); err != nil {
		return err
	}
	n, err := c.u16()
	if err != nil {
		return err
	}
	vecAware := n&vecFlag != 0
	n &^= vecFlag
	if n == 0 || int(n) > MaxOps {
		return errFrame
	}
	if cap(r.ops) < int(n) {
		r.ops = make([]kv.Op, 0, n)
	}
	for i := 0; i < int(n); i++ {
		kind, err := c.u8()
		if err != nil {
			return err
		}
		klen, err := c.u16()
		if err != nil {
			return err
		}
		if int(klen) > MaxKey {
			return errFrame
		}
		if _, err := c.bytes(int(klen)); err != nil {
			return err
		}
		// The key with the length before it, exactly as it arrived.
		r.keys = append(r.keys, c.b[c.off-int(klen)-2:c.off]...)
		op := kv.Op{Kind: kv.OpKind(kind)}
		switch op.Kind {
		case kv.OpGet, kv.OpDelete:
		case kv.OpPut:
			if op.Value, err = c.blob(); err != nil {
				return err
			}
		case kv.OpCAS:
			if op.Expect, err = c.blob(); err != nil {
				return err
			}
			if op.Value, err = c.blob(); err != nil {
				return err
			}
		default:
			return errFrame
		}
		r.ops = append(r.ops, op)
	}
	if vecAware {
		r.st = &Staleness{}
		if r.st.MaxLagMs, err = c.u32(); err != nil {
			return err
		}
		if r.st.Vector, err = c.vector(); err != nil {
			return err
		}
	}
	if c.off != len(payload) {
		return errFrame
	}
	// One immutable string holds every key; each op takes its substring.
	keys := string(r.keys)
	for i, off := 0, 0; i < len(r.ops); i++ {
		end := off + 2 + int(binary.BigEndian.Uint16(r.keys[off:]))
		r.ops[i].Key = keys[off+2 : end]
		off = end
	}
	return nil
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
// for StatusOKVec responses carrying a non-empty commit vector. Every
// result value aliases payload: the caller hands over a buffer nothing
// will write again.
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

// readFrame reads one length-prefixed frame into buf, or into a new buffer
// when buf is too small. It returns the payload, which is a prefix of the
// returned buffer: whoever owns that buffer owns the payload and everything
// decoded in place over it, until they read into the buffer again.
func readFrame(r *bufio.Reader, buf []byte) (payload, newBuf []byte, err error) {
	// Peek, not ReadFull into a local array: that would go through an
	// io.Reader and cost a heap allocation per frame.
	hdr, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, buf, err
	}
	n := binary.BigEndian.Uint32(hdr)
	r.Discard(4)
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

// frameBuffered reports whether reading r's next frame cannot block.
func frameBuffered(r *bufio.Reader) bool {
	hdr, _ := r.Peek(min(4, r.Buffered()))
	return len(hdr) == 4 && r.Buffered()-4 >= int(binary.BigEndian.Uint32(hdr))
}

// writeFrame writes one length-prefixed frame.
func writeFrame(w *bufio.Writer, payload []byte) error {
	// The length is encoded in w's own spare room: a local array would be
	// moved to the heap, since Write may pass it on to an io.Writer.
	hdr := binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}
