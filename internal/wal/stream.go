package wal

import (
	"errors"
	"fmt"
	"io"
)

// SegmentRef names one file of the log's segment chain: its dense
// sequence number plus its path. Refs are how the frame-iteration
// machinery (recovery, replication shipping) addresses the log without
// holding its lock.
type SegmentRef struct {
	Seq  uint64
	Path string
}

// ErrGap reports history missing from the log: a segment absent from
// the middle of the chain, or (from recovery) a frame more than one LSN
// past everything that connects it to the shard's snapshot.
var ErrGap = errors.New("wal: segment gap")

// StreamEntry is one frame yielded by a StreamReader, with its physical
// position so recovery can turn a defect into a byte offset and the
// replication sender can ship the bytes as they sit on disk.
type StreamEntry struct {
	Frame *Frame
	Raw   []byte // the encoded container; valid until the next call to Next
	Seg   int    // index into the reader's segment list
	Off   int64  // byte offset of the frame within that segment
	End   int64  // byte offset just past the frame
}

// streamReadChunk bounds one incremental read from a live segment.
const streamReadChunk = 256 << 10

// StreamReader iterates the log's frames in file order across segment
// rotations. It is the single frame-iteration code path shared by
// recovery and replication: recovery walks a quiesced directory to its
// first defect, the replication sender tails a live log.
//
// Errors are sticky except at the tail: io.EOF (clean end of the last
// segment) and ErrTorn (a partial frame at the tail) leave the reader
// positioned so a later Next can pick up bytes appended since — the
// live-tailing case. ErrCorrupt and ErrGap are permanent: the log is
// defective past Pos and re-reading cannot fix it.
//
// A StreamReader is not safe for concurrent use.
type StreamReader struct {
	fs   FS
	segs []SegmentRef
	// more, on a live log, lists the segments rotated in after the given
	// sequence number; nil for a static chain.
	more func(after uint64) []SegmentRef

	idx      int    // current segment index
	f        File   // open handle on segs[idx]
	buf      []byte // unconsumed bytes read from segs[idx]
	chunk    []byte // fill's read buffer, reused across polls of a live tail
	bufStart int64  // file offset of buf[0]
	sticky   error
}

// NewStreamReader builds a reader over a static chain (ascending
// sequence order, as recovery indexes it). A nil or empty segs yields
// io.EOF immediately.
func NewStreamReader(segs []SegmentRef) *StreamReader {
	return &StreamReader{fs: OSFS(), segs: segs}
}

// Pos returns where valid data ends so far: the current segment index
// and the byte offset of the first unconsumed (or defective) byte. For
// a reader that returned an error, this is the truncation point.
func (r *StreamReader) Pos() (seg int, off int64) {
	return r.idx, r.bufStart
}

// Close releases the open segment handle. The reader stays usable for
// Pos but not Next.
func (r *StreamReader) Close() error {
	r.sticky = errClosed
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// Next yields the next frame. io.EOF means the last segment ended
// cleanly; ErrTorn, unwrapped, means a partial frame sits at the current
// position.
// Both are retriable on a live log (the reader re-reads appended bytes
// on the next call); all other errors are sticky.
func (r *StreamReader) Next() (StreamEntry, error) {
	if r.sticky != nil {
		return StreamEntry{}, r.sticky
	}
	for {
		if r.idx >= len(r.segs) {
			return StreamEntry{}, io.EOF
		}
		if r.f == nil {
			seg := r.segs[r.idx]
			if r.idx > 0 && seg.Seq != r.segs[r.idx-1].Seq+1 {
				// A segment is missing from the middle of the chain:
				// permanent defect at this segment's head.
				r.sticky = fmt.Errorf("%w: segment %s follows sequence %d",
					ErrGap, seg.Path, r.segs[r.idx-1].Seq)
				return StreamEntry{}, r.sticky
			}
			f, err := r.fs.Open(seg.Path)
			if err != nil {
				r.sticky = err
				return StreamEntry{}, err
			}
			r.f = f
		}
		f, n, derr := decodeFrame(r.buf)
		if derr == nil {
			e := StreamEntry{
				Frame: f,
				Raw:   r.buf[:n],
				Seg:   r.idx,
				Off:   r.bufStart,
				End:   r.bufStart + int64(n),
			}
			r.buf = r.buf[n:]
			r.bufStart += int64(n)
			return e, nil
		}
		if errors.Is(derr, ErrCorrupt) {
			r.sticky = derr
			return StreamEntry{}, derr
		}
		// Torn: the buffer holds less than one frame. Try to read more. A
		// successor listed before this read means the segment was already
		// closed, so a read that returns nothing has seen all of it.
		closed := r.idx+1 < len(r.segs)
		read, rerr := r.fill()
		if read > 0 {
			continue
		}
		if rerr != nil && rerr != io.EOF {
			r.sticky = rerr
			return StreamEntry{}, rerr
		}
		if !closed && r.more != nil {
			if more := r.more(r.segs[r.idx].Seq); len(more) > 0 {
				// The log rotated since the chain was listed; bytes may have
				// landed here after the empty read, so read once more before
				// moving on.
				r.segs = append(r.segs, more...)
				continue
			}
		}
		switch {
		case closed && len(r.buf) == 0:
			r.f.Close()
			r.f = nil
			r.idx++
			r.bufStart = 0
		case closed:
			// Partial frame mid-chain: permanent — the writer never
			// resumes a closed segment.
			r.sticky = fmt.Errorf("%w: %d trailing bytes before next segment", ErrTorn, len(r.buf))
			return StreamEntry{}, r.sticky
		case len(r.buf) == 0:
			return StreamEntry{}, io.EOF // clean end; retriable on a live log
		default:
			return StreamEntry{}, ErrTorn // a write in progress; retriable, so built once
		}
	}
}

// fill reads more bytes of the current segment after the buffered ones.
func (r *StreamReader) fill() (int, error) {
	if r.chunk == nil {
		r.chunk = make([]byte, streamReadChunk)
	}
	n, err := r.f.ReadAt(r.chunk, r.bufStart+int64(len(r.buf)))
	if n > 0 {
		r.buf = append(r.buf, r.chunk[:n]...)
	}
	return n, err
}
