package server

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"nztm/internal/kv"
	"nztm/internal/wal"
)

// Client is a pipelining connection to a Server. It is safe for concurrent
// use: many goroutines may issue requests over one connection, and a
// background reader matches (possibly out-of-order) responses to callers by
// request id — so a single TCP connection carries many overlapping requests.
//
// Callers that overlap share their writes. Each appends its encoded frame
// to one buffer, and the first to find nobody writing takes the writer role
// (flush): it writes everything gathered, again and again until the buffer
// is empty, while the others only append and wait for their replies. A call
// with the connection to itself therefore costs one Write, as it always
// did; a burst of calls costs one Write between them.
type Client struct {
	conn net.Conn

	// The send side, under wmu. Callers append to wbuf; the flusher swaps
	// it for spare and writes it with wmu released, so the bytes on their
	// way out belong to the flusher alone until it hands them back as the
	// next spare.
	wmu      sync.Mutex
	wbuf     []byte // whole frames (4-byte length, then the request) not yet written
	spare    []byte
	flushing bool // some caller holds the writer role
	stats    ClientStats

	mu      sync.Mutex
	pending map[uint64]chan reply
	idle    []chan reply // empty reply channels no call is waiting on
	calls   int          // calls that registered a reply channel and have not returned
	err     error        // set once the connection dies

	nextID atomic.Uint64
}

// ClientStats counts what a Client has put on the wire; Writes/Requests is
// how well its callers' frames shared writes.
type ClientStats struct {
	Requests uint64 // frames handed to the connection
	Writes   uint64 // conn.Write calls that carried them
}

// Stats returns the counters so far.
func (c *Client) Stats() ClientStats {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.stats
}

type reply struct {
	status  uint8
	results []kv.Result
	vec     []wal.ShardLSN
	errmsg  string
}

// Dial connects to a Server at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]chan reply),
	}
	go c.readLoop()
	return c
}

// Close tears the connection down; outstanding and future calls fail with
// ErrClosed.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.fail(ErrClosed)
	return err
}

// readLoop delivers responses to waiting callers. Each response is read
// into a buffer of its own, which is the one copy its bytes get on this
// side: the results decoded from it alias it and belong to the caller.
func (c *Client) readLoop() {
	br := newBufReader(c.conn)
	for {
		payload, _, err := readFrame(br, nil)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrClosed, err))
			return
		}
		id, status, results, vec, errmsg, err := parseResponse(payload)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrClosed, err))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ok {
			ch <- reply{status: status, results: results, vec: vec, errmsg: errmsg}
		}
	}
}

// fail poisons the client and wakes every waiter.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	waiters := c.pending
	c.pending = make(map[uint64]chan reply)
	c.mu.Unlock()
	c.conn.Close()
	for _, ch := range waiters {
		close(ch)
	}
}

// Do executes ops as one atomic batch on the server and returns the
// per-op results (see kv.Store.Do for batch semantics). It blocks until
// the response arrives; other goroutines' requests overlap freely. The
// results' values are slices of one buffer, read for this response and
// referred to by nothing else: they are the caller's to keep or to write.
func (c *Client) Do(ops []kv.Op) ([]kv.Result, error) {
	r, err := c.roundTrip(ops, nil)
	if err != nil {
		return nil, err
	}
	switch r.status {
	case StatusOK:
		if len(r.results) != len(ops) {
			return nil, fmt.Errorf("server: %d results for %d ops", len(r.results), len(ops))
		}
		return r.results, nil
	case StatusBudget:
		return nil, kv.ErrBudget
	case StatusOverloaded:
		return nil, ErrOverloaded
	case StatusShutdown:
		return nil, ErrServerClosed
	case StatusReadOnly:
		// A pre-execution shed (the store's log stopped): provably no
		// effect, and distinguishable so callers can treat it as clean.
		return nil, fmt.Errorf("%w: %s", kv.ErrReadOnly, r.errmsg)
	default:
		return nil, fmt.Errorf("server: status %d: %s", r.status, r.errmsg)
	}
}

// DoVec executes ops as a vector-aware request carrying the staleness
// token st. On success (StatusOKVec) it returns the results and the
// request's commit vector — the caller's next read-your-writes token.
// StatusLagging and StatusNotPrimary are NOT errors at this layer: they
// come back as the status with nil results (errmsg in msg), so a
// replica-aware wrapper can re-route. Transport failures and malformed
// responses are errors.
func (c *Client) DoVec(ops []kv.Op, st *Staleness) (results []kv.Result, vec []wal.ShardLSN, status uint8, msg string, err error) {
	r, err := c.roundTrip(ops, st)
	if err != nil {
		return nil, nil, 0, "", err
	}
	if r.status == StatusOKVec && len(r.results) != len(ops) {
		return nil, nil, 0, "", fmt.Errorf("server: %d results for %d ops", len(r.results), len(ops))
	}
	return r.results, r.vec, r.status, r.errmsg, nil
}

// roundTrip sends one request and waits for its reply. A transport failure
// is returned wrapped in ErrClosed, to every caller whose frame was in the
// failed write and to every other waiter; a request that cannot be encoded
// fails alone, before anything of it is sent or registered.
func (c *Client) roundTrip(ops []kv.Op, st *Staleness) (reply, error) {
	ch, lead, others, err := c.enqueue(c.nextID.Add(1), ops, st)
	if err != nil {
		return reply{}, err
	}
	if lead {
		c.flush(others)
	}
	// A failed write closed ch along with every other pending channel, so
	// the flusher learns of it here like everyone else.
	r, ok := <-ch
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls--
	if !ok {
		return reply{}, c.err
	}
	// The reader removed ch from pending before it sent: it is empty and ours.
	c.idle = append(c.idle, ch)
	return r, nil
}

// enqueue appends the request's frame to the shared buffer and registers its
// reply channel. lead tells the caller that nobody was flushing and the
// writer role is now its own; others, that it is not the only call on the
// connection. A request that fails to encode, or arrives after the
// connection died, leaves the buffer as it found it.
func (c *Client) enqueue(id uint64, ops []kv.Op, st *Staleness) (ch chan reply, lead, others bool, err error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	// Encode behind a gap for the frame length. c.wbuf itself is assigned
	// only once the frame is whole and expected, so until then the buffer
	// still ends where this caller found it.
	start := len(c.wbuf)
	buf, err := appendRequestVec(append(c.wbuf, 0, 0, 0, 0), id, ops, st)
	if err != nil {
		return nil, false, false, err
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	ch, calls, err := c.expect(id)
	if err != nil {
		return nil, false, false, err
	}
	c.wbuf = buf
	c.stats.Requests++
	lead = !c.flushing
	c.flushing = true
	return ch, lead, calls > 1, nil
}

// flush is the writer role: write what the buffer holds, swapping it for
// the spare so that callers keep appending meanwhile, until a pass finds it
// empty. Frames leave whole and in the order they were appended. When
// others are in the middle of a call (gather), it first yields the
// processor once: a caller whose reply has just come in is runnable and
// about to send its next request, and a timer or a count could not know
// that, but the scheduler runs it before it returns here. A write error
// fails the connection, which is how every caller of the burst hears of it.
func (c *Client) flush(gather bool) {
	if gather {
		runtime.Gosched()
	}
	c.wmu.Lock()
	for len(c.wbuf) > 0 {
		out := c.wbuf
		c.wbuf, c.spare = c.spare[:0], nil
		c.stats.Writes++
		c.wmu.Unlock()
		_, err := c.conn.Write(out)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrClosed, err))
		}
		c.wmu.Lock()
		if cap(out) <= maxRetainedBuf {
			c.spare = out[:0] // else one large burst does not size the buffer for good
		}
		if err != nil {
			// Whatever was appended meanwhile belongs to callers that fail
			// has already answered.
			c.wbuf = c.wbuf[:0]
			break
		}
	}
	c.flushing = false
	c.wmu.Unlock()
}

// expect registers a reply channel for request id and reports how many
// calls, this one included, are now between registering and returning.
func (c *Client) expect(id uint64) (chan reply, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, 0, c.err
	}
	var ch chan reply
	if n := len(c.idle); n > 0 {
		ch, c.idle = c.idle[n-1], c.idle[:n-1]
	} else {
		ch = make(chan reply, 1)
	}
	c.pending[id] = ch
	c.calls++
	return ch, c.calls, nil
}

// Get reads key.
func (c *Client) Get(key string) (kv.Result, error) {
	return c.one(kv.Op{Kind: kv.OpGet, Key: key})
}

// Put stores val under key.
func (c *Client) Put(key string, val []byte) (kv.Result, error) {
	return c.one(kv.Op{Kind: kv.OpPut, Key: key, Value: val})
}

// Delete removes key.
func (c *Client) Delete(key string) (kv.Result, error) {
	return c.one(kv.Op{Kind: kv.OpDelete, Key: key})
}

// CAS swaps key's value to val if it currently equals expect (nil expect:
// key must be absent; nil val: delete on match).
func (c *Client) CAS(key string, expect, val []byte) (kv.Result, error) {
	return c.one(kv.Op{Kind: kv.OpCAS, Key: key, Expect: expect, Value: val})
}

func (c *Client) one(op kv.Op) (kv.Result, error) {
	rs, err := c.Do([]kv.Op{op})
	if err != nil {
		return kv.Result{}, err
	}
	return rs[0], nil
}
