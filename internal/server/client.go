package server

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"nztm/internal/kv"
	"nztm/internal/wal"
)

// Client is a pipelining connection to a Server. It is safe for concurrent
// use: many goroutines may issue requests over one connection, writes are
// serialised, and a background reader matches (possibly out-of-order)
// responses to callers by request id — so a single TCP connection carries
// many overlapping requests.
type Client struct {
	conn net.Conn

	wmu  sync.Mutex
	wbuf []byte // the frame being sent: 4-byte length, then the request

	mu      sync.Mutex
	pending map[uint64]chan reply
	idle    []chan reply // empty reply channels no call is waiting on
	err     error        // set once the connection dies

	nextID atomic.Uint64
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
		// A pre-execution shed (disk full, log degraded): provably no
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
// is returned wrapped in ErrClosed, to this caller and to every other
// waiter; a request that cannot be encoded fails alone, before anything of
// it is sent or registered.
func (c *Client) roundTrip(ops []kv.Op, st *Staleness) (reply, error) {
	id := c.nextID.Add(1)

	c.wmu.Lock()
	// Encode behind a gap for the frame length, so the frame leaves in one
	// Write. Every call starts over at wbuf[:0]: a failed encode sends nothing.
	frame, err := appendRequestVec(append(c.wbuf[:0], 0, 0, 0, 0), id, ops, st)
	if err != nil {
		c.wmu.Unlock()
		return reply{}, err
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	ch, err := c.expect(id)
	if err != nil {
		c.wmu.Unlock()
		return reply{}, err
	}
	_, werr := c.conn.Write(frame)
	if cap(frame) <= maxRetainedBuf {
		c.wbuf = frame
	} else {
		c.wbuf = nil // one large request does not size the buffer for good
	}
	c.wmu.Unlock()
	if werr != nil {
		err := fmt.Errorf("%w: %v", ErrClosed, werr)
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		c.fail(err)
		return reply{}, err
	}

	r, ok := <-ch
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok {
		return reply{}, c.err
	}
	// The reader removed ch from pending before it sent: it is empty and ours.
	c.idle = append(c.idle, ch)
	return r, nil
}

// expect registers a reply channel for request id.
func (c *Client) expect(id uint64) (chan reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	var ch chan reply
	if n := len(c.idle); n > 0 {
		ch, c.idle = c.idle[n-1], c.idle[:n-1]
	} else {
		ch = make(chan reply, 1)
	}
	c.pending[id] = ch
	return ch, nil
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
