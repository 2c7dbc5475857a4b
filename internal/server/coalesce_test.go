package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nztm/internal/kv"
)

// countingConn counts the Write calls made on a connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countingListener hands out connections whose Write calls all land in one
// counter: the server's side of every connection accepted through it.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, writes: l.writes}, nil
}

// wire is a server and one Client on it with both ends' writes counted.
type wire struct {
	srv          *Server
	addr         string
	c            *Client
	clientWrites atomic.Int64
	serverWrites atomic.Int64
}

// startCounted serves srv on a counting loopback listener and dials it
// through a counting connection. Everything stops with the test.
func startCounted(tb testing.TB, srv *Server) *wire {
	tb.Helper()
	w := &wire{srv: srv}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	w.addr = ln.Addr().String()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(countingListener{Listener: ln, writes: &w.serverWrites}) }()
	conn, err := net.Dial("tcp", w.addr)
	if err != nil {
		tb.Fatal(err)
	}
	w.c = NewClient(countingConn{Conn: conn, writes: &w.clientWrites})
	tb.Cleanup(func() {
		w.c.Close()
		srv.Shutdown(5 * time.Second)
		if err := <-done; !errors.Is(err, ErrServerClosed) {
			tb.Errorf("Serve returned %v", err)
		}
	})
	return w
}

func newTestServer(tb testing.TB, threads int, cfg Config) *Server {
	tb.Helper()
	b, err := kv.OpenBackend("nzstm", threads)
	if err != nil {
		tb.Fatal(err)
	}
	return New(kv.New(b.Sys, 4, 16), b.Reg, cfg)
}

// closedLoop runs callers goroutines on c, each putting a value of its own
// pattern under its own key and reading it back, requests requests apiece,
// and checks every reply byte for byte: a reply delivered to the wrong
// caller, or a frame torn where two callers' bytes meet, shows at once.
func closedLoop(t *testing.T, c *Client, callers, requests int) {
	t.Helper()
	sizes := []int{0, 1, 128, 1000}
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("shared:%d", g)
			for round := 0; round < requests/2; round++ {
				val := wirePattern(g, round, 0, sizes[(g+round)%len(sizes)])
				if r, err := c.Put(key, val); err != nil || !r.Found {
					t.Errorf("%s round %d: PUT = %+v, %v", key, round, r, err)
					return
				}
				if r, err := c.Get(key); err != nil || !r.Found || r.Value == nil || !bytes.Equal(r.Value, val) {
					t.Errorf("%s round %d: GET returned %d bytes, %v; want the %d put", key, round, len(r.Value), err, len(val))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCallersShareWrites: callers that overlap on one Client share writes
// at both ends — fewer Write calls than requests on the client's side of
// the connection and on the server's — and every caller still gets its own
// reply.
func TestCallersShareWrites(t *testing.T) {
	for _, callers := range []int{4, 16} {
		t.Run(fmt.Sprintf("%d callers", callers), func(t *testing.T) {
			const requests = 2000
			w := startCounted(t, newTestServer(t, 4, Config{}))
			closedLoop(t, w.c, callers, requests)
			total := int64(callers * requests)
			cw, sw := w.clientWrites.Load(), w.serverWrites.Load()
			t.Logf("%d requests: %d client writes (%.2f per request), %d server writes (%.2f)",
				total, cw, float64(cw)/float64(total), sw, float64(sw)/float64(total))
			if cw >= total {
				t.Errorf("client made %d writes for %d overlapping requests; want fewer", cw, total)
			}
			if sw >= total {
				t.Errorf("server made %d writes for %d pipelined requests; want fewer", sw, total)
			}
			if st := w.c.Stats(); st.Requests != uint64(total) || st.Writes != uint64(cw) {
				t.Errorf("Stats = %+v; the connection saw %d requests in %d writes", st, total, cw)
			}
			if f := w.srv.SchedStats().Flushes.Load(); f != uint64(sw) {
				t.Errorf("SchedStats.Flushes = %d; the connection saw %d server writes", f, sw)
			}
		})
	}
}

// TestLoneCallerPaysOneWritePerRequest: with one request in flight nothing
// is gathered and nothing yields — each request is exactly one Write on the
// client's side and one on the server's.
func TestLoneCallerPaysOneWritePerRequest(t *testing.T) {
	const requests = 500
	w := startCounted(t, newTestServer(t, 2, Config{}))
	closedLoop(t, w.c, 1, requests)
	if cw, sw := w.clientWrites.Load(), w.serverWrites.Load(); cw != requests || sw != requests {
		t.Fatalf("%d requests one at a time: %d client writes, %d server writes; want %d of each", requests, cw, sw, requests)
	}
}

type callResult struct {
	i   int
	res []kv.Result
	err error
}

// holdWriterRole takes c's writer role for the test, so that callers only
// append and wait: the test decides what one burst holds, then calls
// c.flush itself.
func holdWriterRole(t *testing.T, c *Client) {
	t.Helper()
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.flushing {
		t.Fatal("connection not idle")
	}
	c.flushing = true
}

// appendCall starts c.Do(ops) on a goroutine of its own, returns once its
// frame is in the buffer, and reports its outcome on out.
func appendCall(t *testing.T, c *Client, i int, ops []kv.Op, out chan<- callResult) {
	t.Helper()
	want := c.Stats().Requests + 1
	go func() {
		res, err := c.Do(ops)
		out <- callResult{i: i, res: res, err: err}
	}()
	waitFor(t, 5*time.Second, func() bool { return c.Stats().Requests == want })
}

// TestEncodeErrorInsideABurst: a request that cannot be encoded, arriving
// between two good ones that are waiting for the same flush, takes nothing
// with it. The buffer holds exactly the two good frames, one Write carries
// them, and both are answered.
func TestEncodeErrorInsideABurst(t *testing.T) {
	w := startCounted(t, newTestServer(t, 2, Config{}))
	c := w.c
	good := [][]kv.Op{
		{{Kind: kv.OpPut, Key: "first", Value: []byte("1")}},
		{{Kind: kv.OpPut, Key: "second", Value: []byte("2")}},
	}
	// The long key comes second, so the encoder fails with a valid op
	// already in the shared buffer.
	bad := []kv.Op{
		{Kind: kv.OpPut, Key: "partly-encoded", Value: []byte("x")},
		{Kind: kv.OpGet, Key: strings.Repeat("k", MaxKey+1)},
	}
	out := make(chan callResult, len(good))
	holdWriterRole(t, c)
	appendCall(t, c, 0, good[0], out)
	// The refused call returns at once, by itself: it waits for no flush.
	if _, err := c.Do(bad); err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("call that cannot be encoded: err = %v, want an encode error", err)
	}
	appendCall(t, c, 1, good[1], out)

	c.wmu.Lock()
	buffered := append([]byte(nil), c.wbuf...)
	c.wmu.Unlock()
	var want []byte
	for i, id := range []uint64{1, 3} {
		want = appendFrame(t, want, id, good[i])
	}
	if !bytes.Equal(buffered, want) {
		t.Fatalf("buffer holds %d bytes, want the two good frames and nothing else (%d bytes)", len(buffered), len(want))
	}
	c.mu.Lock()
	pending := len(c.pending)
	c.mu.Unlock()
	if pending != 2 {
		t.Fatalf("%d entries in pending, want the 2 good calls", pending)
	}

	c.flush(true)
	for n := 0; n < 2; n++ {
		select {
		case r := <-out:
			if r.err != nil || !r.res[0].Found {
				t.Errorf("call %d = %+v, %v", r.i, r.res, r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a good call of the burst got no reply")
		}
	}
	if cw := w.clientWrites.Load(); cw != 1 {
		t.Errorf("%d client writes for the burst, want 1", cw)
	}
	if r, err := c.Get("partly-encoded"); err != nil || r.Found {
		t.Errorf("GET partly-encoded = %+v, %v; nothing of the refused batch may have run", r, err)
	}
}

// TestPeerClosesMidBurst: the peer goes away in the middle of a write that
// carries eight callers' frames. Every one of them — the flusher, the
// callers whose frames the peer took whole and the ones it never saw — and
// any later caller gets ErrClosed; nobody hangs, and the writer role is
// free again.
func TestPeerClosesMidBurst(t *testing.T) {
	cliEnd, srvEnd := net.Pipe()
	c := NewClient(cliEnd)
	defer c.Close()
	const callers = 8
	out := make(chan callResult, callers)
	holdWriterRole(t, c)
	for i := 0; i < callers; i++ {
		appendCall(t, c, i, []kv.Op{{Kind: kv.OpPut, Key: fmt.Sprintf("burst:%d", i), Value: make([]byte, 256)}}, out)
	}

	// The peer takes two frames and four bytes of the third, and closes.
	peerDone := make(chan error, 1)
	go func() {
		br := newBufReader(srvEnd)
		var err error
		for i := 0; i < 2 && err == nil; i++ {
			_, _, err = readFrame(br, nil)
		}
		if err == nil {
			_, err = io.ReadFull(br, make([]byte, 4))
		}
		srvEnd.Close()
		peerDone <- err
	}()
	flusher := make(chan struct{})
	go func() {
		c.flush(true)
		close(flusher)
	}()
	for n := 0; n < callers; n++ {
		select {
		case r := <-out:
			if !errors.Is(r.err, ErrClosed) {
				t.Errorf("call %d of the burst: err = %v, want ErrClosed", r.i, r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d callers still blocked after the connection died", callers-n, callers)
		}
	}
	select {
	case <-flusher:
	case <-time.After(5 * time.Second):
		t.Fatal("the flusher did not return")
	}
	if err := <-peerDone; err != nil {
		t.Fatalf("peer: %v", err)
	}
	c.wmu.Lock()
	flushing, left := c.flushing, len(c.wbuf)
	c.wmu.Unlock()
	if flushing || left != 0 {
		t.Errorf("after the failed write: flushing = %v with %d bytes buffered; want the role released and nothing kept", flushing, left)
	}
	if _, err := c.Get("after"); !errors.Is(err, ErrClosed) {
		t.Errorf("call on the dead connection: err = %v, want ErrClosed", err)
	}
}

// TestCloseDuringFlush: Close while a flusher is inside conn.Write fails
// the write, the flusher lets go of the writer role, and its call returns
// ErrClosed.
func TestCloseDuringFlush(t *testing.T) {
	cliEnd, srvEnd := net.Pipe()
	defer srvEnd.Close()
	c := NewClient(cliEnd)
	res := make(chan error, 1)
	go func() {
		// Nobody reads the pipe: the Write blocks until Close.
		_, err := c.Put("k", []byte("v"))
		res <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return c.Stats().Writes == 1 })
	c.Close()
	select {
	case err := <-res:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the flusher is still blocked after Close")
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.flushing {
		t.Error("the writer role is still held after Close")
	}
}

// TestBurstBuffersNotRetained: a burst that grows either of the client's
// two buffers past maxRetainedBuf leaves neither behind.
func TestBurstBuffersNotRetained(t *testing.T) {
	w := startCounted(t, newTestServer(t, 2, Config{}))
	c := w.c
	big := make([]byte, maxRetainedBuf+1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := c.Put(fmt.Sprintf("big:%d", g), big); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if _, err := c.Put("small", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("small", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if cap(c.wbuf) > maxRetainedBuf || cap(c.spare) > maxRetainedBuf {
		t.Fatalf("buffers of %d and %d bytes kept after the large burst; limit %d", cap(c.wbuf), cap(c.spare), maxRetainedBuf)
	}
}

// appendFrame appends the request as it goes over the wire: a 4-byte length
// and the payload.
func appendFrame(t *testing.T, buf []byte, id uint64, ops []kv.Op) []byte {
	t.Helper()
	p, err := appendRequest(nil, id, ops)
	if err != nil {
		t.Fatal(err)
	}
	return append(binary.BigEndian.AppendUint32(buf, uint32(len(p))), p...)
}

// rawPipeline writes the requests, ids counting up from firstID, as one
// Write on a raw connection.
func rawPipeline(t *testing.T, conn net.Conn, firstID uint64, reqs [][]kv.Op) {
	t.Helper()
	var buf []byte
	for i, ops := range reqs {
		buf = appendFrame(t, buf, firstID+uint64(i), ops)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// readResponses reads n responses within d and returns their ids.
func readResponses(t *testing.T, conn net.Conn, br *bufio.Reader, n int, d time.Duration) map[uint64]bool {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(d))
	ids := make(map[uint64]bool)
	for len(ids) < n {
		payload, _, err := readFrame(br, nil)
		if err != nil {
			t.Fatalf("after %d of %d responses: %v", len(ids), n, err)
		}
		id, status, _, _, msg, err := parseResponse(payload)
		if err != nil || status != StatusOK {
			t.Fatalf("response %d: status %d %q, %v", id, status, msg, err)
		}
		ids[id] = true
	}
	return ids
}

// TestPipelinedResponsesShareWrites: requests that arrive together are
// answered together. A raw client sends eight requests in one write, many
// times over; the server answers every one, in fewer writes than responses.
func TestPipelinedResponsesShareWrites(t *testing.T) {
	w := startCounted(t, newTestServer(t, 4, Config{}))
	conn, err := net.Dial("tcp", w.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := newBufReader(conn)
	const bursts, per = 100, 8
	for b := 0; b < bursts; b++ {
		reqs := make([][]kv.Op, per)
		for i := range reqs {
			reqs[i] = []kv.Op{{Kind: kv.OpPut, Key: fmt.Sprintf("p:%d", i), Value: []byte("v")}}
		}
		first := uint64(b*per + 1)
		rawPipeline(t, conn, first, reqs)
		ids := readResponses(t, conn, br, per, 5*time.Second)
		for i := 0; i < per; i++ {
			if !ids[first+uint64(i)] {
				t.Fatalf("burst %d: no response to request %d", b, first+uint64(i))
			}
		}
	}
	sw := w.serverWrites.Load()
	t.Logf("%d responses in %d server writes", bursts*per, sw)
	if sw >= bursts*per {
		t.Errorf("server made %d writes for %d responses to requests that arrived eight to a read; want fewer", sw, bursts*per)
	}
}

// TestWriterNeverWaitsForAnExecutingRequest: the writer's yield lets
// runnable executors add their responses; it is not a wait. With one of
// eight pipelined requests stalled in its executor, the other seven
// responses reach the client while it is still stalled.
func TestWriterNeverWaitsForAnExecutingRequest(t *testing.T) {
	srv := newTestServer(t, 4, Config{Executors: 4})
	stall := make(chan struct{})
	var stalled atomic.Int32
	srv.preExec = func(ops []kv.Op) {
		if strings.HasPrefix(ops[0].Key, "stall:") {
			stalled.Add(1)
			<-stall
		}
	}
	w := startCounted(t, srv)
	conn, err := net.Dial("tcp", w.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := newBufReader(conn)

	const per = 8
	reqs := make([][]kv.Op, per)
	for i := range reqs {
		reqs[i] = []kv.Op{{Kind: kv.OpPut, Key: fmt.Sprintf("fast:%d", i), Value: []byte("v")}}
	}
	const slow = 3 // in the middle of the burst; request id slow+1
	reqs[slow][0].Key = "stall:held"
	rawPipeline(t, conn, 1, reqs)
	ids := readResponses(t, conn, br, per-1, 5*time.Second)
	if ids[slow+1] {
		t.Fatal("the stalled request was answered")
	}
	if stalled.Load() != 1 {
		t.Fatalf("%d requests stalled, want 1", stalled.Load())
	}
	close(stall)
	if ids := readResponses(t, conn, br, 1, 5*time.Second); !ids[slow+1] {
		t.Fatalf("after the release: got %v, want the stalled request's response", ids)
	}
}
