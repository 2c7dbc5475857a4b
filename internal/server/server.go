package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nztm/internal/kv"
	"nztm/internal/tm"
	"nztm/internal/trace"
)

// Config tunes a Server.
type Config struct {
	// MaxAttempts caps transaction attempts per request (0 = unlimited).
	MaxAttempts int
	// RequestTimeout is the per-request retry deadline (0 = none).
	RequestTimeout time.Duration
	// MaxInflight caps concurrently executing requests per connection
	// (further pipelined requests queue in the kernel socket buffer).
	// Default 64.
	MaxInflight int
	// Executors sizes the slot-bound executor pool — the M in the M:N
	// request scheduler. Each executor binds one registry slot for the
	// server's lifetime; connections bind none, so live connections are
	// not capped by the registry. Default 2×GOMAXPROCS.
	Executors int
	// QueueDepth bounds the shared admission queue, in tasks (a burst of
	// pipelined requests is one), between readers and executors. Default 1024.
	QueueDepth int
	// Admission picks the queue-full policy: AdmitReject (default —
	// answer StatusOverloaded immediately) or AdmitBlock (park the
	// connection's reader until space frees).
	Admission string
	// RetryBackoff, when positive, spaces a request's transaction retries
	// with exponential, jittered sleeps (see kv.Budget.Backoff). It
	// replaces the bare immediate-retry loop for contended requests.
	RetryBackoff time.Duration
	// ExtraMetricsz, when non-nil, appends additional Prometheus lines to
	// the WriteMetricsz exposition.
	ExtraMetricsz func(io.Writer)
	// WrapThread, when non-nil, decorates each per-connection thread
	// context right after it is minted (the fault plane rebinds Env here).
	WrapThread func(*tm.Thread)
	// CheckRequest, when non-nil, is consulted before each request is
	// admitted to the scheduler — the replication plane's interposition
	// point. Returning StatusOK lets the request run; any other status
	// (typically StatusNotPrimary for writes on a follower, StatusLagging
	// for a bounded-staleness read the replica cannot serve in time)
	// answers the request immediately with that status and message. The
	// hook may block, e.g. while a replica waits to catch up to a token
	// vector; it runs on the connection's reader goroutine in the
	// listener plane, so a waiting read stalls only its own connection —
	// never an executor slot.
	CheckRequest func(ops []kv.Op, st *Staleness) (uint8, string)
}

// Server serves a kv.Store over length-prefixed TCP through three
// swappable planes. The LISTENER plane accepts connections and decodes
// frames without ever touching the thread registry; decoded requests pass
// through a bounded ADMISSION queue (queue-full → StatusOverloaded under
// the default policy, never unbounded buffering); an EXECUTOR pool of M
// slot-bound workers drains the queue and runs requests against the
// store. N connections therefore share M registry slots instead of
// binding one each — idle connections hold no slot, and live connections
// are bounded by file descriptors, not MaxThreads. Responses carry the
// request id, so pipelined clients match them up.
//
// The per-connection writer batches, and its flush rule is one sentence:
// flush when the response queue is empty and, if the connection is still
// owed responses (requests admitted whose answers have not reached the
// writer), stays empty across one yield of the processor. The yield is the
// whole mechanism. An executor's deliver makes the writer the next goroutine
// to run on that processor, so without it the writer wakes, finds its queue
// empty and pays for a write after every single response, while executors
// holding the connection's other responses sit runnable behind it. Yielding
// once lets exactly those run first — no timer, count or size could know
// they are there — and it is not a wait: a request still executing after
// the yield holds nothing back. A connection with one request in flight is
// owed nothing when its response arrives, never yields, and pays one write
// per response as before. Client applies the same rule to requests.
type Server struct {
	store *kv.Store
	reg   *tm.Registry
	cfg   Config
	sched *scheduler

	// preExec, when non-nil, runs on the executor goroutine just before
	// each request executes — a test seam for stalling executors.
	preExec func(ops []kv.Op)

	mu       sync.Mutex // guards ln and conns, and orders both against shutdown
	ln       net.Listener
	conns    map[net.Conn]struct{}
	shutdown atomic.Bool // set once, under mu; read without it per request

	wg sync.WaitGroup // live connections

	started     time.Time
	connsTotal  atomic.Uint64
	reqOK       atomic.Uint64
	reqBudget   atomic.Uint64
	reqBad      atomic.Uint64
	reqErr      atomic.Uint64
	reqShutdown atomic.Uint64
	reqLagging  atomic.Uint64      // bounded-staleness reads refused (replica behind)
	reqRedirect atomic.Uint64      // StatusNotPrimary answers (client re-routes)
	reqOverload atomic.Uint64      // StatusOverloaded rejects (admission queue full)
	reqReadOnly atomic.Uint64      // StatusReadOnly sheds (the store's log stopped)
	spans       SpanMetrics        // per-request timing: the one latency instrument
	slow        *trace.SlowSampler // slowK slowest timelines per window (/slowz)
}

// The slow-request tail sampler keeps the slowK slowest complete span
// timelines per slowWindow for /slowz.
const (
	slowK      = 8
	slowWindow = time.Minute
)

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("server: closed")

// New creates a server over store. reg mints the executor pool's TM
// thread contexts when Serve starts; accepted connections acquire no
// slot, so accept never blocks on registry capacity and the number of
// live connections is independent of MaxThreads.
func New(store *kv.Store, reg *tm.Registry, cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.Executors <= 0 {
		cfg.Executors = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.Executors > reg.Max() {
		cfg.Executors = reg.Max()
	}
	return &Server{
		store:   store,
		reg:     reg,
		cfg:     cfg,
		sched:   newScheduler(cfg.Executors, cfg.QueueDepth, cfg.Admission),
		conns:   make(map[net.Conn]struct{}),
		started: time.Now(),
		slow:    trace.NewSlowSampler(slowK, slowWindow),
	}
}

// Serve accepts connections on ln until Shutdown. It always returns a
// non-nil error; after Shutdown the error is ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.shutdown.Load() {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	// The executor pool binds its registry slots once, here — never on
	// accept. Connections beyond the pool size share the M slots through
	// the admission queue.
	s.sched.run(s)
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.shutdown.Load() {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.shutdown.Load() {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.connsTotal.Add(1)
		go s.serveConn(conn)
	}
}

// Shutdown stops the server gracefully: the listener closes, connection
// readers stop picking up new requests, in-flight requests finish and
// their responses flush, then connections close. If the drain exceeds
// timeout (0 = a generous default), remaining connections are closed hard.
func (s *Server) Shutdown(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	s.mu.Lock()
	if s.shutdown.Load() {
		s.mu.Unlock()
		return nil
	}
	s.shutdown.Store(true)
	ln := s.ln
	for conn := range s.conns {
		// Unblock the connection's reader; it observes the shutdown flag
		// and drains instead of treating this as an I/O failure.
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Every connection drained, so no admitter remains: stop the
		// executor pool and release its registry slots.
		s.sched.shutdown()
		return nil
	case <-time.After(timeout):
	}
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	<-done
	s.sched.shutdown()
	return fmt.Errorf("server: shutdown forced after %v", timeout)
}

// SchedStats exposes the scheduler's counter block (tests and embedders).
func (s *Server) SchedStats() *SchedStats { return &s.sched.stats }

// QueueCap reports the admission queue's resolved capacity.
func (s *Server) QueueCap() int { return cap(s.sched.tasks) }

// Executors reports the executor pool's resolved size: the requested
// count, or its 2×GOMAXPROCS default, clamped to the registry.
func (s *Server) Executors() int { return s.sched.executors }

// serveConn runs one connection in the listener plane: this goroutine
// reads and parses frames and admits them to the shared scheduler — it
// never touches the thread registry, so accept and decode cost no slot. A
// writer goroutine batches responses out. Requests the scheduler cannot
// take (queue full, AdmitReject) are answered StatusOverloaded here; up
// to MaxInflight of the connection's requests may be admitted at once
// (preserving pipelining), further ones park in the kernel socket buffer.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	cs := &connState{
		responses: make(chan *request, 2*s.cfg.MaxInflight),
		sem:       make(chan struct{}, s.cfg.MaxInflight),
		kill:      func() { conn.Close() },
	}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		bw := newBufWriter(conn)
		for r := range cs.responses {
			if err := writeFrame(bw, r.resp); err != nil {
				drain(cs.responses)
				return
			}
			// The response is in bw: nothing refers to the record any more.
			cs.recycle(r)
			if len(cs.responses) > 0 {
				continue
			}
			// The queue has drained. An executor's deliver makes this
			// goroutine the next to run on its processor, so it gets here
			// after each response, ahead of executors that are already
			// runnable with the connection's other responses: if any are
			// owed, let those run once before paying for a write. It never
			// waits for them — a request still executing after the yield
			// holds nothing back.
			if cs.owed.Load() > 0 {
				runtime.Gosched()
				if len(cs.responses) > 0 {
					continue
				}
			}
			s.sched.stats.Flushes.Add(1)
			if err := bw.Flush(); err != nil {
				drain(cs.responses)
				return
			}
		}
		bw.Flush()
	}()

	br := newBufReader(conn)
	// Requests already whole in br may go as one task, b: not with a log or
	// a CheckRequest (DESIGN.md §14).
	bursts := s.store.WAL() == nil && s.cfg.CheckRequest == nil
	var b *burst
	for {
		if b != nil && (!frameBuffered(br) || len(cs.sem) == cap(cs.sem)) {
			// The next read, or token, may have to wait: send b first.
			s.admit(cs, nil, b)
			b = nil
		}
		r := cs.record()
		var payload []byte
		var err error
		payload, r.frame, err = readFrame(br, r.frame)
		if err != nil {
			// EOF, hard error, malformed stream, or the read deadline
			// Shutdown sets to start a graceful drain: stop reading and let
			// in-flight requests finish and flush. For a desynchronised
			// stream there is no way to answer reliably.
			break
		}
		// Span origin: the frame is fully read; everything from here to
		// the response write is attributed to a stage.
		r.span = trace.Span{Begin: trace.Now()}
		// Every refusal below answers in the record already in hand.
		if perr := parseRequest(payload, r); perr != nil {
			s.reqBad.Add(1)
			r.resp = appendResponse(r.resp[:0], r.id, StatusBad, nil, perr.Error())
			cs.responses <- r
			continue
		}
		if s.shutdown.Load() {
			s.reqShutdown.Add(1)
			r.resp = appendResponse(r.resp[:0], r.id, StatusShutdown, nil, "shutting down")
			cs.responses <- r
			break
		}
		// The replication interposition runs here, pre-admission: a
		// blocking catch-up wait stalls only this connection, never an
		// executor slot.
		if s.cfg.CheckRequest != nil {
			if status, msg := s.cfg.CheckRequest(r.ops, r.st); status != StatusOK {
				switch status {
				case StatusLagging:
					s.reqLagging.Add(1)
				case StatusNotPrimary:
					s.reqRedirect.Add(1)
				default:
					s.reqErr.Add(1)
				}
				r.resp = appendResponse(r.resp[:0], r.id, status, nil, msg)
				cs.responses <- r
				continue
			}
		}
		r.span.ID = r.id
		r.span.Ops = uint32(len(r.ops))
		r.span.Mark(trace.StageDecode)
		// Admission: take an in-flight token (parking here is the
		// per-connection pipelining bound), then offer the task to the
		// bounded queue.
		cs.sem <- struct{}{}
		cs.wg.Add(1)
		cs.owed.Add(1)
		if b == nil && !(bursts && frameBuffered(br)) {
			s.admit(cs, r, nil)
			continue
		}
		// The next frame is already whole in br: r and it go in one task.
		if b == nil {
			b = burstPool.Get().(*burst)
			b.tasks = 1
		}
		b.reqs = append(b.reqs, r)
	}
	if b != nil {
		s.admit(cs, nil, b)
	}
	// Wait for this connection's admitted tasks to be answered before
	// closing the response channel the executors deliver into.
	cs.wg.Wait()
	close(cs.responses)
	<-writerDone
}

// admit offers the queue one task, the lone request r or the burst b; a
// refused task's requests are answered StatusOverloaded here. The enqueue
// stamps land before an executor can have the requests.
func (s *Server) admit(cs *connState, r *request, b *burst) {
	t, reqs := task{r: r}, []*request{r}
	if b != nil {
		t, reqs = task{b: b}, b.reqs
	}
	for _, r := range reqs {
		r.span.Mark(trace.StageEnqueue)
	}
	if s.sched.admit(t, len(reqs)) {
		return
	}
	for _, r := range reqs {
		s.reqOverload.Add(1)
		cs.owed.Add(-1)
		cs.wg.Done()
		<-cs.sem
		r.resp = appendResponse(r.resp[:0], r.id, StatusOverloaded, nil, "admission queue full")
		cs.responses <- r
	}
}

// execute runs one request on an executor's thread and encodes its
// response into the request's record. A vector-aware request (r.st non-nil)
// is answered with StatusOKVec carrying its commit vector. The request's
// deadline counts from the exec_start stamp the executor has just put on
// sp; execute reads no clock of its own.
func (s *Server) execute(th *tm.Thread, r *request, sp *trace.Span) {
	budget := kv.Budget{MaxAttempts: s.cfg.MaxAttempts, Backoff: s.cfg.RetryBackoff}
	if s.cfg.RequestTimeout > 0 {
		budget.Deadline = trace.Time(sp.Stamp[trace.StageExecStart]).Add(s.cfg.RequestTimeout)
	}
	results, vec, err := s.store.DoSpan(th, r.ops, budget, sp)
	status, errmsg := uint8(StatusOK), ""
	switch {
	case err == nil:
		s.reqOK.Add(1)
		if r.st != nil {
			status = StatusOKVec
		}
	case errors.Is(err, kv.ErrBudget):
		s.reqBudget.Add(1)
		status, errmsg = StatusBudget, err.Error()
	case errors.Is(err, kv.ErrReadOnly):
		// Shed before execution: the write had no effect anywhere, so the
		// client may retry it verbatim against a healthy replica.
		s.reqReadOnly.Add(1)
		status, errmsg = StatusReadOnly, err.Error()
	case errors.Is(err, kv.ErrFenced):
		// Shed before execution by a deposed primary: redirect, with no
		// primary named.
		s.reqRedirect.Add(1)
		status, errmsg = StatusNotPrimary, "primary="
	default:
		s.reqErr.Add(1)
		status, errmsg = StatusError, err.Error()
	}
	sp.Status = status
	r.resp = appendResponseVec(r.resp[:0], r.id, status, results, vec, errmsg)
}

// Spans exposes the per-request timing histograms.
func (s *Server) Spans() *SpanMetrics { return &s.spans }

// SlowSampler exposes the slow-request tail sampler (for soak dumps).
func (s *Server) SlowSampler() *trace.SlowSampler { return s.slow }

// WriteSlowz renders the /slowz JSON document: the K slowest complete
// request timelines of the current and previous sampling window.
func (s *Server) WriteSlowz(w io.Writer) error { return s.slow.WriteJSON(w) }

// DumpSlow writes the sampled slow-request timelines human-readably —
// the form SIGQUIT diagnostics and soak failure dumps use.
func (s *Server) DumpSlow(w io.Writer) { s.slow.Dump(w) }

func drain(ch chan *request) {
	for range ch {
	}
}
