package server

import (
	"io"
	"sync"
	"sync/atomic"

	"nztm/internal/kv"
	"nztm/internal/metrics"
	"nztm/internal/tm"
	"nztm/internal/trace"
)

// Admission policies: what happens when the scheduler's bounded queue is
// full. See Config.Admission.
const (
	// AdmitReject answers queue-full requests immediately with
	// StatusOverloaded — explicit backpressure instead of unbounded
	// buffering. The request had no effect, so clients retry safely.
	AdmitReject = "reject"
	// AdmitBlock parks the connection's reader until queue space frees:
	// per-connection backpressure through the kernel socket buffer, no
	// rejects. One connection's flood slows only itself and the queue.
	AdmitBlock = "block"
)

// SchedStats is the scheduler's counter block. Every atomic.Uint64 field
// is exported through WriteMetricsz as one nztm_sched_<snake_case>_total
// counter by reflection (metrics.WriteFields), so adding a counter here
// is all it takes to export it. The two
// interesting gauges are derived, not stored: queue depth is
// Enqueued−Dispatched and busy executors is Dispatched−Completed, so they
// can never drift from the counters that define them.
type SchedStats struct {
	// Enqueued counts requests admitted to the queue, a burst's each.
	Enqueued atomic.Uint64
	// Dispatched counts requests an executor picked up.
	Dispatched atomic.Uint64
	// Completed counts requests whose response was handed to the writer.
	Completed atomic.Uint64
	// Rejected counts admissions refused with StatusOverloaded
	// (queue full under the AdmitReject policy).
	Rejected atomic.Uint64
	// SlowClientDrops counts responses dropped — and connections killed —
	// because the client stopped draining its socket while pipelining
	// more requests (the executor pool never blocks on one connection's
	// full response buffer).
	SlowClientDrops atomic.Uint64
	// Flushes counts writes of buffered responses to a connection;
	// Flushes/Completed is how well responses shared writes.
	Flushes atomic.Uint64
	// Bursts counts admitted tasks that carried more than one request.
	Bursts atomic.Uint64
}

// Depth returns the current queue depth (admitted, not yet dispatched).
func (st *SchedStats) Depth() uint64 {
	// Loads race benignly: Dispatched only grows after Enqueued.
	d := st.Dispatched.Load()
	if e := st.Enqueued.Load(); e > d {
		return e - d
	}
	return 0
}

// Busy returns how many executors are running a request right now.
func (st *SchedStats) Busy() uint64 {
	c := st.Completed.Load()
	if d := st.Dispatched.Load(); d > c {
		return d - c
	}
	return 0
}

// WriteMetricsz appends one Prometheus counter per field plus the derived
// depth/busy gauges.
func (st *SchedStats) WriteMetricsz(w io.Writer) {
	metrics.WriteFields(w, "nztm_sched", "counter", st)
	metrics.GaugeFam(w, "nztm_sched_queue_depth", "admitted requests not yet dispatched", float64(st.Depth()))
	metrics.GaugeFam(w, "nztm_sched_executors_busy", "executors currently running a request", float64(st.Busy()))
}

// request is one request's record: the frame it arrived in, the ops decoded
// in place over that frame, and the response encoded for it. A connection's
// reader takes a record from the connection's free list, reads and decodes
// into it, and either answers it there (a refusal) or admits it; an executor
// runs the ops and encodes the response into it; the connection's writer
// copies the response into its bufio.Writer and only then recycles the
// record. The record has exactly one holder at every moment, and that holder
// owns all of it — frame, ops and response.
type request struct {
	c     *connState // the connection whose free list the record belongs to
	span  trace.Span // stamped by the reader, then by whoever executes it
	id    uint64
	frame []byte     // the buffer the payload was read into
	ops   []kv.Op    // Value and Expect alias frame; see parseRequest
	keys  []byte     // decode scratch: every key, length-prefixed as on the wire
	st    *Staleness // non-nil exactly when the request was vector-aware
	resp  []byte     // the encoded response payload
}

// A record that one large request grew past these is dropped after use, not
// recycled, so a 16 MB frame is not kept for every connection that ever sent
// one. The Client applies the byte limit to its encode buffer.
const (
	maxRetainedBuf = 64 << 10 // frame, key scratch or response buffer, bytes
	maxRetainedOps = 256      // op slice, entries
)

// task is one admission-queue entry, moved by value so that admission and
// dispatch allocate nothing: a lone request r, or a burst b, run from its
// front, or from its back when back is set (a help task).
type task struct {
	r    *request
	b    *burst
	back bool
}

// burst is a request and those after it whose frames were already whole in
// the connection's read buffer. reqs[head:] have not started; tasks counts
// the tasks holding b, and the last to find it empty returns it to the pool.
type burst struct {
	mu    sync.Mutex
	reqs  []*request
	head  int
	tasks int
}

var burstPool = sync.Pool{New: func() any { return new(burst) }}

// connState is one connection's slice of the scheduler: the response
// channel its writer drains, the in-flight semaphore that preserves
// per-connection pipelining limits, the bookkeeping that lets the
// connection goroutine wait for its outstanding tasks before closing, and
// the free list its request records cycle through.
type connState struct {
	responses chan *request
	sem       chan struct{}  // holds one token per admitted, unanswered task
	wg        sync.WaitGroup // admitted tasks not yet answered
	kill      func()         // closes the net.Conn (slow-consumer defence)
	killed    atomic.Bool
	// owed counts admitted requests whose response has not been handed to
	// the writer yet: what the writer may still gather before it flushes.
	owed atomic.Int32

	// free holds the records no one is using. It never outgrows the records
	// the connection can have had in use at once: MaxInflight admitted, the
	// response channel's capacity, one at the reader and one at the writer.
	freeMu sync.Mutex
	free   []*request
}

// record returns a request record for the reader to fill.
func (cs *connState) record() *request {
	cs.freeMu.Lock()
	defer cs.freeMu.Unlock()
	if n := len(cs.free); n > 0 {
		r := cs.free[n-1]
		cs.free = cs.free[:n-1]
		return r
	}
	return &request{c: cs}
}

// recycle takes back a record whose response has been copied out. The ops
// are cleared so that a free record holds no key string and no stale slice.
func (cs *connState) recycle(r *request) {
	if cap(r.frame) > maxRetainedBuf || cap(r.keys) > maxRetainedBuf ||
		cap(r.resp) > maxRetainedBuf || cap(r.ops) > maxRetainedOps {
		return
	}
	clear(r.ops)
	r.st = nil
	cs.freeMu.Lock()
	cs.free = append(cs.free, r)
	cs.freeMu.Unlock()
}

// finish releases a task's admission token after its response was handed
// to the writer (or dropped on a killed connection).
func (cs *connState) finish() {
	<-cs.sem
	cs.wg.Done()
}

// deliver hands an answered record to the connection's writer without ever
// blocking the executor pool: a connection whose client stopped draining
// responses while pipelining more requests is killed rather than allowed
// to pin an executor. The writer keeps draining the channel until the
// connection goroutine closes it, so a successful send never leaks; a
// dropped record is left to the garbage collector.
func (cs *connState) deliver(r *request, st *SchedStats) {
	cs.owed.Add(-1)
	select {
	case cs.responses <- r:
	default:
		if cs.killed.CompareAndSwap(false, true) {
			st.SlowClientDrops.Add(1)
			cs.kill()
		}
	}
}

// scheduler is the server's M:N request plane: N connections' readers
// admit decoded requests into one bounded queue; M slot-bound executors
// drain it. Connections therefore hold no registry slot — only executors
// (and system threads like the WAL snapshotter) do, so live connections
// are bounded by file descriptors, not MaxThreads.
type scheduler struct {
	tasks     chan task
	block     bool // AdmitBlock
	executors int  // requested pool size (cap on slots bound)
	bound     atomic.Int64
	stats     SchedStats
	rec       *trace.Recorder

	start sync.Once
	wg    sync.WaitGroup
	stop  sync.Once
}

// newScheduler validates the knobs and builds the (not yet running)
// plane. The caller has already resolved and clamped executors.
func newScheduler(executors, queueDepth int, admission string) *scheduler {
	if queueDepth <= 0 {
		queueDepth = 1024
	}
	return &scheduler{
		tasks:     make(chan task, queueDepth),
		block:     admission == AdmitBlock,
		executors: executors,
	}
}

// admit queues a task carrying n requests. It returns false when the task
// was refused (AdmitReject with a full queue); the caller answers its
// requests StatusOverloaded. Under AdmitBlock it parks until space frees —
// the per-connection backpressure path — and always returns true.
func (s *scheduler) admit(t task, n int) bool {
	if s.block {
		s.tasks <- t
	} else {
		select {
		case s.tasks <- t:
		default:
			s.stats.Rejected.Add(uint64(n))
			if s.rec != nil {
				s.rec.Record(tm.Monotime(), trace.KindSchedReject, 0, s.stats.Depth(), 0)
			}
			return false
		}
	}
	s.stats.Enqueued.Add(uint64(n))
	if n > 1 {
		s.stats.Bursts.Add(1)
	}
	if s.rec != nil {
		s.rec.Record(tm.Monotime(), trace.KindSchedEnqueue, 0, s.stats.Depth(), 0)
	}
	return true
}

// run starts the executor pool (idempotent). Each executor binds one
// registry slot for the pool's lifetime — the M in M:N. Slots are claimed
// without blocking so a registry already crowded by system threads yields
// a smaller pool instead of a hung server; at least one executor always
// starts (blocking for its slot if it must) so the queue drains.
func (s *scheduler) run(srv *Server) {
	s.start.Do(func() {
		s.rec = srv.reg.Recorder().ForSource(trace.SchedSource) // nil when tracing is off
		for i := 0; i < s.executors; i++ {
			var th *tm.Thread
			if i == 0 {
				th = srv.reg.NewThread()
			} else {
				var ok bool
				if th, ok = srv.reg.TryNewThread(); !ok {
					break
				}
			}
			if srv.cfg.WrapThread != nil {
				srv.cfg.WrapThread(th)
			}
			s.bound.Add(1)
			s.wg.Add(1)
			go s.executor(srv, th)
		}
	})
}

// executor is one slot-bound worker: it owns th exclusively and drains
// the shared queue until shutdown closes it.
func (s *scheduler) executor(srv *Server, th *tm.Thread) {
	defer s.wg.Done()
	defer th.Close()
	for t := range s.tasks {
		if t.r != nil {
			s.execute(srv, th, t.r)
			continue
		}
		for r := s.next(t.b, t.back); r != nil; r = s.next(t.b, t.back) {
			s.execute(srv, th, r)
		}
	}
}

// next takes b's front, or its back for a help task; nil once b is empty.
// While two or more requests remain, and more than tasks hold b, it offers
// the back to another executor; a full queue drops the offer.
func (s *scheduler) next(b *burst, back bool) *request {
	b.mu.Lock()
	left := len(b.reqs) - b.head
	if left == 0 {
		b.tasks--
		if b.tasks == 0 {
			b.reqs, b.head = b.reqs[:0], 0
			defer burstPool.Put(b) // after the unlock
		}
		b.mu.Unlock()
		return nil
	}
	r := b.reqs[b.head]
	if back {
		r = b.reqs[len(b.reqs)-1]
		b.reqs = b.reqs[:len(b.reqs)-1]
	} else {
		b.head++
	}
	if left-1 > b.tasks {
		// Under b.mu, b's unstarted requests keep the queue open.
		select {
		case s.tasks <- task{b: b, back: true}:
			b.tasks++
		default:
		}
	}
	b.mu.Unlock()
	return r
}

// execute runs one request on th and hands its response to the writer.
func (s *scheduler) execute(srv *Server, th *tm.Thread, r *request) {
	s.stats.Dispatched.Add(1)
	r.span.Mark(trace.StageDispatch)
	if s.rec != nil {
		// Queue wait, from the two stamps the span holds anyway.
		waited := r.span.Stamp[trace.StageDispatch] - r.span.Stamp[trace.StageEnqueue]
		s.rec.Record(tm.Monotime(), trace.KindSchedDispatch, 0, waited, 0)
	}
	if srv.preExec != nil {
		srv.preExec(r.ops)
	}
	r.span.Mark(trace.StageExecStart)
	srv.execute(th, r, &r.span)
	// From here the record is the writer's, then the next request's.
	span, c := r.span, r.c
	c.deliver(r, &s.stats)
	span.Mark(trace.StageRespond)
	srv.spans.Observe(&span)
	srv.slow.Observe(&span)
	s.stats.Completed.Add(1)
	c.finish()
}

// shutdown stops the pool after every connection has drained: the queue
// closes, executors finish their current task, and their registry slots
// release. Safe to call repeatedly and before run.
func (s *scheduler) shutdown() {
	s.stop.Do(func() { close(s.tasks) })
	s.wg.Wait()
}
