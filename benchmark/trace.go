package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nztm/internal/tm"
	"nztm/internal/wal"
)

// The tracer observes the program from outside, at the public seams the
// benchmark hands it through: a forwarding tm.System around the backend, a
// counting wal.FS under the log, a counting net.Listener under the server.
// Each wrapper keeps counters (always) and spans (while recording is on and
// the lane's pre-allocated buffer has room). Nothing inside the program is
// changed; spans inside the program are a later issue.

// Span names.
const (
	spRTT       = iota // client-observed server.Client.Do (served pass)
	spKVDo             // direct kv.Store.Do call (ladder pass)
	spAtomic           // tm.System.Atomic, all attempts
	spRead             // tm.Tx.Read
	spUpdate           // tm.Tx.Update
	spDiskWrite        // wal.File.Write
	spDiskSync         // wal.File.Sync
)

var spanNames = [...]string{"server.rtt", "kv.do", "tm.atomic", "tm.read", "tm.update", "disk.write", "disk.sync"}

// spansPerLane bounds each lane's span buffer (~1 MB). A lane that fills it
// keeps counting but stops keeping spans, so the written trace is the start
// of the traced window and the counters are all of it.
const spansPerLane = 1 << 15

// span is one timed call. parent indexes the same lane's buffer (-1 = none);
// req is the request that caused the call, known only where the benchmark
// itself made the request on this goroutine (-1 otherwise: the server does
// not tell its executors' wrappers which request they serve).
type span struct {
	name       uint8
	parent     int32
	req        int64
	start, end int64 // ns since the tracer's epoch
}

// spanLane is one goroutine's span buffer. Only its owner appends.
type spanLane struct {
	label string
	spans []span
	cur   int32 // innermost open span, the parent of the next one
	req   int64 // request on whose behalf this lane is working
}

func newSpanLane(label string) spanLane {
	return spanLane{label: label, spans: make([]span, 0, spansPerLane), cur: -1, req: -1}
}

// open reserves a span that will have children and makes it the current
// parent. It returns -1 when the span is not kept.
func (l *spanLane) open(on bool, name uint8, start int64) int32 {
	if !on || len(l.spans) == cap(l.spans) {
		return -1
	}
	idx := int32(len(l.spans))
	l.spans = append(l.spans, span{name: name, parent: l.cur, req: l.req, start: start, end: start})
	l.cur = idx
	return idx
}

// close ends a span returned by open and restores its parent as current.
func (l *spanLane) close(idx int32, end int64) {
	if idx < 0 {
		return
	}
	l.spans[idx].end = end
	l.cur = l.spans[idx].parent
}

// leaf records a finished span with no children.
func (l *spanLane) leaf(on bool, name uint8, start, end int64) {
	if !on || len(l.spans) == cap(l.spans) {
		return
	}
	l.spans = append(l.spans, span{name: name, parent: l.cur, req: l.req, start: start, end: end})
}

// execLane is the tracer's state for one tm.Thread (one server executor, or
// the ladder's thread): its spans, its counters, and the reusable closure
// and Tx wrapper that keep the wrapper itself allocation-free.
type execLane struct {
	spanLane
	tr   *tracer
	fn   func(tm.Tx) error
	body func(tm.Tx) error
	tx   tracedTx

	atomics, atomicNs atomic.Int64 // Atomic calls and time inside them
	attempts, bodyNs  atomic.Int64 // runs of the transaction body; time in those that returned
	reads, readNs     atomic.Int64
	updates, updateNs atomic.Int64
}

// maxExecLanes bounds the thread ids the tracer can see. The registry hands
// out its lowest free slot, so the server's 4 executors are threads 0-3 and
// the ladder's only thread is 0.
const maxExecLanes = 8

// tracer holds every lane and counter of one traced stack.
type tracer struct {
	pass  string // "served" or "ladder", written with every span
	epoch time.Time
	on    atomic.Bool // keep spans (counters always count)

	exec [maxExecLanes]execLane

	clients []spanLane // one per load lane, appended by that lane only

	diskMu   sync.Mutex
	disk     spanLane
	diskReq  atomic.Int64 // request the single-threaded ladder is running
	stubSync bool         // Sync returns at once: our time, not the device's

	writes, writeBytes, writeNs atomic.Int64
	syncs, syncNs               atomic.Int64

	connReads, connWrites, connBytesIn, connBytesOut atomic.Int64
}

func newTracer(pass string, clientLanes int) *tracer {
	tr := &tracer{pass: pass, epoch: time.Now(), disk: newSpanLane("disk")}
	tr.diskReq.Store(-1)
	for i := range tr.exec {
		l := &tr.exec[i]
		l.tr = tr
		l.spanLane = newSpanLane(fmt.Sprintf("thread%d", i))
		l.tx.l = l
		l.body = func(tx tm.Tx) error {
			l.attempts.Add(1)
			l.tx.Tx = tx
			t0 := tr.now()
			err := l.fn(&l.tx)
			l.bodyNs.Add(tr.now() - t0)
			return err
		}
	}
	for i := 0; i < clientLanes; i++ {
		tr.clients = append(tr.clients, newSpanLane(fmt.Sprintf("client%d", i)))
	}
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// lane returns the thread's lane.
func (tr *tracer) lane(th *tm.Thread) *execLane {
	if th.ID < 0 || th.ID >= maxExecLanes {
		panic(fmt.Sprintf("benchmark: tm thread id %d outside the tracer's %d lanes", th.ID, maxExecLanes))
	}
	return &tr.exec[th.ID]
}

// tracedSystem forwards tm.System and times Atomic.
type tracedSystem struct {
	tm.System
	tr *tracer
}

func (s *tracedSystem) Atomic(th *tm.Thread, fn func(tm.Tx) error) error {
	l := s.tr.lane(th)
	l.fn = fn
	t0 := s.tr.now()
	idx := l.open(s.tr.on.Load(), spAtomic, t0)
	err := s.System.Atomic(th, l.body)
	t1 := s.tr.now()
	l.close(idx, t1)
	l.atomics.Add(1)
	l.atomicNs.Add(t1 - t0)
	return err
}

// tracedTx forwards tm.Tx and times each call. An aborting Read or Update
// leaves by panic, so its time (and the rest of that attempt's) is counted
// in tm.atomic but not as a read, an update or body time: the per-op means
// are means over calls that returned, and an aborted attempt is tm's cost.
type tracedTx struct {
	tm.Tx
	l *execLane
}

func (t *tracedTx) Read(o tm.Object) tm.Data {
	l := t.l
	t0 := l.tr.now()
	d := t.Tx.Read(o)
	t1 := l.tr.now()
	l.reads.Add(1)
	l.readNs.Add(t1 - t0)
	l.leaf(l.tr.on.Load(), spRead, t0, t1)
	return d
}

func (t *tracedTx) Update(o tm.Object, fn func(tm.Data)) {
	l := t.l
	t0 := l.tr.now()
	t.Tx.Update(o, fn)
	t1 := l.tr.now()
	l.updates.Add(1)
	l.updateNs.Add(t1 - t0)
	l.leaf(l.tr.on.Load(), spUpdate, t0, t1)
}

// tmTotals sums the per-thread counters.
type tmTotals struct {
	atomics, atomicNs, attempts, bodyNs, reads, readNs, updates, updateNs int64
}

func (tr *tracer) tmTotals() tmTotals {
	var t tmTotals
	for i := range tr.exec {
		l := &tr.exec[i]
		t.atomics += l.atomics.Load()
		t.atomicNs += l.atomicNs.Load()
		t.attempts += l.attempts.Load()
		t.bodyNs += l.bodyNs.Load()
		t.reads += l.reads.Load()
		t.readNs += l.readNs.Load()
		t.updates += l.updates.Load()
		t.updateNs += l.updateNs.Load()
	}
	return t
}

func (a tmTotals) sub(b tmTotals) tmTotals {
	return tmTotals{a.atomics - b.atomics, a.atomicNs - b.atomicNs, a.attempts - b.attempts, a.bodyNs - b.bodyNs,
		a.reads - b.reads, a.readNs - b.readNs, a.updates - b.updates, a.updateNs - b.updateNs}
}

// tracedFS counts and times every Write and Sync the log issues on dev, at
// the device boundary.
func tracedFS(dev wal.FS, tr *tracer) wal.FS {
	return wrapFS{FS: dev, wrap: func(f wal.File) wal.File { return &tracedFile{File: f, tr: tr} }}
}

type tracedFile struct {
	wal.File
	tr *tracer
}

func (f *tracedFile) Write(p []byte) (int, error) {
	tr := f.tr
	t0 := tr.now()
	n, err := f.File.Write(p)
	t1 := tr.now()
	tr.writes.Add(1)
	tr.writeBytes.Add(int64(n))
	tr.writeNs.Add(t1 - t0)
	tr.diskLeaf(spDiskWrite, t0, t1)
	return n, err
}

func (f *tracedFile) Sync() error {
	tr := f.tr
	t0 := tr.now()
	var err error
	if !tr.stubSync {
		err = f.File.Sync()
	}
	t1 := tr.now()
	tr.syncs.Add(1)
	tr.syncNs.Add(t1 - t0)
	tr.diskLeaf(spDiskSync, t0, t1)
	return err
}

// diskLeaf records a device span. File calls come from whichever request's
// goroutine drains the log, so the lane is shared and locked; the lock is
// taken only while spans are kept.
func (tr *tracer) diskLeaf(name uint8, t0, t1 int64) {
	if !tr.on.Load() {
		return
	}
	tr.diskMu.Lock()
	tr.disk.req = tr.diskReq.Load()
	tr.disk.leaf(true, name, t0, t1)
	tr.diskMu.Unlock()
}

// countingListener hands the server connections that count the reads,
// writes and bytes it moves: the syscall boundary of the server layer.
type countingListener struct {
	net.Listener
	tr *tracer
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, tr: l.tr}, nil
}

type countingConn struct {
	net.Conn
	tr *tracer
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tr.connReads.Add(1)
	c.tr.connBytesIn.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tr.connWrites.Add(1)
	c.tr.connBytesOut.Add(int64(n))
	return n, err
}

// writeSpans appends every kept span to path as one JSON object per line.
// Span ids are "<lane>/<index>"; parent is "" at a root.
func (tr *tracer) writeSpans(path string, truncate bool) (int, error) {
	flag := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if truncate {
		flag |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	n := 0
	dump := func(l *spanLane) {
		for i, s := range l.spans {
			parent := ""
			if s.parent >= 0 {
				parent = fmt.Sprintf("%s/%d", l.label, s.parent)
			}
			fmt.Fprintf(w, `{"pass":%q,"id":"%s/%d","parent":%q,"name":%q,"req":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				tr.pass, l.label, i, parent, spanNames[s.name], s.req, s.start, s.end)
			n++
		}
	}
	for i := range tr.clients {
		dump(&tr.clients[i])
	}
	for i := range tr.exec {
		dump(&tr.exec[i].spanLane)
	}
	dump(&tr.disk)
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
