package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"nztm/internal/tm"
	"nztm/internal/trace"
)

// The per-layer pass. Layers are this repository's packages, outside in:
// proc (the whole process), server, kv, tm (internal/core behind it), wal,
// disk (the device under wal.FS), plus e2e/trace rows that say whether the
// run itself can be trusted. Three sources, all outside the program:
// spans and counts from the benchmark's own wrappers (trace.go), deltas of
// counters the program already exports, and a direct-call ladder.

// stageIndex maps the server's span-stage names to their indices by asking
// trace.StageName, so the benchmark depends on the names and not on the
// constants' values.
var stageIndex = func() map[string]int {
	m := make(map[string]int)
	for i := 0; trace.StageName(i) != "unknown"; i++ {
		m[trace.StageName(i)] = i
	}
	return m
}()

// snapshot is every cumulative counter the per-layer metrics are deltas of,
// read at one instant.
type snapshot struct {
	cpu                         time.Duration // rusage user+sys of the process
	mallocs, allocBytes         uint64
	gcPauseNs                   uint64
	tm                          tm.StatsView
	rejected                    uint64
	stageSum                    map[string]uint64 // ns per stage name
	totalSum                    uint64
	walFrames, walBytes, fsyncs uint64
	cohortSum, cohortCount      uint64
	wrap                        tmTotals
	writes, writeBytes, writeNs int64
	syncs, syncNs               int64
	connReads, connWrites       int64
	connBytesIn, connBytesOut   int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSnapshot(st *stack, tr *tracer) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snapshot{
		cpu:        cpuTime(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPauseNs:  ms.PauseTotalNs,
		tm:         st.store.System().Stats().View(),
		rejected:   st.srv.SchedStats().Rejected.Load(),
		stageSum:   make(map[string]uint64, len(stageIndex)),
	}
	sp := st.srv.Spans()
	for name, i := range stageIndex {
		s.stageSum[name] = sp.Stage(i).Sum()
	}
	s.totalSum = sp.Total().Sum()
	if log := st.store.WAL(); log != nil {
		ws := log.Stats()
		s.walFrames, s.walBytes, s.fsyncs = ws.AppendedFrames.Load(), ws.AppendedBytes.Load(), ws.Fsyncs.Load()
		s.cohortSum, s.cohortCount = ws.FsyncCohortFrames.Sum(), ws.FsyncCohortFrames.Count()
	}
	if tr != nil {
		s.wrap = tr.tmTotals()
		s.writes, s.writeBytes, s.writeNs = tr.writes.Load(), tr.writeBytes.Load(), tr.writeNs.Load()
		s.syncs, s.syncNs = tr.syncs.Load(), tr.syncNs.Load()
		s.connReads, s.connWrites = tr.connReads.Load(), tr.connWrites.Load()
		s.connBytesIn, s.connBytesOut = tr.connBytesIn.Load(), tr.connBytesOut.Load()
	}
	return s
}

// ratio is a/b, 0 when b is 0 (a layer that is not on the workload's path
// reports zeros, never NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ladder replays the workload's request streams single-threaded straight
// into kv.Store.Do — no server, no second goroutine, no contention — for
// dur, and returns the mean microseconds per request. With the tracing
// wrappers installed it is also the one pass where the benchmark makes
// every call itself, so its spans carry request ids and parents all the
// way down. durable selects a kv.NewDurable store whose Sync is stubbed:
// the log's own work without the device's.
func ladder(cfg config, g generated, dur time.Duration, durable bool) (meanUs float64, tr *tracer, err error) {
	w := cfg.w
	tr = newTracer("ladder", 0)
	tr.stubSync = true
	dir := ""
	if durable {
		if dir, err = newDataDir(cfg.outDir, w.name+"-ladder"); err != nil {
			return 0, nil, err
		}
		defer os.RemoveAll(dir)
	}
	c, err := openCore(dir, w.device(), tr)
	if err != nil {
		return 0, nil, err
	}
	defer c.store.Close()
	th := c.backend.NewThread()
	defer th.Close()
	for i := 0; i*batchOps < len(g.keys); i++ {
		if _, err := c.direct(th, preloadOps(g.keys, g.fill, i)); err != nil {
			return 0, nil, fmt.Errorf("ladder preload: %w", err)
		}
	}
	reqs := make([]*requester, w.lanes())
	for l := range reqs {
		reqs[l] = newRequester(w, g.keys, &g.streams[l], l, g.fill)
	}
	lane := tr.lane(th)
	runtime.GC()
	tr.on.Store(true)
	var n int64
	var busy time.Duration
	for start := time.Now(); time.Since(start) < dur; n++ {
		r := reqs[n%int64(len(reqs))]
		ops := r.build()
		lane.req = n
		tr.diskReq.Store(n)
		t0 := tr.now()
		idx := lane.open(true, spKVDo, t0)
		res, err := c.direct(th, ops)
		t1 := tr.now()
		lane.close(idx, t1)
		busy += time.Duration(t1 - t0)
		if err == nil {
			err = r.check(res)
		}
		if err != nil {
			return 0, nil, fmt.Errorf("ladder request %d: %w", n, err)
		}
	}
	tr.on.Store(false)
	return ratio(float64(busy)/1000, float64(n)), tr, nil
}

// runLayers is the traced pass: one untraced window (the base for tracing
// overhead and for whole-process costs), one traced window, the ladder.
func runLayers(cfg config) (report, error) {
	g := generate(cfg.w, cfg.seed)
	w := cfg.w
	window := time.Duration(cfg.seconds * 0.35 * float64(time.Second))
	rung := time.Duration(cfg.seconds * 0.08 * float64(time.Second))

	plain, err := servedPass(cfg, g, window, nil, true)
	if err != nil {
		return report{}, fmt.Errorf("untraced window: %w", err)
	}
	printPass(cfg.log, "untraced", plain, timingFor(window))
	tr := newTracer("served", w.lanes())
	traced, err := servedPass(cfg, g, window, tr, true)
	if err != nil {
		return report{}, fmt.Errorf("traced window: %w", err)
	}
	printPass(cfg.log, "traced", traced, timingFor(window))

	memUs, ltr, err := ladder(cfg, g, rung, false)
	if err != nil {
		return report{}, err
	}
	ladderUs, nosyncUs := memUs, 0.0
	if w.durable {
		// Same streams into a durable store whose Sync returns at once:
		// what remains above the memory-only rung is the log's own work.
		var dtr *tracer
		if ladderUs, dtr, err = ladder(cfg, g, rung, true); err != nil {
			return report{}, err
		}
		nosyncUs = ladderUs - memUs
		ltr = dtr
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return report{}, err
	}
	path := filepath.Join(cfg.outDir, w.name+".spans.jsonl")
	kept, err := tr.writeSpans(path, true)
	if err == nil {
		var more int
		more, err = ltr.writeSpans(path, false)
		kept += more
	}
	if err != nil {
		return report{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(cfg.log, "spans: %d written to %s\n", kept, path)

	ms := layerMetrics(w, plain, traced, window, ladderUs, nosyncUs)
	printLayers(cfg, ms)
	return newReport(cfg.log, ms, plain, traced), nil
}

// layers in outside-in order, for the printed table.
var layerNames = []string{"proc", "server", "kv", "tm", "wal", "disk", "e2e", "trace"}

func layerOf(metric string) string {
	layer, _, _ := strings.Cut(metric, ".")
	return layer
}

func layerOrder(metric string) int {
	for i, l := range layerNames {
		if l == layerOf(metric) {
			return i
		}
	}
	return len(layerNames)
}

// layerMetrics turns the two windows' counter deltas and the ladder's two
// figures into the per-layer table, layers outside in. Whole-process and
// health rows come from the untraced window, so the wrappers' own cost is
// not in them; everything else from the traced one. Times are means per OK
// request of the window unless the name says per op.
func layerMetrics(w *workload, plain, traced passResult, window time.Duration, ladderUs, nosyncUs float64) []metric {
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }

	// proc: the untraced window.
	a, b := plain.edges[0], plain.edges[1]
	n := float64(plain.load.samples)
	add("proc.cpu_us_per_req", ratio(float64((b.cpu-a.cpu).Microseconds()), n), "us")
	add("proc.allocs_per_req", ratio(float64(b.mallocs-a.mallocs), n), "count")
	add("proc.alloc_bytes_per_req", ratio(float64(b.allocBytes-a.allocBytes), n), "B")
	add("proc.gc_pause_frac", ratio(float64(b.gcPauseNs-a.gcPauseNs)/1e9, window.Seconds()), "ratio")
	add("proc.heap_mb_after_setup", plain.heapMB, "MB")

	// server, kv, tm, wal, disk: the traced window.
	a, b = traced.edges[0], traced.edges[1]
	n = float64(traced.load.samples)
	perReqUs := func(ns float64) float64 { return ratio(ns/1000, n) }
	stage := func(name string) float64 { return perReqUs(float64(b.stageSum[name] - a.stageSum[name])) }
	walUs := stage("wal_append") + stage("fsync_wait") + stage("stable_wait")
	doUs := stage("tm") + walUs + stage("repl_gate")
	rtt := traced.load.meanUs
	add("server.rtt_us", rtt, "us")
	add("server.self_us", rtt-doUs, "us")
	add("server.wire_us", rtt-perReqUs(float64(b.totalSum-a.totalSum)), "us")
	add("server.decode_us", stage("decode"), "us")
	add("server.enqueue_us", stage("enqueue"), "us")
	add("server.queue_wait_us", stage("dispatch"), "us")
	add("server.exec_start_us", stage("exec_start"), "us")
	add("server.respond_us", stage("respond"), "us")
	add("server.rejected_per_kreq", ratio(1000*float64(b.rejected-a.rejected), n), "count")
	add("server.conn_reads_per_req", ratio(float64(b.connReads-a.connReads), n), "count")
	add("server.conn_writes_per_req", ratio(float64(b.connWrites-a.connWrites), n), "count")
	add("server.bytes_in_per_req", ratio(float64(b.connBytesIn-a.connBytesIn), n), "B")
	add("server.bytes_out_per_req", ratio(float64(b.connBytesOut-a.connBytesOut), n), "B")

	wr := b.wrap.sub(a.wrap)
	atomicUs := perReqUs(float64(wr.atomicNs))
	add("kv.do_us", doUs, "us")
	add("kv.self_us", doUs-atomicUs-walUs, "us")
	add("kv.closure_us", perReqUs(float64(wr.bodyNs-wr.readNs-wr.updateNs)), "us")
	add("kv.attempts_per_req", ratio(float64(wr.attempts), float64(wr.atomics)), "count")
	add("kv.ladder_do_us", ladderUs, "us")

	ts := b.tm.Delta(a.tm)
	add("tm.atomic_us", atomicUs, "us")
	add("tm.commit_us", perReqUs(float64(wr.atomicNs-wr.bodyNs)), "us")
	add("tm.read_us_per_op", ratio(float64(wr.readNs)/1000, float64(wr.reads)), "us")
	add("tm.update_us_per_op", ratio(float64(wr.updateNs)/1000, float64(wr.updates)), "us")
	add("tm.commit_ratio", ratio(float64(ts.Commits), float64(ts.Commits+ts.Aborts)), "ratio")
	add("tm.abort_requests_per_kreq", ratio(1000*float64(ts.AbortRequests), n), "count")
	add("tm.waits_per_kreq", ratio(1000*float64(ts.Waits), n), "count")
	add("tm.inflations_per_kreq", ratio(1000*float64(ts.Inflations), n), "count")
	add("tm.backup_reuse_ratio", ratio(float64(ts.BackupReuse), float64(wr.updates)), "ratio")

	userBytes := n * w.shape.putsPerRequest() * float64(keyLen+valueSize)
	add("wal.append_us", stage("wal_append"), "us")
	add("wal.fsync_wait_us", stage("fsync_wait"), "us")
	add("wal.stable_wait_us", stage("stable_wait"), "us")
	add("wal.fsyncs_per_req", ratio(float64(b.fsyncs-a.fsyncs), n), "count")
	add("wal.frame_copies_per_req", ratio(float64(b.walFrames-a.walFrames), n), "count")
	add("wal.bytes_per_user_byte", ratio(float64(b.walBytes-a.walBytes), userBytes), "ratio")
	add("wal.cohort_frames_mean", ratio(float64(b.cohortSum-a.cohortSum), float64(b.cohortCount-a.cohortCount)), "count")
	add("wal.self_us_nosync", nosyncUs, "us")
	add("wal.recovery_ms", float64(traced.recovery.Microseconds())/1000, "ms")

	add("disk.writes_per_req", ratio(float64(b.writes-a.writes), n), "count")
	add("disk.write_bytes_per_req", ratio(float64(b.writeBytes-a.writeBytes), n), "B")
	add("disk.syncs_per_req", ratio(float64(b.syncs-a.syncs), n), "count")
	add("disk.sync_us", ratio(float64(b.syncNs-a.syncNs)/1000, float64(b.syncs-a.syncs)), "us")
	add("disk.write_us", ratio(float64(b.writeNs-a.writeNs)/1000, float64(b.writes-a.writes)), "us")

	// e2e, trace: whether the run can be trusted, from the untraced window.
	add("e2e.latency_p50_us", plain.load.p50us, "us")
	add("e2e.latency_p95_us", plain.load.p95us, "us")
	add("e2e.latency_p99_us", plain.load.p99us, "us")
	add("e2e.latency_max_us", plain.load.maxUs, "us")
	add("e2e.slice_spread_throughput", plain.load.spreadRps, "ratio")
	add("e2e.slice_spread_p95", plain.load.spreadP95, "ratio")
	add("trace.overhead_frac", 1-ratio(traced.load.rps, plain.load.rps), "ratio")
	return out
}

// printLayers writes the per-layer table and two budgets. The latency
// budget splits the client-observed round trip into the layers' self times
// (server.self + kv.self + tm.atomic + wal stages = rtt by construction of
// the stage timeline; under a window of several requests most of "server"
// is waiting, server.wire_us and server.queue_wait_us). The CPU budget says
// how much of the process's CPU per request is spent inside kv.Store.Do,
// which is what bounds throughput on the saturated workloads.
func printLayers(cfg config, ms []metric) {
	get := func(name string) float64 {
		for _, m := range ms {
			if m.name == name {
				return m.value
			}
		}
		return 0
	}
	fmt.Fprintf(cfg.log, "per-layer metrics (%s):\n", cfg.w.name)
	last := ""
	for _, m := range ms {
		if l := layerOf(m.name); l != last {
			fmt.Fprintf(cfg.log, "  [%s]\n", l)
			last = l
		}
		fmt.Fprintf(cfg.log, "    %-30s %14.4f %s\n", m.name, m.value, m.unit)
	}
	rtt := get("server.rtt_us")
	walUs := get("wal.append_us") + get("wal.fsync_wait_us") + get("wal.stable_wait_us")
	fmt.Fprintf(cfg.log, "latency budget: of %.2fus round trip  server %.1f%%  kv %.1f%%  tm %.1f%%  wal+disk %.1f%%\n",
		rtt, 100*ratio(get("server.self_us"), rtt), 100*ratio(get("kv.self_us"), rtt),
		100*ratio(get("tm.atomic_us"), rtt), 100*ratio(walUs, rtt))
	cpu := get("proc.cpu_us_per_req")
	fmt.Fprintf(cfg.log, "cpu budget: of %.2fus process CPU per request  kv+tm (kv.do_us - wal waits) %.1f%%  everything else (server, client, runtime, kernel) %.1f%%\n",
		cpu, 100*ratio(get("kv.do_us")-walUs, cpu), 100-100*ratio(get("kv.do_us")-walUs, cpu))
}
