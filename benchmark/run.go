package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"nztm/internal/kv"
)

// config is one run of one workload.
type config struct {
	w       *workload
	seed    uint64
	seconds float64   // measured window of the untraced pass
	outDir  string    // WAL directories and span files go here
	log     io.Writer // the human-readable report
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is what a run hands back to the driver.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
}

// generated is everything derived from the seed before timing starts.
type generated struct {
	keys    []string
	streams []stream
	fill    []byte
}

func generate(w *workload, seed uint64) generated {
	return generated{keys: w.keyset(), streams: w.genStreams(seed), fill: filler(seed)}
}

// passResult is one served pass: set-up, a measured window, the
// correctness checks.
type passResult struct {
	setups   []float64 // seconds, one per set-up repetition
	heapMB   float64   // live heap after set-up and a GC
	load     loadResult
	edges    []snapshot // window open, window close (only when asked for)
	checked  int        // keys read back after the run (and after reopen)
	bad      int        // of those, wrong
	firstErr error
	recovery time.Duration // WAL recovery at the reopen check (durable)
}

// setUp brings the workload's stack up once, to the point where a client
// could send its first measured request, and says how long that took:
// backend open → store built, or WAL opened and recovered in a fresh
// directory → listener → dials → the whole keyspace preloaded over the wire.
func setUp(cfg config, g generated, tr *tracer) (st *stack, dir string, seconds float64, err error) {
	t0 := time.Now()
	if cfg.w.durable {
		if dir, err = newDataDir(cfg.outDir, cfg.w.name); err != nil {
			return nil, "", 0, err
		}
	}
	if st, err = openStack(cfg.w, g.keys, g.fill, dir, tr); err != nil {
		os.RemoveAll(dir)
		return nil, "", 0, err
	}
	return st, dir, time.Since(t0).Seconds(), nil
}

// servedPass brings the stack up, drives the workload through it for the
// measured window, then checks the final state through the server and, for
// a durable store, again after closing it and recovering it from its
// directory. The end-to-end pass (edges false) repeats the set-up to time
// it and touches nothing while the window is open; the per-layer passes
// (edges true) set up once and snapshot every counter as the window opens
// and closes. tr, when non-nil, installs the tracing wrappers.
func servedPass(cfg config, g generated, measured time.Duration, tr *tracer, edges bool) (passResult, error) {
	var res passResult
	w := cfg.w
	reps := 1
	if !edges {
		reps = w.setups
	}
	var st *stack
	var dir string
	for rep := 0; rep < reps; rep++ {
		if st != nil { // only the last set-up serves the window
			err := st.close()
			os.RemoveAll(dir)
			if err != nil {
				return res, fmt.Errorf("set-up %d teardown: %w", rep-1, err)
			}
		}
		var took float64
		var err error
		if st, dir, took, err = setUp(cfg, g, tr); err != nil {
			return res, fmt.Errorf("set-up %d: %w", rep, err)
		}
		res.setups = append(res.setups, took)
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapMB = float64(ms.HeapAlloc) / (1 << 20)

	t := timingFor(measured)
	lanes := newLanes(w, g, st.clients, t, tr)
	var edge func()
	if edges {
		edge = func() {
			if tr != nil {
				tr.on.Store(len(res.edges) == 0) // keep spans of the measured window only
			}
			res.edges = append(res.edges, takeSnapshot(st, tr))
		}
	}
	drive(lanes, t, edge)
	res.load = collect(lanes, t)
	res.firstErr = res.load.firstErr

	reqs := make([]*requester, len(lanes))
	for i, l := range lanes {
		reqs[i] = l.req
	}
	note := func(checked, bad int, err error) {
		res.checked += checked
		res.bad += bad
		if res.firstErr == nil {
			res.firstErr = err
		}
	}
	note(verifyFinal(st.clients[0].Do, g.keys, reqs))
	if err := st.close(); err != nil {
		return res, fmt.Errorf("teardown: %w", err)
	}
	if w.durable {
		// The durability check: only what the directory proves survives.
		c, err := openCore(dir, w.device(), nil)
		if err != nil {
			return res, fmt.Errorf("reopen %s: %w", dir, err)
		}
		res.recovery = c.rec.Duration
		th := c.backend.NewThread()
		note(verifyFinal(func(ops []kv.Op) ([]kv.Result, error) { return c.direct(th, ops) }, g.keys, reqs))
		th.Close()
		if err := c.store.Close(); err != nil {
			return res, fmt.Errorf("close after reopen: %w", err)
		}
	}
	return res, nil
}

// verifyFinal reads every key back through get, batchOps at a time, and
// checks that it holds its own last acknowledged value: the value names
// the key; if it names a lane, it is that lane's last acknowledged write to
// the key (or a later one, if that lane had a request fail after it may
// have committed); if it names the preload, no lane ever wrote the key.
func verifyFinal(get func([]kv.Op) ([]kv.Result, error), keys []string, lanes []*requester) (checked, bad int, first error) {
	fail := func(err error) {
		bad++
		if first == nil {
			first = err
		}
	}
	ops := make([]kv.Op, 0, batchOps)
	for lo := 0; lo < len(keys); lo += batchOps {
		ops = ops[:0]
		for k := lo; k < lo+batchOps && k < len(keys); k++ {
			ops = append(ops, kv.Op{Kind: kv.OpGet, Key: keys[k]})
		}
		checked += len(ops)
		res, err := get(ops)
		if err != nil || len(res) != len(ops) {
			bad += len(ops)
			if first == nil {
				first = fmt.Errorf("final scan of keys %d..%d: %d results, %v", lo, lo+len(ops)-1, len(res), err)
			}
			continue
		}
		for i := range res {
			k := uint32(lo + i)
			key, lane, seq, ok := readHeader(res[i].Value)
			switch {
			case !res[i].Found || !ok || key != k:
				fail(fmt.Errorf("final: key %s does not hold a value of its own", keys[k]))
			case lane == preloadLane:
				for _, r := range lanes {
					if r.acked[k] != 0 {
						fail(fmt.Errorf("final: key %s lost lane %d's acknowledged write %d", keys[k], r.lane, r.acked[k]))
						break
					}
				}
			case int(lane) >= len(lanes):
				fail(fmt.Errorf("final: key %s names lane %d of %d", keys[k], lane, len(lanes)))
			default:
				r := lanes[lane]
				if seq != r.acked[k] && !(r.failed > 0 && seq > r.acked[k] && seq <= r.seq) {
					fail(fmt.Errorf("final: key %s holds lane %d's write %d, its last acknowledged write there is %d",
						keys[k], lane, seq, r.acked[k]))
				}
			}
		}
	}
	return checked, bad, first
}

// runEndToEnd is the untraced pass: the end-to-end metrics.
func runEndToEnd(cfg config) (report, error) {
	g := generate(cfg.w, cfg.seed)
	measured := time.Duration(cfg.seconds * float64(time.Second))
	res, err := servedPass(cfg, g, measured, nil, false)
	if err != nil {
		return report{}, err
	}
	printPass(cfg.log, "end-to-end", res, timingFor(measured))
	ld := res.load
	return newReport(cfg.log, []metric{
		{"throughput_rps", ld.rps, "1/s"},
		{"setup_s", median(res.setups), "s"},
	}, res), nil
}

// newReport adds up the passes' requests, checks and failures: a run is
// correct when none of them failed anything.
func newReport(log io.Writer, ms []metric, passes ...passResult) report {
	rep := report{metrics: ms}
	var first error
	for _, p := range passes {
		rep.attempted += p.load.attempted + p.checked
		rep.failed += p.load.failed + p.bad
		if first == nil {
			first = p.firstErr
		}
	}
	rep.correct = rep.failed == 0 && first == nil
	if first != nil {
		fmt.Fprintf(log, "FIRST FAILURE: %v\n", first)
	}
	return rep
}

// printPass writes one pass's human-readable lines.
func printPass(w io.Writer, label string, res passResult, t timing) {
	ld := res.load
	fmt.Fprintf(w, "%s pass: warm-up %v, %d slices of %v\n", label, t.warmup, nSlices, t.slice)
	fmt.Fprintf(w, "  requests=%d failures=%d samples=%d  final-state keys checked=%d wrong=%d\n",
		ld.attempted, ld.failed, ld.samples, res.checked, res.bad)
	fmt.Fprintf(w, "  throughput_rps=%.1f latency p50=%.2fus p95=%.2fus (medians of slices)\n",
		ld.rps, ld.p50us, ld.p95us)
	if len(res.setups) > 1 {
		q1, q3 := quartiles(res.setups)
		fmt.Fprintf(w, "  setup_s=%.5f (median of %d set-ups, quartiles %.5f..%.5f)\n", median(res.setups), len(res.setups), q1, q3)
	}
	fmt.Fprintf(w, "  window: mean=%.2fus p99=%.2fus max=%.2fus  slice spread: throughput=%.4f p95=%.4f\n",
		ld.meanUs, ld.p99us, ld.maxUs, ld.spreadRps, ld.spreadP95)
	fmt.Fprintf(w, "  slices (rps / p50us / p95us):")
	for _, s := range ld.slices {
		fmt.Fprintf(w, " %.0f/%.1f/%.1f", s.rps, s.p50us, s.p95us)
	}
	fmt.Fprintln(w)
	if !ld.p95Support {
		fmt.Fprintf(w, "  WARNING: a slice has fewer than %d samples beyond its p95; the p95 is not supported by this run\n", minBeyond)
	}
	if res.recovery > 0 {
		fmt.Fprintf(w, "  reopen: recovered in %v; every key re-checked against its last acknowledged write\n", res.recovery)
	}
}
