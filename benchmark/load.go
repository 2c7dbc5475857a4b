package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"nztm/internal/server"
)

// nSlices is how many equal slices a measured window is cut into. Every
// end-to-end metric is the median of its per-slice values, so a burst from
// a noisy neighbour moves one slice and not the result.
const nSlices = 10

// sampleUnit is the latency resolution: samples are stored as ns/16 in a
// uint32 (62.5 ns steps, 68 s range), exact enough that no quantile is
// limited by its container.
const sampleUnit = 16

// maxRate sizes the pre-allocated sample buffers: requests per second, all
// lanes together, that a run may complete before samples would be lost (a
// lost sample is reported as a failure, never dropped silently).
const maxRate = 150_000

// loadLane is one closed-loop caller: it sends its next request only when
// the previous reply has arrived.
type loadLane struct {
	req *requester
	cli *server.Client
	id  int64     // lane number in the high bits of its request ids
	tr  *tracer   // nil when untraced
	rec *spanLane // the lane's server.rtt spans when traced

	samples []uint32 // latency of every OK request, in completion order
	// marks[i] is len(samples) at boundary i: 0 ends the warm-up, i ends
	// slice i.
	marks     []int
	attempted int // requests completed inside the measured window
	failed    int
	firstErr  error
}

// timing is one run's clock: a warm-up, then nSlices slices.
type timing struct {
	warmup, slice time.Duration
}

// timingFor splits a measured window of the given length into slices and
// picks the warm-up: 3 s, or a quarter of a window shorter than 12 s (the
// heap reaches its steady size and the connections their steady batching
// within the first second or two).
func timingFor(measured time.Duration) timing {
	w := 3 * time.Second
	if measured/4 < w {
		w = measured / 4
	}
	return timing{warmup: w, slice: measured / nSlices}
}

func (t timing) total() time.Duration { return t.warmup + nSlices*t.slice }

// newLanes builds the workload's lanes over the given connections: lane l
// uses connection l mod conns, so each connection carries window lanes.
func newLanes(w *workload, g generated, clients []*server.Client, t timing, tr *tracer) []*loadLane {
	per := int(t.total().Seconds()*maxRate)/w.lanes() + 1024
	lanes := make([]*loadLane, w.lanes())
	for l := range lanes {
		lanes[l] = &loadLane{
			req:     newRequester(w, g.keys, &g.streams[l], l, g.fill),
			cli:     clients[l%len(clients)],
			id:      int64(l) << 40,
			tr:      tr,
			samples: make([]uint32, 0, per),
			marks:   make([]int, 0, nSlices+1),
		}
		if tr != nil {
			lanes[l].rec = &tr.clients[l]
		}
	}
	return lanes
}

// run drives the lane until the last boundary has passed.
func (l *loadLane) run(bounds []time.Time) {
	next := 0
	for n := int64(0); ; n++ {
		ops := l.req.build()
		t0 := time.Now()
		res, err := l.cli.Do(ops)
		t1 := time.Now()
		// A request belongs to the slice it completed in.
		for next < len(bounds) && !t1.Before(bounds[next]) {
			l.marks = append(l.marks, len(l.samples))
			next++
		}
		if next == len(bounds) {
			// Completed after the window closed: still a real request
			// whose writes landed, so check and record it, but count
			// nothing.
			if err == nil {
				err = l.req.check(res)
			}
			if err != nil {
				l.fail(err)
			}
			return
		}
		if err == nil {
			err = l.req.check(res)
		}
		if next > 0 {
			l.attempted++
		}
		switch {
		case err != nil:
			if next > 0 {
				l.failed++
			}
			l.fail(err)
		case len(l.samples) == cap(l.samples):
			l.failed++
			l.fail(fmt.Errorf("sample buffer full after %d requests: raise maxRate", len(l.samples)))
			return
		default:
			l.samples = append(l.samples, uint32(t1.Sub(t0)/sampleUnit))
			if l.tr != nil {
				l.rec.req = l.id | n
				l.rec.leaf(l.tr.on.Load(), spRTT, int64(t0.Sub(l.tr.epoch)), int64(t1.Sub(l.tr.epoch)))
			}
		}
	}
}

func (l *loadLane) fail(err error) {
	l.req.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// drive runs every lane through warm-up and the measured window, calling
// edge (when non-nil) as the window opens and again as it closes — the two
// instants between which counter deltas are taken.
func drive(lanes []*loadLane, t timing, edge func()) {
	start := time.Now()
	bounds := make([]time.Time, nSlices+1)
	for i := range bounds {
		bounds[i] = start.Add(t.warmup + time.Duration(i)*t.slice)
	}
	var wg sync.WaitGroup
	for _, l := range lanes {
		wg.Add(1)
		go func(l *loadLane) {
			defer wg.Done()
			l.run(bounds)
		}(l)
	}
	if edge != nil {
		time.Sleep(time.Until(bounds[0]))
		edge()
		time.Sleep(time.Until(bounds[nSlices]))
		edge()
	}
	wg.Wait()
}

// sliceStat is one slice's view of the run.
type sliceStat struct {
	n          int     // OK requests completed in the slice
	rps        float64 // n ÷ slice length
	p50us      float64
	p95us      float64
	p95Support bool // at least minBeyond samples lie beyond the p95
}

// loadResult is what one measured window produced.
type loadResult struct {
	slices    []sliceStat
	attempted int
	failed    int
	samples   int // latency samples in the measured window
	firstErr  error

	// Medians over slices: the end-to-end metrics.
	rps, p50us, p95us float64
	// Whole-window figures: instrument health and the trace's base.
	meanUs, p99us, maxUs float64
	spreadRps, spreadP95 float64
	p95Support           bool
}

func toUs(v uint32) float64 { return float64(v) * sampleUnit / 1000 }

// collect cuts the lanes' samples into slices and aggregates.
func collect(lanes []*loadLane, t timing) loadResult {
	var r loadResult
	r.p95Support = true
	var all []uint32
	rps, p50, p95 := make([]float64, nSlices), make([]float64, nSlices), make([]float64, nSlices)
	for i := 0; i < nSlices; i++ {
		var s []uint32
		for _, l := range lanes {
			if len(l.marks) > i+1 {
				s = append(s, l.samples[l.marks[i]:l.marks[i+1]]...)
			}
		}
		slices.Sort(s)
		st := sliceStat{n: len(s), rps: float64(len(s)) / t.slice.Seconds()}
		v50, _ := quantile(s, 0.50)
		v95, ok := quantile(s, 0.95)
		st.p50us, st.p95us, st.p95Support = toUs(v50), toUs(v95), ok
		r.p95Support = r.p95Support && ok
		r.slices = append(r.slices, st)
		rps[i], p50[i], p95[i] = st.rps, st.p50us, st.p95us
		all = append(all, s...)
	}
	for _, l := range lanes {
		r.attempted += l.attempted
		r.failed += l.failed
		if r.firstErr == nil {
			r.firstErr = l.firstErr
		}
	}
	r.samples = len(all)
	r.rps, r.p50us, r.p95us = median(rps), median(p50), median(p95)
	r.spreadRps, r.spreadP95 = spread(rps), spread(p95)
	if len(all) > 0 {
		slices.Sort(all)
		var sum float64
		for _, v := range all {
			sum += float64(v)
		}
		r.meanUs = sum / float64(len(all)) * sampleUnit / 1000
		v99, _ := quantile(all, 0.99)
		r.p99us, r.maxUs = toUs(v99), toUs(all[len(all)-1])
	}
	return r
}
