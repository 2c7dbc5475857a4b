package main

import (
	"go/parser"
	"go/token"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"nztm/internal/kv"
)

func TestQuantileNearestRank(t *testing.T) {
	seq := func(n int) []uint32 {
		s := make([]uint32, n)
		for i := range s {
			s[i] = uint32(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want uint32
	}{
		{1, 0.5, 1}, {2, 0.5, 1}, {3, 0.5, 2}, {4, 0.5, 2}, {10, 0.5, 5},
		{10, 0.95, 10}, {20, 0.95, 19}, {100, 0.95, 95}, {100, 0.99, 99}, {101, 0.99, 100},
		{1000, 0.999, 999}, {7, 0, 1}, {7, 1, 7},
	}
	for _, c := range cases {
		if got, _ := quantile(seq(c.n), c.q); got != c.want {
			t.Errorf("quantile(1..%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("quantile of nothing is supported")
	}
}

// A percentile is reported only when at least ten samples lie beyond it.
func TestQuantileSupportGuard(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{200, 0.95, true},  // the 190th of 200: 10 beyond
		{199, 0.95, false}, // the 190th of 199: 9 beyond
		{20, 0.50, true},   // the 10th of 20: 10 beyond
		{19, 0.50, false},  // the 10th of 19: 9 beyond
		{1000, 0.99, true},
		{1000, 0.995, false},
	}
	for _, c := range cases {
		if _, ok := quantile(make([]uint32, c.n), c.q); ok != c.want {
			t.Errorf("quantile(n=%d, q=%g) supported = %v, want %v", c.n, c.q, ok, c.want)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles(3,1,4,1,5) = %g, %g, want 1, 4.5", q1, q3)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if got := maxRelDev([]float64{90, 100, 130}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("maxRelDev = %g, want 0.3", got)
	}
}

// One slow slice must not move a metric: each is the median of its ten
// per-slice values.
func TestSliceMedianAggregation(t *testing.T) {
	tm := timing{warmup: time.Second, slice: time.Second}
	l := &loadLane{}
	add := func(n int, v uint32) {
		for i := 0; i < n; i++ {
			l.samples = append(l.samples, v)
		}
	}
	add(50, 999) // warm-up: ignored
	l.marks = append(l.marks, len(l.samples))
	for s := 0; s < nSlices; s++ {
		if s == 3 { // a burst from a noisy neighbour: slow, and few requests
			add(100, 10000)
		} else {
			add(1000, 100) // 100 × 16 ns = 1.6 µs
			add(30, 500)
		}
		l.marks = append(l.marks, len(l.samples))
	}
	l.attempted = len(l.samples) - l.marks[0]
	r := collect([]*loadLane{l}, tm)
	if r.rps != 1030 {
		t.Errorf("throughput = %g, want the typical slice's 1030", r.rps)
	}
	if r.p50us != 1.6 || r.p95us != 1.6 {
		t.Errorf("p50 = %g, p95 = %g, want 1.6 (the burst slice's 160 must not show)", r.p50us, r.p95us)
	}
	if r.samples != 9*1030+100 || r.attempted != r.samples {
		t.Errorf("samples = %d attempted = %d", r.samples, r.attempted)
	}
	if r.maxUs != 160 {
		t.Errorf("max = %g, want the burst's 160", r.maxUs)
	}
	if r.p95Support {
		t.Error("the burst slice has 5 samples beyond its p95, yet p95 is reported as supported")
	}
}

func TestStreamsDeterministic(t *testing.T) {
	for i := range workloads {
		w := workloads[i]
		w.streamLen = 512
		a, b, c := w.genStreams(7), w.genStreams(7), w.genStreams(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed, two streams", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: two seeds, one stream", w.name)
		}
		if string(filler(7)) != string(filler(7)) || string(filler(7)) == string(filler(8)) {
			t.Errorf("filler does not follow the seed")
		}
	}
}

// A lane that does not share draws only keys of shards it owns, so no two
// lanes ever touch the same bucket or sequencer.
func TestLanesOwnTheirShards(t *testing.T) {
	for i := range workloads {
		w := workloads[i]
		w.streamLen = 2048
		keys := w.keyset()
		if len(keys) != w.keys {
			t.Fatalf("%s: %d keys, want %d", w.name, len(keys), w.keys)
		}
		lanes := w.lanes()
		seen := make(map[[2]int]bool)
		for k, key := range keys {
			shard, bucket := placement(key)
			if owner := k / (w.keys / lanes); shard%lanes != owner {
				t.Fatalf("%s: key %d (%s) in shard %d is grouped under lane %d", w.name, k, key, shard, owner)
			}
			if w.onePerBucket && seen[[2]int{shard, bucket}] {
				t.Fatalf("%s: two keys in shard %d bucket %d", w.name, shard, bucket)
			}
			seen[[2]int{shard, bucket}] = true
		}
		for l, st := range w.genStreams(3) {
			for _, k := range st.keyIdx {
				if shard, _ := placement(keys[k]); !w.shared && shard%lanes != l {
					t.Fatalf("%s: lane %d draws key %d of shard %d", w.name, l, k, shard)
				}
			}
		}
	}
}

// Values name their key, so a GET is checkable on its own, and a wrong
// value is caught.
func TestRequesterChecksValues(t *testing.T) {
	w := *findWorkload("mem-batch-hot")
	w.streamLen = 64
	keys, streams, fill := w.keyset(), w.genStreams(1), filler(1)
	r := newRequester(&w, keys, &streams[0], 0, fill)
	ops := r.build()
	good := fakeResults(r, fill, 0)
	if err := r.check(good); err != nil {
		t.Fatalf("good results rejected: %v", err)
	}
	if r.acked[r.idx[1]] == 0 {
		t.Error("acknowledged write not recorded")
	}
	ops = r.build()
	bad := fakeResults(r, fill, 1) // every GET answers with the neighbour's value
	if err := r.check(bad); err == nil {
		t.Errorf("a GET of %s answered with another key's value passed", ops[0].Key)
	}
	bad = fakeResults(r, fill, 0)
	bad[0].Found = false
	if err := r.check(bad); err == nil {
		t.Error("a GET that found nothing passed")
	}
}

// fakeResults answers the requester's current request as a correct store
// would, except that every GET returns the value of the key shift places on.
func fakeResults(r *requester, fill []byte, shift uint32) []kv.Result {
	res := make([]kv.Result, len(r.ops))
	for i, op := range r.ops {
		res[i].Found = true
		if op.Kind == kv.OpGet {
			res[i].Value = append([]byte(nil), fill...)
			putHeader(res[i].Value, r.idx[i]+shift, preloadLane, 0)
		}
	}
	return res
}

// The benchmark may lean on exactly the packages its README lists; a
// refactor of anything else cannot break it.
func TestImportFence(t *testing.T) {
	allowed := map[string]bool{
		"nztm/internal/kv": true, "nztm/internal/server": true, "nztm/internal/tm": true,
		"nztm/internal/wal": true, "nztm/internal/trace": true,
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if strings.HasPrefix(path, "nztm") && !allowed[path] {
					t.Errorf("%s imports %s, which is outside the benchmark's declared API", name, path)
				}
			}
		}
	}
}

// Every metric BENCHMARK.json names is printed exactly once, with its unit,
// by a short run of every workload in both modes, and the checks pass.
func TestSmokeAllWorkloadsPrintTheManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for 300 ms")
	}
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != gated {
		t.Fatalf("manifest lists %d workloads, the program gates %d", len(m.Workloads), gated)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("manifest run_seconds = %d, program default = %d", m.RunSeconds, defaultSeconds)
	}
	for i, mw := range m.Workloads {
		w := workloads[i]
		if mw.Name != w.name {
			t.Fatalf("manifest workload %d is %q, the program's is %q", i, mw.Name, w.name)
		}
		if w.keys > 2048 {
			w.keys = 2048 // a 16384-key durable preload alone takes a second
		}
		w.streamLen = 1024
		w.setups = 3
		for _, mode := range []struct {
			name string
			run  func(config) (report, error)
			want []manifestMetric
		}{{"end-to-end", runEndToEnd, m.EndToEnd}, {"per-layer", runLayers, m.PerLayer}} {
			cfg := config{w: &w, seed: 42, seconds: 0.3, outDir: t.TempDir(), log: io.Discard}
			rep, err := mode.run(cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, mode.name, err)
			}
			if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d", w.name, mode.name, rep.correct, rep.attempted, rep.failed)
			}
			got := make(map[string]string)
			val := make(map[string]float64)
			for _, x := range rep.metrics {
				if _, dup := got[x.name]; dup {
					t.Errorf("%s %s: %s printed twice", w.name, mode.name, x.name)
				}
				got[x.name] = x.unit
				val[x.name] = x.value
				if math.IsNaN(x.value) || math.IsInf(x.value, 0) {
					t.Errorf("%s %s: %s = %v", w.name, mode.name, x.name, x.value)
				}
			}
			for _, x := range mode.want {
				if unit, ok := got[x.Name]; !ok {
					t.Errorf("%s %s: %s not printed", w.name, mode.name, x.Name)
				} else if unit != x.Unit {
					t.Errorf("%s %s: %s printed in %q, manifest says %q", w.name, mode.name, x.Name, unit, x.Unit)
				}
				delete(got, x.Name)
			}
			for name := range got {
				t.Errorf("%s %s: %s printed but not in the manifest", w.name, mode.name, name)
			}
			if _, err := rep.json(); err != nil {
				t.Errorf("%s %s: %v", w.name, mode.name, err)
			}
			// placement() is a copy of the store's rule. If the store's
			// drifts, lanes stop owning their shards and the traced pass
			// sees transactions meet. Any abort makes commit_ratio < 1
			// exactly; the two counters behind attempts per request are
			// read a few requests apart, and a 300 ms durable window has
			// only some sixty requests: hence its margin.
			if mode.name == "per-layer" && (val["tm.commit_ratio"] != 1 || math.Abs(val["kv.attempts_per_req"]-1) > 0.05) {
				t.Errorf("%s: tm.commit_ratio = %g, kv.attempts_per_req = %g: lanes' transactions conflict, so key placement no longer matches the store's",
					w.name, val["tm.commit_ratio"], val["kv.attempts_per_req"])
			}
		}
	}
}
