package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Quantile(0.99) != 0 || h.Mean() != 0 {
		t.Fatal("zero histogram must read as zero")
	}
	h.Observe(100 * time.Nanosecond)
	h.Observe(200 * time.Nanosecond)
	h.Observe(-time.Second) // clamped to 0
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 200*time.Nanosecond {
		t.Fatalf("max = %v", h.Max())
	}
	if h.Mean() != 100*time.Nanosecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	// Quantile is an upper bound clamped to max.
	if q := h.Quantile(1.0); q != 200*time.Nanosecond {
		t.Fatalf("p100 = %v", q)
	}
}

func TestQuantileBounds(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.ObserveValue(10) // bucket [8,16)
	}
	h.ObserveValue(1000) // bucket [512,1024)
	if q := h.QuantileValue(0.5); q < 10 || q >= 16 {
		t.Fatalf("p50 = %d, want within [10,16)", q)
	}
	if q := h.QuantileValue(0.999); q < 1000 || q > 1023 {
		t.Fatalf("p99.9 = %d, want the top bucket clamped to max", q)
	}
	p50, p95, p99 := h.Percentiles()
	if p50 > p95 || p95 > p99 {
		t.Fatalf("percentiles not monotone: %v %v %v", p50, p95, p99)
	}
}

// TestHistogramConcurrentBucketSum is the parallel-writers invariant gate
// (race-detector clean under `make check`): after any number of concurrent
// ObserveValue calls, the bucket counts must sum exactly to Count and the
// Sum must equal the arithmetic total — no sample may be lost or
// double-counted.
func TestHistogramConcurrentBucketSum(t *testing.T) {
	var h Histogram
	const writers, per = 16, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.ObserveValue(uint64(id*per+i) % 4096)
			}
		}(w)
	}
	// Concurrent readers must not race with the writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			h.QuantileValue(0.99)
			h.WriteProm(&bytes.Buffer{}, "x")
		}
	}()
	wg.Wait()
	<-done

	if h.Count() != writers*per {
		t.Fatalf("count = %d, want %d", h.Count(), writers*per)
	}
	var bucketSum uint64
	for i := 0; i < h.Buckets(); i++ {
		bucketSum += h.Bucket(i)
	}
	if bucketSum != h.Count() {
		t.Fatalf("bucket sum %d != count %d — a sample was lost or double-counted", bucketSum, h.Count())
	}
	var want uint64
	for w := 0; w < writers; w++ {
		for i := 0; i < per; i++ {
			want += uint64(w*per+i) % 4096
		}
	}
	if h.Sum() != want {
		t.Fatalf("sum = %d, want %d", h.Sum(), want)
	}
}

func TestWritePromFormat(t *testing.T) {
	var h Histogram
	h.Observe(1500 * time.Nanosecond)
	h.Observe(3 * time.Microsecond)
	var buf bytes.Buffer
	h.WriteProm(&buf, "nztm_commit_latency_seconds", "system", "NZSTM")
	out := buf.String()
	for _, want := range []string{
		"# TYPE nztm_commit_latency_seconds histogram",
		`nztm_commit_latency_seconds_bucket{system="NZSTM",le="+Inf"} 2`,
		`nztm_commit_latency_seconds_count{system="NZSTM"} 2`,
		`nztm_commit_latency_seconds_quantile{system="NZSTM",quantile="0.5"}`,
		`nztm_commit_latency_seconds_quantile{system="NZSTM",quantile="0.95"}`,
		`nztm_commit_latency_seconds_quantile{system="NZSTM",quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket counts: the last non-Inf bucket must equal count.
	if !strings.Contains(out, "_bucket{system=\"NZSTM\",le=\"") {
		t.Fatalf("no finite buckets rendered:\n%s", out)
	}
}

func TestCounterAndGauge(t *testing.T) {
	var buf bytes.Buffer
	Counter(&buf, "nztm_commits_total", 7)
	Gauge(&buf, "nztm_conns_open", 3, "addr", "x")
	out := buf.String()
	if !strings.Contains(out, "nztm_commits_total 7\n") {
		t.Fatalf("counter line wrong:\n%s", out)
	}
	if !strings.Contains(out, `nztm_conns_open{addr="x"} 3`) {
		t.Fatalf("gauge line wrong:\n%s", out)
	}
}
