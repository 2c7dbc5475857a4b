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
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("zero histogram must read as zero")
	}
	h.Observe(100 * time.Nanosecond)
	h.Observe(200 * time.Nanosecond)
	h.Observe(-time.Second) // clamped to 0
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 300 {
		t.Fatalf("sum = %d", h.Sum())
	}
}

// TestHistogramBucketBounds: le bounds are inclusive — a sample equal to a
// power of two is counted under that bound, not the next one up.
func TestHistogramBucketBounds(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 2, 3, 4} {
		h.ObserveValue(v)
	}
	var buf bytes.Buffer
	h.WritePromValues(&buf, "n")
	got := buf.String()
	for _, want := range []string{
		`n_bucket{le="1"} 1`,
		`n_bucket{le="2"} 2`,
		`n_bucket{le="4"} 4`,
		`n_bucket{le="+Inf"} 4`,
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("missing %q in\n%s", want, got)
		}
	}
	if n := strings.Count(got, "_bucket{"); n != 4 {
		t.Errorf("%d bucket lines, want 4:\n%s", n, got)
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
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket counts: the last non-Inf bucket must equal count.
	if !strings.Contains(out, "_bucket{system=\"NZSTM\",le=\"") {
		t.Fatalf("no finite buckets rendered:\n%s", out)
	}
	if strings.Contains(out, "_quantile") {
		t.Fatalf("quantile gauges exported:\n%s", out)
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
