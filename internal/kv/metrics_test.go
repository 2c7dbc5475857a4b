package kv

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"nztm/internal/metrics"
	"nztm/internal/tm"
)

// TestMetricsNilIsInert: a store without EnableMetrics must behave exactly
// as before — nil receivers everywhere.
func TestMetricsNilIsInert(t *testing.T) {
	be, err := OpenBackend("nzstm", 2)
	if err != nil {
		t.Fatal(err)
	}
	st := New(be.Sys, 4, 4)
	if st.Metrics() != nil {
		t.Fatal("metrics non-nil before EnableMetrics")
	}
	th := be.NewThread()
	defer th.Close()
	if _, err := st.Put(th, "k", []byte("v"), Budget{}); err != nil {
		t.Fatal(err)
	}
	var m *Metrics
	if got := m.TopK(10); got != nil {
		t.Fatalf("nil TopK = %v", got)
	}
	if got := m.OverflowAborts(); got != 0 {
		t.Fatalf("nil OverflowAborts = %d", got)
	}
	m.WriteProm(&strings.Builder{}, 10) // must not panic
}

// abortFirst is a tm.System whose every transaction's first attempt runs
// the body and then aborts, so aborts happen even where contention does
// not (one core, a loaded machine). then, when set, runs between the first
// attempt's body and its abort.
type abortFirst struct {
	tm.System
	then func()
}

func (s abortFirst) Atomic(th *tm.Thread, fn func(tm.Tx) error) error {
	first := true
	return s.System.Atomic(th, func(tx tm.Tx) error {
		err := fn(tx)
		if first {
			first = false
			if s.then != nil {
				s.then()
			}
			tm.Retry(tm.AbortRequest)
		}
		return err
	})
}

// TestMetricsHotspotAttribution: contended keys accumulate abort charges and
// surface in TopK order.
func TestMetricsHotspotAttribution(t *testing.T) {
	be, err := OpenBackend("nzstm", 8)
	if err != nil {
		t.Fatal(err)
	}
	st := New(abortFirst{System: be.Sys}, 2, 1) // tiny geometry: every key contends
	m := st.EnableMetrics()
	if st.EnableMetrics() != m {
		t.Fatal("EnableMetrics not idempotent")
	}

	const workers = 8
	var wg sync.WaitGroup
	stop := time.Now().Add(150 * time.Millisecond)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := be.NewThread()
			defer th.Close()
			for time.Now().Before(stop) {
				st.Put(th, "hot", []byte("v"), Budget{})
			}
		}(w)
	}
	wg.Wait()

	top := m.TopK(1)
	if len(top) != 1 || top[0].Key != "hot" || top[0].Aborts == 0 {
		t.Fatalf("TopK(1) = %+v, want key \"hot\" with aborts > 0", top)
	}
}

// TestMetricsTopKOrderAndOverflow exercises the capped table directly.
func TestMetricsTopKOrderAndOverflow(t *testing.T) {
	m := newMetrics(1)
	ops := func(key string) []Op { return []Op{{Kind: OpPut, Key: key}} }
	for i := 0; i < 3; i++ {
		m.noteAbortedOps(ops("a"))
	}
	m.noteAbortedOps(ops("b"))
	m.noteAbortedOps(ops("b"))
	m.noteAbortedOps(ops("c"))
	top := m.TopK(2)
	if len(top) != 2 || top[0] != (Hotspot{Key: "a", Aborts: 3}) || top[1] != (Hotspot{Key: "b", Aborts: 2}) {
		t.Fatalf("TopK(2) = %+v", top)
	}
	// Fill the shard past capacity: later fresh keys overflow, existing
	// keys still count.
	for i := 0; i < hotKeysPerShard+10; i++ {
		m.noteAbortedOps(ops(fmt.Sprintf("fill%d", i)))
	}
	if m.OverflowAborts() == 0 {
		t.Fatal("expected overflow after exceeding per-shard capacity")
	}
	m.noteAbortedOps(ops("a"))
	if got := m.TopK(1)[0]; got != (Hotspot{Key: "a", Aborts: 4}) {
		t.Fatalf("existing key stopped counting after overflow: %+v", got)
	}
}

// TestHotspotWindowDecay is the satellite gate for windowed hotspot decay:
// a key that was hot but cools down must leave TopK within two window
// rotations, while a key that keeps aborting stays. Cumulative-since-start
// counts (the pre-decay behaviour) could never show this.
func TestHotspotWindowDecay(t *testing.T) {
	m := newMetrics(4)
	ops := func(key string) []Op { return []Op{{Kind: OpPut, Key: key}} }
	for i := 0; i < 50; i++ {
		m.noteAbortedOps(ops("cooled"))
	}
	m.noteAbortedOps(ops("steady"))
	if top := m.TopK(1); len(top) != 1 || top[0].Key != "cooled" {
		t.Fatalf("TopK(1) = %+v, want \"cooled\" on top", top)
	}

	// One rotation: the cooled key survives in the previous window (TopK
	// sums both windows, so a briefly-quiet key doesn't flap out).
	m.RotateHotspots()
	m.noteAbortedOps(ops("steady"))
	if top := m.TopK(0); len(top) != 2 {
		t.Fatalf("after one rotation TopK(0) = %+v, want both keys", top)
	}

	// Second rotation with no further aborts on "cooled": it must be gone.
	m.RotateHotspots()
	m.noteAbortedOps(ops("steady"))
	top := m.TopK(0)
	if len(top) != 1 || top[0].Key != "steady" {
		t.Fatalf("cooled key still in TopK after two windows: %+v", top)
	}

	// Overflow stays cumulative across rotations.
	for i := 0; i < hotKeysPerShard*4+10; i++ {
		m.noteAbortedOps(ops(fmt.Sprintf("fill%d", i)))
	}
	before := m.OverflowAborts()
	if before == 0 {
		t.Fatal("expected overflow")
	}
	m.RotateHotspots()
	if got := m.OverflowAborts(); got != before {
		t.Fatalf("overflow changed across rotation: %d -> %d", before, got)
	}
}

// TestHotspotLazyRotation drives the time-based rotation path directly.
func TestHotspotLazyRotation(t *testing.T) {
	m := newMetrics(1)
	ops := []Op{{Kind: OpPut, Key: "k"}}
	m.noteAbortedOps(ops)
	// Within the window: nothing rotates.
	m.maybeRotate(time.Now())
	if top := m.TopK(0); len(top) != 1 {
		t.Fatalf("key rotated out early: %+v", top)
	}
	// A gap of two-plus windows clears both windows.
	m.maybeRotate(time.Now().Add(2*hotspotWindow + time.Second))
	if top := m.TopK(0); len(top) != 0 {
		t.Fatalf("stale key survived a 2-window idle gap: %+v", top)
	}
}

// TestHotKeyLabelsExpositionSafe: hot keys are arbitrary client bytes, and
// the key label must still be valid exposition — only \\, \" and \n
// escaped, invalid UTF-8 repaired — with keys that repair to the same
// text merged into one series.
func TestHotKeyLabelsExpositionSafe(t *testing.T) {
	m := newMetrics(2)
	keys := []string{"a\tb", "x\x01y", "bad\xff", "bad\xfe", `q"uote`, `back\slash`, "new\nline"}
	for _, k := range keys {
		m.noteAbortedOps([]Op{{Kind: OpPut, Key: k}})
	}
	var buf bytes.Buffer
	m.WriteProm(&buf, 0)
	if errs := metrics.LintProm(bytes.NewReader(buf.Bytes())); len(errs) != 0 {
		t.Fatalf("hot-key exposition violations:\n  %s\n%s", strings.Join(errs, "\n  "), buf.String())
	}
	for _, raw := range []string{"key=\"a\tb\"", "key=\"x\x01y\"", "key=\"bad\uFFFD\"", `key="q\"uote"`, `key="back\\slash"`, `key="new\nline"`} {
		if !bytes.Contains(buf.Bytes(), []byte(raw)) {
			t.Errorf("exposition lacks %q:\n%s", raw, buf.String())
		}
	}
	ss, err := metrics.Samples(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, s := range ss {
		if s.Name == "nztm_kv_key_aborts_total" {
			got[s.Labels["key"]] = s.Value
		}
	}
	want := map[string]float64{"a\tb": 1, "x\x01y": 1, "bad\uFFFD": 2, `q"uote`: 1, `back\slash`: 1, "new\nline": 1}
	if len(got) != len(want) {
		t.Fatalf("key series = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("key %q = %v, want %v", k, got[k], v)
		}
	}
}
