package server

// Tests for the latency-attribution surface: span stage histograms,
// Prometheus exposition conformance of the full /metricsz document, the
// /tracez source/limit filters, and the /slowz tail sampler.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nztm/internal/kv"
	"nztm/internal/metrics"
	"nztm/internal/tm"
	"nztm/internal/trace"
)

// TestSpanMetricsStageCoverage feeds SpanMetrics a synthetic span with
// every stage stamped and asserts each stage label shows up in the
// exposition — adding a stage to trace without a name (or dropping it
// from the export) fails here.
func TestSpanMetricsStageCoverage(t *testing.T) {
	var sp trace.Span
	sp.Begin = trace.Now()
	for i := 0; i < trace.SpanStages; i++ {
		sp.Stamp[i] = sp.Begin + uint64(i+1)*1000
	}
	var sm SpanMetrics
	sm.Observe(&sp)

	var b strings.Builder
	sm.WriteMetricsz(&b)
	out := b.String()
	for i := 0; i < trace.SpanStages; i++ {
		name := trace.StageName(i)
		if name == "" {
			t.Fatalf("stage %d has no name", i)
		}
		if want := fmt.Sprintf(`nztm_stage_us_count{stage=%q} 1`, name); !strings.Contains(out, want) {
			t.Errorf("metricsz missing %q", want)
		}
	}
	if !strings.Contains(out, "nztm_request_total_us_count 1") {
		t.Errorf("metricsz missing total-latency family:\n%s", out)
	}
	if problems := metrics.LintProm(strings.NewReader(out)); len(problems) != 0 {
		t.Errorf("stage exposition violations: %v\n%s", problems, out)
	}
}

// waitSpans waits until n request spans have been folded into srv's span
// metrics: an executor observes a span after delivering its response, so
// a client can hold its answer before the span lands.
func waitSpans(t *testing.T, srv *Server, n uint64) {
	t.Helper()
	waitFor(t, 5*time.Second, func() bool { return srv.Spans().Total().Count() >= n })
}

// abortFirst is a tm.System whose every transaction's first attempt runs
// the body and then aborts, so each request commits on attempt 2.
type abortFirst struct{ tm.System }

func (s abortFirst) Atomic(th *tm.Thread, fn func(tm.Tx) error) error {
	first := true
	return s.System.Atomic(th, func(tx tm.Tx) error {
		err := fn(tx)
		if first {
			first = false
			tm.Retry(tm.AbortRequest)
		}
		return err
	})
}

// TestRequestAttempts: the span's attempt count reaches
// nztm_request_attempts, and a request forced through one abort is
// counted under le="2", not le="1".
func TestRequestAttempts(t *testing.T) {
	b, err := kv.OpenBackend("nzstm", 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, stop := startServerOn(t, kv.New(abortFirst{b.Sys}, 1, 1), b, Config{Executors: 1})
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	waitSpans(t, srv, 1)
	var mb strings.Builder
	srv.WriteMetricsz(&mb)
	out := mb.String()
	for _, want := range []string{
		"nztm_request_attempts_bucket{le=\"2\"} 1\n",
		"nztm_request_attempts_sum 2\n",
		"nztm_request_attempts_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metricsz missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `nztm_request_attempts_bucket{le="1"}`) {
		t.Errorf("a retried request counted under le=\"1\":\n%s", out)
	}
}

// TestMetricszConformance lints the complete live-server exposition with
// the real parser: every family typed and helped exactly once, heads
// before samples, families contiguous, no stray text.
func TestMetricszConformance(t *testing.T) {
	b, err := kv.OpenBackend("nzstm", 4)
	if err != nil {
		t.Fatal(err)
	}
	fr := trace.New(64)
	b.Reg.BindRecorder(fr)
	store := kv.New(b.Sys, 4, 16)
	store.EnableMetrics()
	srv, addr, stop := startServerOn(t, store, b, Config{Executors: 2})
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 32; i++ {
		if _, err := c.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Do([]kv.Op{
		{Kind: kv.OpPut, Key: "a", Value: []byte("1")},
		{Kind: kv.OpPut, Key: "b", Value: []byte("2")},
	}); err != nil {
		t.Fatal(err)
	}

	var mb strings.Builder
	srv.WriteMetricsz(&mb)
	out := mb.String()
	if problems := metrics.LintProm(strings.NewReader(out)); len(problems) != 0 {
		t.Errorf("metricsz exposition violations:\n  %s", strings.Join(problems, "\n  "))
	}
	// The always-stamped stages must have samples from real traffic.
	for _, stage := range []string{"decode", "enqueue", "dispatch", "exec_start", "tm", "respond"} {
		if !strings.Contains(out, fmt.Sprintf(`nztm_stage_us_count{stage=%q}`, stage)) {
			t.Errorf("metricsz missing live samples for stage %q", stage)
		}
	}
}

// startServerOn is startServer for a caller-built store/backend pair.
func startServerOn(t *testing.T, store *kv.Store, b *kv.Backend, cfg Config) (*Server, string, func()) {
	t.Helper()
	srv := New(store, b.Reg, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop := func() {
		srv.Shutdown(5 * time.Second)
		<-done
	}
	return srv, ln.Addr().String(), stop
}

// TestTracezFilters drives traffic through a recorder-bound server and
// exercises the /tracez handler's ?source= and ?limit= filters plus the
// 400s on malformed values.
func TestTracezFilters(t *testing.T) {
	b, err := kv.OpenBackend("nzstm", 4)
	if err != nil {
		t.Fatal(err)
	}
	fr := trace.New(64)
	b.Reg.BindRecorder(fr)
	store := kv.New(b.Sys, 4, 16)
	srv, addr, stop := startServerOn(t, store, b, Config{Executors: 1})
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 16; i++ {
		if _, err := c.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	type doc struct {
		EventsTotal uint64 `json:"events_total"`
		Sources     []struct {
			Source  int               `json:"source"`
			Dropped uint64            `json:"dropped"`
			Events  []json.RawMessage `json:"events"`
		} `json:"sources"`
	}
	get := func(query string) (int, doc) {
		t.Helper()
		req := httptest.NewRequest("GET", "/tracez"+query, nil)
		rw := httptest.NewRecorder()
		srv.TracezHandler().ServeHTTP(rw, req)
		var d doc
		if rw.Code == 200 {
			if err := json.Unmarshal(rw.Body.Bytes(), &d); err != nil {
				t.Fatalf("GET /tracez%s: bad JSON: %v\n%s", query, err, rw.Body.String())
			}
		}
		return rw.Code, d
	}

	code, full := get("")
	if code != 200 || len(full.Sources) == 0 {
		t.Fatalf("unfiltered tracez: code=%d sources=%d", code, len(full.Sources))
	}
	want := full.Sources[0].Source

	code, one := get(fmt.Sprintf("?source=%d", want))
	if code != 200 || len(one.Sources) != 1 || one.Sources[0].Source != want {
		t.Fatalf("?source=%d: code=%d sources=%+v", want, code, one.Sources)
	}
	code, none := get("?source=999999")
	if code != 200 || len(none.Sources) != 0 {
		t.Fatalf("unknown source: code=%d sources=%d (want empty list)", code, len(none.Sources))
	}
	code, lim := get("?limit=1")
	if code != 200 {
		t.Fatalf("?limit=1: code=%d", code)
	}
	for _, s := range lim.Sources {
		if len(s.Events) > 1 {
			t.Fatalf("limit=1 kept %d events for source %d", len(s.Events), s.Source)
		}
	}
	// The cut events count as dropped.
	var fullEvents, limDropped int
	for _, s := range full.Sources {
		fullEvents += len(s.Events)
	}
	for _, s := range lim.Sources {
		limDropped += int(s.Dropped)
	}
	if fullEvents > len(lim.Sources) && limDropped == 0 {
		t.Errorf("limit cut %d events but dropped stayed 0", fullEvents-len(lim.Sources))
	}

	for _, q := range []string{"?source=abc", "?limit=-1", "?limit=x"} {
		if code, _ := get(q); code != 400 {
			t.Errorf("GET /tracez%s: code=%d, want 400", q, code)
		}
	}
}

// TestSlowzSampler drives traffic and asserts the tail sampler retains
// complete timelines, serves them at /slowz, and dumps them readably.
func TestSlowzSampler(t *testing.T) {
	b, err := kv.OpenBackend("nzstm", 4)
	if err != nil {
		t.Fatal(err)
	}
	store := kv.New(b.Sys, 4, 16)
	srv, addr, stop := startServerOn(t, store, b, Config{Executors: 2})
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 32; i++ {
		if _, err := c.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	req := httptest.NewRequest("GET", "/slowz", nil)
	rw := httptest.NewRecorder()
	srv.SlowzHandler().ServeHTTP(rw, req)
	if rw.Code != 200 {
		t.Fatalf("/slowz code=%d", rw.Code)
	}
	var d struct {
		K       int `json:"k"`
		Entries []struct {
			TotalUs float64 `json:"total_us"`
			Stages  []struct {
				Stage string  `json:"stage"`
				Us    float64 `json:"us"`
			} `json:"stages"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &d); err != nil {
		t.Fatalf("/slowz bad JSON: %v\n%s", err, rw.Body.String())
	}
	if d.K != slowK {
		t.Fatalf("/slowz k=%d, want %d", d.K, slowK)
	}
	if len(d.Entries) == 0 || len(d.Entries) > slowK {
		t.Fatalf("/slowz entries=%d, want 1..%d", len(d.Entries), slowK)
	}
	for i, e := range d.Entries {
		if e.TotalUs <= 0 || len(e.Stages) == 0 {
			t.Fatalf("entry %d incomplete: %+v", i, e)
		}
		var sum float64
		for _, st := range e.Stages {
			sum += st.Us
		}
		if sum < 0.9*e.TotalUs || sum > 1.001*e.TotalUs {
			t.Errorf("entry %d: stage sum %.1fµs vs total %.1fµs — stages should partition the total", i, sum, e.TotalUs)
		}
	}
	// Slowest first.
	for i := 1; i < len(d.Entries); i++ {
		if d.Entries[i].TotalUs > d.Entries[i-1].TotalUs {
			t.Errorf("entries not sorted slowest-first at %d", i)
		}
	}

	var db strings.Builder
	srv.DumpSlow(&db)
	if !strings.Contains(db.String(), "slow requests") {
		t.Errorf("DumpSlow output missing header:\n%s", db.String())
	}
}
