package server

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"

	"nztm/internal/metrics"
)

// hotspotTopK is how many contended keys /metricsz reports.
const hotspotTopK = 10

// buildInfo is the Go version and VCS revision the binary was built
// from; "unknown" when the build carries no VCS stamp (go test, or
// -buildvcs=false).
var buildInfo = sync.OnceValues(func() (goVersion, revision string) {
	goVersion, revision = runtime.Version(), "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" && kv.Value != "" {
				revision = kv.Value
			}
		}
	}
	return goVersion, revision
})

// WriteMetricsz dumps the server's metrics in Prometheus text exposition
// format — the one stats surface: build and configuration info, request
// counters, the span's per-stage, end-to-end and attempts histograms (the
// only request timing), every tm.Stats counter of the backing system
// (metrics.WriteFields, including registry slot churn), and — when the
// store has metrics enabled — the backoff histogram plus top-K
// contended-key abort counters. Config.ExtraMetricsz appends the other
// planes. Every family carries # HELP and # TYPE heads; the conformance
// tests lint this output with metrics.LintProm.
func (s *Server) WriteMetricsz(w io.Writer) {
	s.mu.Lock()
	open := len(s.conns)
	s.mu.Unlock()

	sys := s.store.System()
	goVersion, revision := buildInfo()
	metrics.Info(w, "nztm_build_info", "Go version, VCS revision and TM system of this node",
		"go_version", goVersion, "revision", revision, "system", sys.Name())
	admission := AdmitReject
	if s.sched.block {
		admission = AdmitBlock
	}
	metrics.Info(w, "nztm_server_info", "store shape and scheduler configuration",
		"shards", strconv.Itoa(s.store.Shards()), "buckets_per_shard", strconv.Itoa(s.store.BucketsPerShard()),
		"executors_requested", strconv.Itoa(s.sched.executors), "queue_capacity", strconv.Itoa(cap(s.sched.tasks)),
		"admission", admission)
	metrics.GaugeFam(w, "nztm_server_start_time_seconds", "server start time, seconds since the Unix epoch",
		float64(s.started.UnixNano())/1e9)
	metrics.GaugeFam(w, "nztm_server_connections_open", "currently open client connections", float64(open))
	metrics.CounterFam(w, "nztm_server_connections_total", "client connections accepted", s.connsTotal.Load())
	metrics.Head(w, "nztm_server_requests_total", "counter", "requests answered, by response status")
	metrics.Counter(w, "nztm_server_requests_total", s.reqOK.Load(), "status", "ok")
	metrics.Counter(w, "nztm_server_requests_total", s.reqBudget.Load(), "status", "budget")
	metrics.Counter(w, "nztm_server_requests_total", s.reqBad.Load(), "status", "bad")
	metrics.Counter(w, "nztm_server_requests_total", s.reqErr.Load(), "status", "error")
	metrics.Counter(w, "nztm_server_requests_total", s.reqShutdown.Load(), "status", "shutdown")
	metrics.Counter(w, "nztm_server_requests_total", s.reqLagging.Load(), "status", "lagging")
	metrics.Counter(w, "nztm_server_requests_total", s.reqRedirect.Load(), "status", "not_primary")
	metrics.Counter(w, "nztm_server_requests_total", s.reqOverload.Load(), "status", "overloaded")
	metrics.Counter(w, "nztm_server_requests_total", s.reqReadOnly.Load(), "status", "read_only")

	// Scheduler plane: executor pool size, admission counters and derived
	// queue-depth/busy gauges. Queue wait is the span's dispatch stage.
	metrics.GaugeFam(w, "nztm_sched_executors", "slot-bound executors in the pool", float64(s.sched.bound.Load()))
	s.sched.stats.WriteMetricsz(w)

	s.spans.WriteMetricsz(w)

	metrics.WriteFields(w, "nztm_tm", "counter", sys.Stats())
	metrics.GaugeFam(w, "nztm_tm_threads_active", "registry slots currently bound", float64(s.reg.Active()))
	metrics.GaugeFam(w, "nztm_tm_threads_high_water", "registry slot high-water mark", float64(s.reg.High()))
	metrics.GaugeFam(w, "nztm_tm_threads_max", "registry slot capacity", float64(s.reg.Max()))

	s.store.Metrics().WriteProm(w, hotspotTopK)

	if s.cfg.ExtraMetricsz != nil {
		s.cfg.ExtraMetricsz(w)
	}
}

// WriteTracezOpts dumps the flight recorder's per-source event logs as
// JSON, with the /tracez query filters: source (nil = all sources) keeps
// only that source id's ring, and limit > 0 keeps only each ring's newest
// limit events. With no recorder bound it emits a disabled marker instead
// of an error, so the endpoint is always safe to poll.
func (s *Server) WriteTracezOpts(w io.Writer, source *int, limit int) {
	fr := s.reg.Recorder()
	if fr == nil {
		fmt.Fprintln(w, `{"enabled":false}`)
		return
	}
	fr.WriteJSONOpts(w, source, limit)
}

// TracezHandler serves /tracez, honouring ?source=<id> and ?limit=<n>.
// Bad parameter values are a 400, not a silent full dump.
func (s *Server) TracezHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		var source *int
		limit := 0
		if v := r.URL.Query().Get("source"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				http.Error(rw, fmt.Sprintf("bad source %q: %v", v, err), http.StatusBadRequest)
				return
			}
			source = &n
		}
		if v := r.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(rw, fmt.Sprintf("bad limit %q", v), http.StatusBadRequest)
				return
			}
			limit = n
		}
		rw.Header().Set("Content-Type", "application/json")
		s.WriteTracezOpts(rw, source, limit)
	})
}

// SlowzHandler serves /slowz: the slow-request tail sampler as JSON.
func (s *Server) SlowzHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		s.WriteSlowz(rw)
	})
}
