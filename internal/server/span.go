package server

// SpanMetrics aggregates the per-request span timelines into per-stage
// latency histograms: where inside the decode→queue→executor→TM→WAL→
// repl-gate→respond pipeline request time goes. One histogram per stage
// plus one for the end-to-end total; because the non-zero stage
// durations of a span partition its total exactly, summed stage time
// accounts for all of measured request latency — the property the
// durability-tax profiling relies on. It is the serving stack's only
// per-request timing source: no other layer re-times an interval a span
// holds. The span's attempt count lands here too.

import (
	"io"

	"nztm/internal/metrics"
	"nztm/internal/trace"
)

// SpanMetrics is lock-free and always on; Observe is a handful of
// atomic adds per stamped stage.
type SpanMetrics struct {
	total    metrics.Histogram
	stage    [trace.SpanStages]metrics.Histogram
	attempts metrics.Histogram // transaction attempts per executed request
}

// Observe folds one completed span in (nanosecond durations).
func (sm *SpanMetrics) Observe(sp *trace.Span) {
	t := sp.Total()
	if t == 0 {
		return
	}
	sm.total.ObserveValue(t)
	for i := 0; i < trace.SpanStages; i++ {
		if d := sp.StageDur(i); d > 0 {
			sm.stage[i].ObserveValue(d)
		}
	}
	if sp.Attempts > 0 { // 0: the request never reached a transaction
		sm.attempts.ObserveValue(uint64(sp.Attempts))
	}
}

// Total returns the end-to-end request-time histogram (ns values).
func (sm *SpanMetrics) Total() *metrics.Histogram { return &sm.total }

// Stage returns stage i's duration histogram (ns values).
func (sm *SpanMetrics) Stage(i int) *metrics.Histogram { return &sm.stage[i] }

// WriteMetricsz renders the nztm_stage_us{stage=...} family (one
// labelled histogram per stage, microsecond values), the
// nztm_request_total_us end-to-end family and the nztm_request_attempts
// family.
func (sm *SpanMetrics) WriteMetricsz(w io.Writer) {
	const scale = 1e-3 // ns → µs
	metrics.Head(w, "nztm_stage_us", "histogram", "per-stage request latency (microseconds)")
	for i := 0; i < trace.SpanStages; i++ {
		sm.stage[i].WriteHistSamples(w, "nztm_stage_us", scale, "stage", trace.StageName(i))
	}
	metrics.Head(w, "nztm_request_total_us", "histogram", "end-to-end request latency from span timelines (microseconds)")
	sm.total.WriteHistSamples(w, "nztm_request_total_us", scale)
	metrics.Head(w, "nztm_request_attempts", "histogram", "transaction attempts per executed request (1 = first attempt committed)")
	sm.attempts.WriteHistSamples(w, "nztm_request_attempts", 1)
}
