package server

// SpanMetrics aggregates the per-request span timelines into per-stage
// latency histograms: where inside the decode→queue→executor→TM→WAL→
// repl-gate→respond pipeline request time goes. One histogram per stage
// plus one for the end-to-end total; because the non-zero stage
// durations of a span partition its total exactly, summed stage time
// accounts for all of measured request latency — the property the
// durability-tax profiling relies on.

import (
	"io"

	"nztm/internal/metrics"
	"nztm/internal/trace"
)

// SpanMetrics is lock-free and always on; Observe is a handful of
// atomic adds per stamped stage.
type SpanMetrics struct {
	total metrics.Histogram
	stage [trace.SpanStages]metrics.Histogram
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
}

// Total returns the end-to-end request-time histogram (ns values).
func (sm *SpanMetrics) Total() *metrics.Histogram { return &sm.total }

// Stage returns stage i's duration histogram (ns values).
func (sm *SpanMetrics) Stage(i int) *metrics.Histogram { return &sm.stage[i] }

// WriteMetricsz renders the nztm_stage_us{stage=...} family (one
// labelled histogram per stage, microsecond values) and the
// nztm_request_total_us end-to-end family.
func (sm *SpanMetrics) WriteMetricsz(w io.Writer) {
	const scale = 1e-3 // ns → µs
	metrics.Head(w, "nztm_stage_us", "histogram", "per-stage request latency (microseconds)")
	for i := 0; i < trace.SpanStages; i++ {
		sm.stage[i].WriteHistSamples(w, "nztm_stage_us", scale, "stage", trace.StageName(i))
	}
	metrics.Head(w, "nztm_stage_us_quantile", "gauge", "per-stage latency p50/p95/p99 upper bounds (microseconds)")
	for i := 0; i < trace.SpanStages; i++ {
		sm.stage[i].WriteQuantileSamples(w, "nztm_stage_us", scale, "stage", trace.StageName(i))
	}
	metrics.Head(w, "nztm_request_total_us", "histogram", "end-to-end request latency from span timelines (microseconds)")
	sm.total.WriteHistSamples(w, "nztm_request_total_us", scale)
	metrics.Head(w, "nztm_request_total_us_quantile", "gauge", "end-to-end request latency p50/p95/p99 upper bounds (microseconds)")
	sm.total.WriteQuantileSamples(w, "nztm_request_total_us", scale)
}
