// Package metrics provides the serving stack's lock-free instrumentation
// primitives: power-of-two-bucket histograms for latency and count
// distributions, plus Prometheus text rendering for the /metricsz endpoint.
//
// The paper's evaluation reasons about distributions, not averages (related
// work quantifies TM overhead the same way), so every recorded quantity —
// request stage time, attempts per request, backoff time — is a histogram
// here. An observation is three atomic adds: no locks, no allocation, safe
// under full parallelism; snapshots are approximate while writers run,
// which is fine for serving metrics. Quantiles are not exported: a scraper
// derives them from the cumulative buckets (histogram_quantile).
package metrics

import (
	"fmt"
	"io"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// histBuckets covers 1 .. 2^42 in power-of-two buckets — for nanosecond
// samples that is 1ns to ~1.2h, for count samples more range than anyone
// needs. Bucket i counts observations in (2^(i-1), 2^i] and is exported as
// le=2^i, so a sample equal to a bound is counted under that bound; values
// of zero and one land in bucket 0. The top bucket also takes every larger
// sample, so it is exported only under le="+Inf".
const histBuckets = 43

// Histogram is a lock-free power-of-two-bucket histogram. The zero value is
// ready to use. Record durations with Observe and dimensionless counts
// (attempts, batch sizes) with ObserveValue.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.ObserveValue(uint64(d))
}

// ObserveValue records one raw sample.
func (h *Histogram) ObserveValue(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	i := 0
	if v > 1 {
		i = min(bits.Len64(v-1), histBuckets-1)
	}
	h.buckets[i].Add(1)
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Bucket returns bucket i's count (i in [0, Buckets())).
func (h *Histogram) Bucket(i int) uint64 { return h.buckets[i].Load() }

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return histBuckets }

// WriteProm renders the histogram in Prometheus text exposition format
// under the given metric name. Nanosecond samples are scaled to seconds
// (the Prometheus convention). labels (alternating key, value — may be
// empty) are attached to every series.
func (h *Histogram) WriteProm(w io.Writer, name string, labels ...string) {
	h.writePromFull(w, name, 1e-9, labels)
}

// WritePromValues is WriteProm for dimensionless histograms: bucket bounds
// are exported as raw values.
func (h *Histogram) WritePromValues(w io.Writer, name string, labels ...string) {
	h.writePromFull(w, name, 1, labels)
}

func (h *Histogram) writePromFull(w io.Writer, name string, scale float64, labels []string) {
	Head(w, name, "histogram", name+" distribution (power-of-two buckets)")
	h.WriteHistSamples(w, name, scale, labels...)
}

// WriteHistSamples writes the bucket/sum/count samples only, without the
// # HELP/# TYPE heads, raw values scaled by scale. For families with
// multiple labelled instances (e.g. one histogram per stage) the caller
// emits the heads once and then one WriteHistSamples per instance, so
// every family keeps a single TYPE line and contiguous samples.
func (h *Histogram) WriteHistSamples(w io.Writer, name string, scale float64, labels ...string) {
	base := joinLabels(labels, "")
	var cum uint64
	for i := 0; i < histBuckets-1; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue // keep the exposition compact; cumulative counts stay exact
		}
		cum += n
		le := float64(uint64(1)<<i) * scale
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, joinLabels(labels, `le="`+formatFloat(le)+`"`), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, joinLabels(labels, `le="+Inf"`), h.Count())
	fmt.Fprintf(w, "%s_sum%s %s\n", name, base, formatFloat(float64(h.Sum())*scale))
	fmt.Fprintf(w, "%s_count%s %d\n", name, base, h.Count())
}

// Head writes a metric family's # HELP and # TYPE lines. Exactly one
// Head per family per exposition, before any of its samples — the
// conformance linter (LintProm) enforces this.
func Head(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// Counter writes one Prometheus counter sample (no heads; see Head).
func Counter(w io.Writer, name string, v uint64, labels ...string) {
	fmt.Fprintf(w, "%s%s %d\n", name, joinLabels(labels, ""), v)
}

// Gauge writes one Prometheus gauge sample (no heads; see Head).
func Gauge(w io.Writer, name string, v float64, labels ...string) {
	fmt.Fprintf(w, "%s%s %s\n", name, joinLabels(labels, ""), formatFloat(v))
}

// CounterFam writes a complete single-sample counter family: heads plus
// the one sample.
func CounterFam(w io.Writer, name, help string, v uint64, labels ...string) {
	Head(w, name, "counter", help)
	Counter(w, name, v, labels...)
}

// GaugeFam writes a complete single-sample gauge family.
func GaugeFam(w io.Writer, name, help string, v float64, labels ...string) {
	Head(w, name, "gauge", help)
	Gauge(w, name, v, labels...)
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// joinLabels renders {k1="v1",k2="v2",extra} from alternating key, value
// pairs (empty string when there is nothing to render). Values are made
// valid UTF-8 and escaped as the exposition format defines: only
// backslash, double quote and newline, every other byte verbatim.
func joinLabels(labels []string, extra string) string {
	pairs := len(labels) / 2
	if pairs == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < pairs; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[2*i])
		b.WriteString(`="`)
		labelEscaper.WriteString(&b, LabelValue(labels[2*i+1]))
		b.WriteByte('"')
	}
	if extra != "" {
		if pairs > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// LabelValue is the text a label value is exported as: v with each run of
// invalid UTF-8 replaced by U+FFFD. Callers that label series with
// arbitrary bytes merge values that map to the same text, so a family
// never repeats a series.
func LabelValue(v string) string { return strings.ToValidUTF8(v, "\uFFFD") }

// formatFloat renders floats the way Prometheus expects (no exponent for
// common magnitudes, no trailing zeros).
func formatFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}
