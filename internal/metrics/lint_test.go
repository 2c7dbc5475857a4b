package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func lintString(t *testing.T, s string) []string {
	t.Helper()
	return LintProm(strings.NewReader(s))
}

func TestLintPromClean(t *testing.T) {
	in := `# HELP a_total things
# TYPE a_total counter
a_total 3
# HELP lat request latency
# TYPE lat histogram
lat_bucket{le="0.1"} 1
lat_bucket{le="+Inf"} 2
lat_sum 0.3
lat_count 2
# HELP lat_quantile lat quantiles
# TYPE lat_quantile gauge
lat_quantile{quantile="0.5"} 0.1
# HELP g a gauge
# TYPE g gauge
g{k="v,with}brace"} 1.5
`
	if errs := lintString(t, in); len(errs) != 0 {
		t.Fatalf("clean input flagged: %v", errs)
	}
}

func TestLintPromViolations(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"untyped sample", "orphan_total 1\n", "no # TYPE"},
		{"duplicate type", "# HELP x h\n# TYPE x counter\nx 1\n# TYPE x counter\n", "duplicate TYPE"},
		{"missing help", "# TYPE x counter\nx 1\n", "no # HELP"},
		{"non-contiguous", "# HELP a h\n# TYPE a counter\na 1\n# HELP b h\n# TYPE b counter\nb 1\na 2\n", "not contiguous"},
		{"no samples", "# HELP a h\n# TYPE a counter\n", "no samples"},
		{"bad value", "# HELP a h\n# TYPE a counter\na pizza\n", "bad value"},
		{"bad type", "# HELP a h\n# TYPE a flotilla\na 1\n", "invalid TYPE"},
		{"type after sample", "# HELP a h\n# TYPE a counter\na 1\n# HELP b h\n# TYPE b counter\nb 1\n# TYPE a gauge\n", "duplicate TYPE"},
		{"go escape", "# HELP a h\n# TYPE a counter\na{k=\"a\\tb\"} 1\n", "invalid escape"},
		{"hex escape", "# HELP a h\n# TYPE a counter\na{k=\"x\\x01y\"} 1\n", "invalid escape"},
		{"invalid utf-8", "# HELP a h\n# TYPE a counter\na{k=\"bad\xff\"} 1\n", "not valid UTF-8"},
		{"duplicate series", "# HELP a h\n# TYPE a counter\na{k=\"x\"} 1\na{k=\"x\"} 2\n", "duplicate series"},
		{"unterminated labels", "# HELP a h\n# TYPE a counter\na{k=\"x} 1\n", "unterminated"},
	}
	for _, c := range cases {
		errs := lintString(t, c.in)
		found := false
		for _, e := range errs {
			if strings.Contains(e, c.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want an error containing %q, got %v", c.name, c.want, errs)
		}
	}
}

func TestWritePromConformance(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	var buf bytes.Buffer
	h.WriteProm(&buf, "t_lat_seconds")
	CounterFam(&buf, "t_ops_total", "ops served", 12, "kind", "put")
	GaugeFam(&buf, "t_depth", "queue depth", 3.5)
	if errs := LintProm(bytes.NewReader(buf.Bytes())); len(errs) != 0 {
		t.Fatalf("writers produce non-conformant output: %v\n%s", errs, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE t_lat_seconds histogram",
		"# HELP t_ops_total ops served",
		`t_ops_total{kind="put"} 12`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteSamplesHeadless(t *testing.T) {
	// Labelled multi-instance family: heads once, samples per instance —
	// must lint clean.
	var a, b Histogram
	a.ObserveValue(5)
	b.ObserveValue(9)
	var buf bytes.Buffer
	Head(&buf, "st_us", "histogram", "per-stage time")
	a.WriteHistSamples(&buf, "st_us", 1e-3, "stage", "decode")
	b.WriteHistSamples(&buf, "st_us", 1e-3, "stage", "tm")
	if errs := LintProm(bytes.NewReader(buf.Bytes())); len(errs) != 0 {
		t.Fatalf("headless sample layout non-conformant: %v\n%s", errs, buf.String())
	}
	if !strings.Contains(buf.String(), `st_us_count{stage="tm"} 1`) {
		t.Fatalf("missing labelled count:\n%s", buf.String())
	}
}

// Label values carry arbitrary bytes (client keys): the writers escape
// only what the format defines, repair invalid UTF-8, and the result both
// lints clean and parses back to the repaired value.
func TestLabelValuesRoundTrip(t *testing.T) {
	values := []string{"a\tb", "x\x01y", "bad\xff", `q"uote`, `back\slash`, "new\nline", "plain"}
	var buf bytes.Buffer
	Head(&buf, "k_total", "counter", "per-key count")
	for i, v := range values {
		Counter(&buf, "k_total", uint64(i), "key", v)
	}
	if errs := LintProm(bytes.NewReader(buf.Bytes())); len(errs) != 0 {
		t.Fatalf("label values not exposition-safe: %v\n%s", errs, buf.String())
	}
	ss, err := Samples(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != len(values) {
		t.Fatalf("parsed %d samples, want %d", len(ss), len(values))
	}
	for i, s := range ss {
		if want := LabelValue(values[i]); s.Labels["key"] != want || s.Value != float64(i) {
			t.Errorf("sample %d = %q %v, want %q %d", i, s.Labels["key"], s.Value, want, i)
		}
	}
}

func TestSamples(t *testing.T) {
	in := "# HELP g a gauge\n# TYPE g gauge\ng 2.5\n# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\n"
	ss, err := Samples(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 2 || ss[0].Name != "g" || ss[0].Value != 2.5 || ss[0].Labels != nil ||
		ss[1].Name != "h_bucket" || ss[1].Labels["le"] != "+Inf" || ss[1].Value != 3 {
		t.Fatalf("Samples = %+v", ss)
	}
	if _, err := Samples(strings.NewReader("x{k=\"v} 1\n")); err == nil {
		t.Fatal("unterminated label block parsed")
	}
}
