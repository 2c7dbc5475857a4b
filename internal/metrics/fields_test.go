package metrics

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
)

func TestSnake(t *testing.T) {
	for in, want := range map[string]string{
		"Enqueued":        "enqueued",
		"SlowClientDrops": "slow_client_drops",
		"WriteEIO":        "write_eio",
		"WriteENOSPC":     "write_enospc",
		"HWCommits":       "hw_commits",
		"SWFallbacks":     "sw_fallbacks",
		"LagMs":           "lag_ms",
		"ReadOnlyTrips":   "read_only_trips",
	} {
		if got := snake(in); got != want {
			t.Errorf("snake(%q) = %q, want %q", in, got, want)
		}
	}
}

type testBlock struct {
	FramesShipped atomic.Uint64
	WriteENOSPC   atomic.Uint64
	Cohort        Histogram
	Name          string        // not a counter: skipped
	hidden        atomic.Uint64 // unexported: skipped
}

// TestWriteFields checks the reflective writer: one family per exported
// counter field (a _total counter or a gauge, as asked), a histogram per
// Histogram field, nothing for other or unexported fields, values as
// stored, and output that lints clean.
func TestWriteFields(t *testing.T) {
	var b testBlock
	b.FramesShipped.Store(3)
	b.WriteENOSPC.Store(4)
	b.Cohort.ObserveValue(5)
	b.hidden.Store(9)
	for _, c := range []struct {
		typ  string
		want []string
	}{
		{"counter", []string{
			"# TYPE t_frames_shipped_total counter", "t_frames_shipped_total 3",
			"# TYPE t_write_enospc_total counter", "t_write_enospc_total 4",
			"# HELP t_write_enospc_total metrics.testBlock.WriteENOSPC",
			"# TYPE t_cohort histogram", "t_cohort_count 1",
		}},
		{"gauge", []string{
			"# TYPE t_frames_shipped gauge", "t_frames_shipped 3",
			"# TYPE t_write_enospc gauge", "t_write_enospc 4",
			"# TYPE t_cohort histogram", "t_cohort_count 1",
		}},
	} {
		var buf bytes.Buffer
		WriteFields(&buf, "t", c.typ, &b)
		out := buf.String()
		if errs := LintProm(strings.NewReader(out)); len(errs) != 0 {
			t.Fatalf("%s: %v\n%s", c.typ, errs, out)
		}
		for _, w := range c.want {
			if !strings.Contains(out, w+"\n") {
				t.Errorf("%s: missing %q in\n%s", c.typ, w, out)
			}
		}
		if strings.Contains(out, "name") || strings.Contains(out, "hidden") {
			t.Errorf("%s: exported a non-counter field:\n%s", c.typ, out)
		}
		if n := strings.Count(out, "# TYPE "); n != 3 { // two counters, one histogram
			t.Errorf("%s: %d families, want 3:\n%s", c.typ, n, out)
		}
	}
}
