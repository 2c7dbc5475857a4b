package kv

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"nztm/internal/metrics"
	"nztm/internal/wal"
)

// TestWALStatsCoverage is the reflection guard for the WAL's stats: every
// field of wal.Stats — counters and histograms alike — must surface in
// the /metricsz exposition with the value that was stored into it, so a
// new field cannot ship unexported. The exposition must also lint clean.
func TestWALStatsCoverage(t *testing.T) {
	var ls wal.Stats
	rv := reflect.ValueOf(&ls).Elem()
	rt := rv.Type()
	if rt.NumField() == 0 {
		t.Fatal("wal.Stats has no fields")
	}
	for i := 0; i < rt.NumField(); i++ {
		switch f := rv.Field(i).Addr().Interface().(type) {
		case *atomic.Uint64:
			f.Store(uint64(100 + i))
		case *metrics.Histogram:
			f.ObserveValue(uint64(7 + i))
		default:
			t.Fatalf("wal.Stats field %s has unhandled type %s (extend writeWALStatsProm)",
				rt.Field(i).Name, rt.Field(i).Type)
		}
	}
	var buf bytes.Buffer
	writeWALStatsProm(&buf, &ls)
	out := buf.String()
	names := walStatsFields()
	if len(names) != rt.NumField() {
		t.Fatalf("walStatsFields lists %d fields, wal.Stats has %d", len(names), rt.NumField())
	}
	for i, name := range names {
		var want string
		switch rv.Field(i).Addr().Interface().(type) {
		case *atomic.Uint64:
			want = fmt.Sprintf("nztm_wal_%s_total %d", name, 100+i)
		case *metrics.Histogram:
			want = fmt.Sprintf("nztm_wal_%s_count 1", name)
		}
		if !strings.Contains(out, want) {
			t.Errorf("wal stat %s not exported: want %q in\n%s", name, want, out)
		}
	}
	if errs := metrics.LintProm(bytes.NewReader(buf.Bytes())); len(errs) != 0 {
		t.Fatalf("wal stats exposition non-conformant: %v\n%s", errs, out)
	}
}

// TestDurabilityStatszCoverage checks the human /statsz side carries the
// new WAL histogram summaries.
func TestDurabilityStatszCoverage(t *testing.T) {
	store, _ := newDurableStore(t, t.TempDir(), 4, 2, Durability{Fsync: wal.FsyncNever})
	defer store.Close()
	var buf bytes.Buffer
	store.WriteDurabilityStats(&buf)
	for _, want := range []string{"wal fsync cohort:", "wal reorder occupancy:"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("statsz missing %q:\n%s", want, buf.String())
		}
	}
}
