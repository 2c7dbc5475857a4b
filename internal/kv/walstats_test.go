package kv

import (
	"bytes"
	"testing"

	"nztm/internal/metrics"
	"nztm/internal/wal"
)

// TestWALStatsCoverage: a durable store's /metricsz section exports every
// wal.Stats family (metrics.WriteFields), its info and stopped gauges, and
// lints clean.
func TestWALStatsCoverage(t *testing.T) {
	store, _ := newDurableStore(t, t.TempDir(), 4, 2, Durability{Fsync: wal.FsyncNever})
	defer store.Close()
	var buf, want bytes.Buffer
	store.WriteDurabilityProm(&buf)
	if errs := metrics.LintProm(bytes.NewReader(buf.Bytes())); len(errs) != 0 {
		t.Fatalf("durability exposition non-conformant: %v\n%s", errs, buf.String())
	}
	metrics.WriteFields(&want, "nztm_wal", "counter", &wal.Stats{})
	got := metrics.Families(bytes.NewReader(buf.Bytes()))
	fams := metrics.Families(&want)
	fams["nztm_wal_info"] = "gauge"
	fams["nztm_wal_readonly"] = "gauge"
	for name, typ := range fams {
		if got[name] != typ {
			t.Errorf("family %s %s missing (have %q)", name, typ, got[name])
		}
	}
	if !bytes.Contains(buf.Bytes(), []byte(`fsync="never"} 1`)) {
		t.Errorf("wal info missing the fsync policy:\n%s", buf.String())
	}
}
