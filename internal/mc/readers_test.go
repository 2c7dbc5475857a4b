package mc

import (
	"strings"
	"testing"
)

// Reader/writer on one object: the §3 read-sharing configuration.
func TestRWReaderWriterOneObject(t *testing.T) {
	res := Check(NZSTM(Config{
		Variant: VariantNZ,
		Scripts: [][]Op{{R(0)}, {W(0)}},
		Objects: 1,
		Retries: 1,
	}), Options{Coverage: []string{
		"r-register", "r-recheck", "r-read", "r-request-abort",
		"w-request-reader-abort", "w-inflate-past-reader", "r-inflate-observe",
		"inflate-cas", "cas-owner", "restore", "backup", "ready", "write",
		"commit", "deflate", "deflate-copy",
	}})
	if res.Err != nil {
		t.Fatalf("read-sharing model violated: %v\ntrace: %v", res.Err, res.Trace)
	}
	if len(res.Uncovered) > 0 {
		t.Errorf("uncovered read-sharing actions: %v", res.Uncovered)
	}
	t.Logf("explored %d states, %d transitions", res.States, res.Transitions)
}

// Two readers and one writer on one object.
func TestRWTwoReadersOneWriter(t *testing.T) {
	res := Check(NZSTM(Config{
		Variant: VariantNZ,
		Scripts: [][]Op{{R(0)}, {R(0)}, {W(0)}},
		Objects: 1,
		Retries: 1,
	}), Options{MaxStates: 1 << 23})
	if res.Err != nil {
		t.Fatalf("violated: %v\ntrace: %v", res.Err, res.Trace)
	}
	t.Logf("explored %d states, %d transitions", res.States, res.Transitions)
}

// Mixed read/write scripts across two objects (the paper's "up to three
// objects for either writing or reading", scaled to stay exhaustive).
func TestRWMixedScriptsTwoObjects(t *testing.T) {
	res := Check(NZSTM(Config{
		Variant: VariantNZ,
		Scripts: [][]Op{{R(0), W(1)}, {R(1), W(0)}},
		Objects: 2,
		Retries: 1,
	}), Options{MaxStates: 1 << 23})
	if res.Err != nil {
		t.Fatalf("violated: %v\ntrace: %v", res.Err, res.Trace)
	}
	t.Logf("explored %d states, %d transitions", res.States, res.Transitions)
}

// deregisterOnRecheck is the model before the repeat-read fix: a failed
// r-recheck also cleared the reader's registration, even when that bit stood
// for an earlier, successful read of the same object.
func deregisterOnRecheck(m Model) Model {
	enabled := m.Enabled
	m.Enabled = func(st State, tid int) []Action {
		acts := enabled(st, tid)
		for i, a := range acts {
			if a.Name != "r-recheck" {
				continue
			}
			next := a.Next
			acts[i].Next = func(st State) State {
				s := next(st).(*state)
				if s.Thr[tid].PC == pcObserve {
					s.Readers[s.op(tid).Obj] &^= 1 << uint(s.me(tid))
				}
				return s
			}
		}
		return acts
	}
	return m
}

// A transaction that reads the same object twice, with a writer acquiring
// it between the second read's owner load and its re-check: the re-check
// fails, and the registration from the first read must survive it, or the
// writer's reader scan finds nobody and changes the value under a reader
// that can still commit. Checked with and without inflation; the model that
// deregistered on a failed re-check must be caught.
func TestRWRepeatedRead(t *testing.T) {
	for name, v := range map[string]Variant{"BZ": VariantBZ, "NZ": VariantNZ} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				Variant: v,
				Scripts: [][]Op{{R(0), R(0)}, {W(0)}},
				Objects: 1,
				Retries: 1,
			}
			res := Check(NZSTM(cfg), Options{})
			if res.Err != nil {
				t.Fatalf("violated: %v\ntrace: %v", res.Err, res.Trace)
			}
			t.Logf("explored %d states, %d transitions", res.States, res.Transitions)

			res = Check(deregisterOnRecheck(NZSTM(cfg)), Options{})
			if res.Err == nil || !strings.Contains(res.Err.Error(), "saw object") {
				t.Fatalf("checker missed the deregister-on-recheck bug: %v", res.Err)
			}
			t.Logf("old r-recheck caught (%d steps): %v", len(res.Trace), res.Trace)
		})
	}
}

// The blocking variant with read sharing must also be safe (it just waits).
func TestRWBlockingVariant(t *testing.T) {
	res := Check(NZSTM(Config{
		Variant: VariantBZ,
		Scripts: [][]Op{{R(0)}, {W(0)}},
		Objects: 1,
		Retries: 1,
	}), Options{Coverage: []string{"inflate-observe", "w-inflate-past-reader"}})
	if res.Err != nil {
		t.Fatalf("violated: %v\ntrace: %v", res.Err, res.Trace)
	}
	if len(res.Uncovered) != 2 {
		t.Error("BZ variant must never inflate")
	}
}

// The buggy force-abort design must also be caught in the presence of
// readers: a writer that force-aborts an in-place writer while a reader
// holds its value produces either a lost update or a stale committed read.
func TestRWBuggyVariantCaught(t *testing.T) {
	res := Check(NZSTM(Config{
		Variant: VariantBuggy,
		Scripts: [][]Op{{W(0)}, {W(0)}, {R(0)}},
		Objects: 1,
		Retries: 1,
	}), Options{MaxStates: 1 << 23})
	if res.Err == nil {
		t.Fatal("checker missed the force-abort hazard with readers present")
	}
	if !strings.Contains(res.Err.Error(), "logical value") &&
		!strings.Contains(res.Err.Error(), "saw object") {
		t.Fatalf("unexpected violation kind: %v", res.Err)
	}
	t.Logf("counterexample (%d steps): %v", len(res.Trace), res.Trace)
}

// SCSS steals from a registered reader as it does from an owner
// (resolveConflict's barrier, then Acknowledge on the reader's behalf): the
// reader's read is a guarded snapshot, so once stolen from it can neither
// read nor commit, and the writer stores in place without its
// acknowledgement.
func TestSCSSStealsFromReader(t *testing.T) {
	for _, scripts := range [][][]Op{{{R(0)}, {W(0)}}, {{R(0)}, {W(0)}, {W(0)}}} {
		res := Check(NZSTM(Config{
			Variant: VariantSCSS,
			Scripts: scripts,
			Objects: 1,
			Retries: 1,
		}), Options{Coverage: []string{"w-force-abort-reader", "r-force-abort"}})
		if res.Err != nil {
			t.Fatalf("%v: violated: %v\ntrace: %v", scripts, res.Err, res.Trace)
		}
		if len(res.Uncovered) > 0 {
			t.Errorf("%v: uncovered: %v", scripts, res.Uncovered)
		}
		t.Logf("%v: explored %d states, %d transitions", scripts, res.States, res.Transitions)
	}
}
