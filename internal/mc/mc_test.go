package mc

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// ---- checker machinery tests on a tiny hand-made model ----

type counterState struct {
	vals [2]int
}

func (s *counterState) Key() string { return fmt.Sprint(s.vals) }
func (s *counterState) Clone() State {
	c := *s
	return &c
}

func TestCheckExploresAllInterleavings(t *testing.T) {
	// Two threads each increment their own counter twice: 6 interleavings,
	// 9 distinct states.
	m := Model{
		Name:    "counters",
		Init:    &counterState{},
		Threads: 2,
		Enabled: func(st State, tid int) []Action {
			s := st.(*counterState)
			if s.vals[tid] >= 2 {
				return nil
			}
			return []Action{{
				Name: fmt.Sprintf("inc%d", tid),
				Next: func(st State) State {
					st.(*counterState).vals[tid]++
					return st
				},
			}}
		},
		Final: func(st State) bool {
			s := st.(*counterState)
			return s.vals[0] == 2 && s.vals[1] == 2
		},
	}
	res := Check(m, Options{Coverage: []string{"inc0", "inc1", "never"}})
	if res.Err != nil {
		t.Fatalf("unexpected error: %v", res.Err)
	}
	if res.States != 9 {
		t.Errorf("states = %d, want 9", res.States)
	}
	if len(res.Uncovered) != 1 || res.Uncovered[0] != "never" {
		t.Errorf("uncovered = %v, want [never]", res.Uncovered)
	}
}

func TestCheckFindsDeadlock(t *testing.T) {
	// A thread that blocks forever in a non-final state.
	m := Model{
		Name:    "stuck",
		Init:    &counterState{},
		Threads: 1,
		Enabled: func(st State, tid int) []Action {
			s := st.(*counterState)
			if s.vals[0] == 1 {
				return nil // blocked
			}
			return []Action{{Name: "step", Next: func(st State) State {
				st.(*counterState).vals[0] = 1
				return st
			}}}
		},
		Final: func(State) bool { return false },
	}
	res := Check(m, Options{})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "deadlock") {
		t.Fatalf("expected deadlock, got %v", res.Err)
	}
	if len(res.Trace) != 1 || res.Trace[0] != "step" {
		t.Errorf("trace = %v, want [step]", res.Trace)
	}
}

func TestCheckFindsInvariantViolationWithTrace(t *testing.T) {
	bad := errors.New("bad state")
	m := Model{
		Name:    "inv",
		Init:    &counterState{},
		Threads: 1,
		Enabled: func(st State, tid int) []Action {
			s := st.(*counterState)
			if s.vals[0] >= 3 {
				return nil
			}
			return []Action{{Name: "step", Next: func(st State) State {
				st.(*counterState).vals[0]++
				return st
			}}}
		},
		Invariant: func(st State) error {
			if st.(*counterState).vals[0] == 2 {
				return bad
			}
			return nil
		},
		Final: func(State) bool { return true },
	}
	res := Check(m, Options{})
	if res.Err == nil || !errors.Is(res.Err, bad) {
		t.Fatalf("expected invariant violation, got %v", res.Err)
	}
	if len(res.Trace) != 2 {
		t.Errorf("trace length = %d (%v), want 2 steps to reach vals=2", len(res.Trace), res.Trace)
	}
}

func TestCheckStateBudget(t *testing.T) {
	m := Model{
		Name:    "unbounded",
		Init:    &counterState{},
		Threads: 1,
		Enabled: func(st State, tid int) []Action {
			return []Action{{Name: "grow", Next: func(st State) State {
				s := st.(*counterState)
				s.vals[0]++ // never terminates (until int wraps)
				return s
			}}}
		},
		Final: func(State) bool { return true },
	}
	res := Check(m, Options{MaxStates: 50})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "budget") {
		t.Fatalf("expected budget error, got %v", res.Err)
	}
}

// ---- NZSTM protocol model checks (the paper's §3, mechanised) ----

// writers returns n scripts that each write object 0.
func writers(n int) [][]Op {
	scripts := make([][]Op, n)
	for i := range scripts {
		scripts[i] = []Op{W(0)}
	}
	return scripts
}

func TestNZSTMTwoThreadsOneObject(t *testing.T) {
	res := Check(NZSTM(Config{
		Variant: VariantNZ,
		Scripts: writers(2),
		Objects: 1,
		Retries: 1,
	}), Options{Coverage: []string{
		"observe", "request-abort", "inflate-observe", "inflate-cas",
		"deflate", "deflate-copy", "cas-owner", "restore", "backup", "ready",
		"validate-ack", "validate-ok",
		"write", "commit", "retry", "cm-abort-self",
		"loc-replace", "loc-request-abort",
		"w-request-reader-abort", "w-inflate-past-reader",
	}})
	if res.Err != nil {
		t.Fatalf("NZSTM model violated: %v\ntrace: %v", res.Err, res.Trace)
	}
	if len(res.Uncovered) > 0 {
		t.Errorf("uncovered protocol actions: %v (all code paths should be reachable, §3)", res.Uncovered)
	}
	if res.States < 1000 {
		t.Errorf("suspiciously small state space: %d states", res.States)
	}
	t.Logf("explored %d states, %d transitions", res.States, res.Transitions)
}

func TestNZSTMCrossedScripts(t *testing.T) {
	// Two objects acquired in opposite orders: the classic deadlock shape.
	res := Check(NZSTM(Config{
		Variant: VariantNZ,
		Scripts: [][]Op{{W(0), W(1)}, {W(1), W(0)}},
		Objects: 2,
		Retries: 1,
	}), Options{})
	if res.Err != nil {
		t.Fatalf("crossed-script model violated: %v\ntrace: %v", res.Err, res.Trace)
	}
	t.Logf("explored %d states, %d transitions", res.States, res.Transitions)
}

func TestBZSTMModelBlocksButSafe(t *testing.T) {
	res := Check(NZSTM(Config{
		Variant: VariantBZ,
		Scripts: writers(2),
		Objects: 1,
		Retries: 1,
	}), Options{Coverage: []string{"inflate-observe"}})
	if res.Err != nil {
		t.Fatalf("BZSTM model violated: %v\ntrace: %v", res.Err, res.Trace)
	}
	if len(res.Uncovered) != 1 {
		t.Error("BZSTM must never inflate")
	}
}

// The deliberately broken variant force-aborts in-place writers without the
// request/acknowledge handshake; the checker must exhibit a lost update —
// the exact hazard §2 argues makes naive nonblocking in-place STMs unsound.
func TestBuggyForceAbortIsCaught(t *testing.T) {
	res := Check(NZSTM(Config{
		Variant: VariantBuggy,
		Scripts: writers(2),
		Objects: 1,
		Retries: 1,
	}), Options{})
	if res.Err == nil {
		t.Fatal("checker failed to find the late-write corruption")
	}
	if !strings.Contains(res.Err.Error(), "logical value") {
		t.Fatalf("unexpected violation kind: %v", res.Err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no counterexample trace")
	}
	t.Logf("counterexample (%d steps): %v", len(res.Trace), res.Trace)
}

// Three writers: an inflater that clones the in-place data registers as a
// reader, so the writer that inflates past the next owner must doom it.
func TestNZSTMThreeThreads(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space")
	}
	res := Check(NZSTM(Config{
		Variant: VariantNZ,
		Scripts: writers(3),
		Objects: 1,
		Retries: 1,
	}), Options{MaxStates: 1 << 23, Coverage: []string{"w-doom-reader"}})
	if res.Err != nil {
		t.Fatalf("3-thread model violated: %v\ntrace: %v", res.Err, res.Trace)
	}
	if len(res.Uncovered) > 0 {
		t.Errorf("uncovered: %v", res.Uncovered)
	}
	t.Logf("explored %d states, %d transitions", res.States, res.Transitions)
}

// §2.3.2's claim, mechanically verified: the very design that is broken
// without SCSS (direct force-aborts on in-place writers — see
// TestBuggyForceAbortIsCaught) becomes safe when every store is atomically
// paired with a check of the writer's own status word.
func TestSCSSVariantMakesForceAbortSafe(t *testing.T) {
	for _, n := range []int{2, 3} {
		res := Check(NZSTM(Config{
			Variant: VariantSCSS,
			Scripts: writers(n),
			Objects: 1,
			Retries: 1,
		}), Options{MaxStates: 1 << 23})
		if res.Err != nil {
			t.Fatalf("%d-thread SCSS model violated: %v\ntrace: %v", n, res.Err, res.Trace)
		}
		t.Logf("%d threads: explored %d states, %d transitions", n, res.States, res.Transitions)
	}
}

// pcBackupAfterDeflate is backupAfterDeflate's extra step.
const pcBackupAfterDeflate int8 = 40

// backupAfterDeflate is the model of the two-word design the owner word
// replaced, at the code's step granularity: deflation's CAS published the
// owner only, left the Backup Data word holding whatever it held before the
// inflation, and installed the Locator's copy as the backup in a step of
// its own before the in-place copy.
func backupAfterDeflate(m Model) Model {
	enabled := m.Enabled
	m.Enabled = func(st State, tid int) []Action {
		s := st.(*state)
		if s.Thr[tid].PC == pcBackupAfterDeflate {
			return []Action{act("deflate-backup", func(s *state) {
				o := &s.Objs[s.op(tid).Obj]
				o.Bak, o.Ready = s.Thr[tid].Bak, true
				s.Thr[tid].PC = pcDeflateCopy
			})}
		}
		acts := enabled(st, tid)
		for i, a := range acts {
			if a.Name != "deflate" {
				continue
			}
			next := a.Next
			acts[i].Next = func(st State) State {
				o := st.(*state).Objs[st.(*state).op(tid).Obj]
				s := next(st).(*state)
				obj := &s.Objs[s.op(tid).Obj]
				obj.Bak, obj.Ready = o.Bak, o.Ready
				s.Thr[tid].PC = pcBackupAfterDeflate
				return s
			}
		}
		return acts
	}
	return m
}

// ROADMAP item 1, window (1): an inflater that steps past a deflater
// between its owner CAS and its backup install adopts the backup of the
// owner before the first inflation, and every commit made through Locators
// is lost. Z owns the object and goes silent, L inflates past Z and
// commits, D deflates, and Z's retry inflates past D. The owner word that
// carries its backup closes the window; the two-word model must be caught.
func TestDeflationPublishesOwnerAndBackupTogether(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space")
	}
	res := Check(backupAfterDeflate(NZSTM(Config{
		Variant: VariantNZ,
		Scripts: writers(3),
		Objects: 1,
		Retries: 1,
	})), Options{MaxStates: 1 << 23})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "logical value") {
		t.Fatalf("checker missed the two-word deflation's lost update: %v", res.Err)
	}
	t.Logf("two-word deflation caught (%d steps): %v", len(res.Trace), res.Trace)
}
