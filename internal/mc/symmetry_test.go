package mc

import (
	"flag"
	"slices"
	"strings"
	"testing"
)

// violation names the kind of a check's error, the part a reduced and an
// unreduced search must agree on.
func violation(err error) string {
	if err == nil {
		return "none"
	}
	for _, kind := range []string{"logical value", "saw object", "AbortNowPlease", "deadlock", "budget"} {
		if strings.Contains(err.Error(), kind) {
			return kind
		}
	}
	return err.Error()
}

// suiteCase is one configuration of the suite, possibly a mutant's.
type suiteCase struct {
	name    string
	v       Variant
	scripts [][]Op
	objects int
	mutant  func(Model) Model
}

var unreduced = flag.Bool("unreduced", false,
	"also compare the searches on the large three-thread configurations (2 minutes, 2 GB)")

// The thread-symmetry key is sound: on every suite configuration whose
// unreduced search finishes in a few seconds, the reduced search reaches the
// same verdict, and either covers the same actions or fails at the same
// depth (the covered set of a failed search depends on where it stopped).
// With -unreduced the large three-thread configurations are compared too;
// NZ on {W0}x3 is not among them, because its unreduced search passes 1<<24
// states (4.6 GB).
func TestSymmetryKeepsVerdictsAndCoverage(t *testing.T) {
	same := func(m Model) Model { return m }
	cases := []suiteCase{
		{"NZ W0,W0", VariantNZ, writers(2), 1, same},
		{"BZ W0,W0", VariantBZ, writers(2), 1, same},
		{"SCSS W0,W0", VariantSCSS, writers(2), 1, same},
		{"Buggy W0,W0", VariantBuggy, writers(2), 1, same},
		{"NZ crossed", VariantNZ, [][]Op{{W(0), W(1)}, {W(1), W(0)}}, 2, same},
		{"NZ R0,W0", VariantNZ, [][]Op{{R(0)}, {W(0)}}, 1, same},
		{"BZ R0,W0", VariantBZ, [][]Op{{R(0)}, {W(0)}}, 1, same},
		{"SCSS R0,W0", VariantSCSS, [][]Op{{R(0)}, {W(0)}}, 1, same},
		{"NZ mixed", VariantNZ, [][]Op{{R(0), W(1)}, {R(1), W(0)}}, 2, same},
		{"NZ R0R0,W0", VariantNZ, [][]Op{{R(0), R(0)}, {W(0)}}, 1, same},
		{"NZ R0R0,W0 deregister", VariantNZ, [][]Op{{R(0), R(0)}, {W(0)}}, 1, deregisterOnRecheck},
		{"SCSS W0x3", VariantSCSS, writers(3), 1, same},
		{"Buggy W0,W0,R0", VariantBuggy, [][]Op{{W(0)}, {W(0)}, {R(0)}}, 1, same},
	}
	if *unreduced {
		cases = append(cases, []suiteCase{
			{"NZ R0,R0,W0", VariantNZ, [][]Op{{R(0)}, {R(0)}, {W(0)}}, 1, same},
			{"SCSS R0,W0,W0", VariantSCSS, [][]Op{{R(0)}, {W(0)}, {W(0)}}, 1, same},
			{"NZ W0x3 backupAfterDeflate", VariantNZ, writers(3), 1, backupAfterDeflate},
		}...)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Variant: c.v, Scripts: c.scripts, Objects: c.objects, Retries: 1}
			opt := Options{MaxStates: 1 << 24}
			full := Check(c.mutant(build(cfg, false)), opt)
			red := Check(c.mutant(build(cfg, true)), opt)
			if violation(full.Err) != violation(red.Err) {
				t.Fatalf("verdicts differ: unreduced %v, reduced %v", full.Err, red.Err)
			}
			if full.Err == nil && !slices.Equal(full.Covered, red.Covered) {
				t.Errorf("covered sets differ:\nunreduced %v\nreduced   %v", full.Covered, red.Covered)
			}
			if full.Err != nil && len(full.Trace) != len(red.Trace) {
				t.Errorf("counterexamples differ in length: unreduced %d, reduced %d", len(full.Trace), len(red.Trace))
			}
			if red.States > full.States {
				t.Errorf("reduced search explored more: %d > %d", red.States, full.States)
			}
			t.Logf("%s: %d states unreduced, %d reduced", violation(full.Err), full.States, red.States)
		})
	}
}

// renamed returns s with thread from[j] in slot j and every transaction id
// renamed with it, built field by field rather than through the key.
func renamed(s *state, from []int) *state {
	per, objects := s.in.Retries+1, s.in.Objects
	ren := make([]int8, len(s.Txns))
	for j, t := range from {
		for a := 0; a < per; a++ {
			ren[t*per+a] = int8(j*per + a)
		}
	}
	r := func(id int8) int8 {
		if id < 0 {
			return id
		}
		return ren[id]
	}
	c := s.Clone().(*state)
	for j, t := range from {
		c.Thr[j] = s.Thr[t]
		c.Thr[j].Obs, c.Thr[j].Enemy = r(s.Thr[t].Obs), r(s.Thr[t].Enemy)
	}
	for id := range s.Txns {
		c.Txns[ren[id]] = s.Txns[id]
		copy(c.Seen[int(ren[id])*objects:], s.Seen[id*objects:(id+1)*objects])
	}
	for oi := range s.Objs {
		c.Objs[oi].Owner, c.Objs[oi].LocAborted = r(s.Objs[oi].Owner), r(s.Objs[oi].LocAborted)
		c.Readers[oi] = 0
		for id := range s.Txns {
			if s.Readers[oi]&(1<<uint(id)) != 0 {
				c.Readers[oi] |= 1 << uint(ren[id])
			}
		}
	}
	return c
}

func TestKeyIsCanonicalUnderThreadRenaming(t *testing.T) {
	// Threads 0 and 1 write object 0 and are interchangeable; thread 2
	// reads it and is not.
	m := NZSTM(Config{Variant: VariantNZ, Scripts: [][]Op{{W(0)}, {W(0)}, {R(0)}}, Objects: 1, Retries: 1})
	s := m.Init.Clone().(*state)
	run := func(tid int, names ...string) {
		for _, name := range names {
			i := slices.IndexFunc(m.Enabled(s, tid), func(a Action) bool { return a.Name == name })
			if i < 0 {
				t.Fatalf("thread %d cannot %s", tid, name)
			}
			s = m.Enabled(s, tid)[i].Next(s.Clone()).(*state)
		}
	}
	// Thread 2 reads and stays registered; thread 0 then owns the object
	// and sees it in its reader scan; thread 1 observes thread 0's word and
	// asks it to abort.
	run(2, "observe", "r-go-register", "r-register", "r-recheck", "r-read")
	run(0, "observe", "goto-cas", "cas-owner", "backup", "ready")
	run(1, "observe", "request-abort")

	swapped := renamed(s, []int{1, 0, 2})
	if swapped.Key() != s.Key() {
		t.Error("renaming the two writers changed the key")
	}
	if renamed(s, []int{2, 1, 0}).Key() == s.Key() {
		t.Error("swapping a writer with the reader kept the key")
	}
	// Without the reduction the two are different states.
	plain := build(s.in.Config, false).Init.(*state).in
	a, b := *s, *swapped
	a.in, b.in = plain, plain
	if a.Key() == b.Key() {
		t.Error("the unreduced key merged two renamed states")
	}
}
