// Package mc is a small explicit-state model checker in the spirit of SPIN,
// which the paper used (via Promela models) to gain confidence in NZSTM's
// correctness (§3): "Spin can perform exhaustive searches of all possible
// executions of a given model; applying sanity checks; and finding
// unreachable code, deadlocks, and cycles."
//
// Check performs a breadth-first exhaustive search over all interleavings
// of a model's per-thread atomic steps, verifying a state invariant
// everywhere, a final-state predicate at quiescence, detecting deadlocks
// (non-final states where no thread can step), and reporting action
// coverage (the unreachable-code check). Counterexamples are reported as
// the sequence of actions leading to the bad state.
package mc

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
)

// State is a model state. Implementations are value-like: Step functions
// receive a private copy they may mutate and return.
type State interface {
	// Key returns a canonical encoding; states with equal keys are merged.
	Key() string
	// Clone returns a deep copy.
	Clone() State
}

// Action is one named atomic step a thread may take.
type Action struct {
	// Name identifies the action for coverage reporting and traces.
	Name string
	// Next returns the successor state (it owns s and may mutate it).
	Next func(s State) State
}

// Model describes the system to check.
type Model struct {
	Name string
	Init State

	// Enabled returns the atomic actions thread tid can take in state s.
	// An empty result means the thread is blocked (or finished) in s.
	Enabled func(s State, tid int) []Action

	Threads int

	// Invariant is checked in every reachable state; a non-nil error is a
	// violation.
	Invariant func(s State) error

	// Final reports whether a fully-blocked state is an acceptable end
	// state; a blocked non-final state is a deadlock.
	Final func(s State) bool
}

// Result summarises a check.
type Result struct {
	States      int      // distinct states explored
	Transitions int      // transitions taken
	Deadlocks   int      // deadlocked states found
	Covered     []string // action names seen at least once
	Uncovered   []string // action names declared via Coverage but never seen

	// Err is the first violation found (invariant failure or deadlock),
	// with Trace the action sequence reaching it.
	Err   error
	Trace []string
}

// Options tunes a check.
type Options struct {
	MaxStates int // abort the search beyond this many states (0 = 1<<22)

	// Coverage lists action names that are expected to occur in some
	// execution; unreached ones are reported in Result.Uncovered.
	Coverage []string
}

// visited is the set of explored states, each with the state and action it
// was first reached by. Keys are stored back to back in one arena and the
// hash table holds state numbers, so none of it is a pointer the collector
// has to follow.
type visited struct {
	seed   maphash.Seed
	arena  []byte
	end    []int   // state i's key is arena[end[i-1]:end[i]]
	table  []int32 // open addressing: state number + 1, 0 = empty
	parent []int32
	via    []uint16 // index into names
	names  []string
	ids    map[string]uint16
}

func (v *visited) key(i int32) []byte {
	start := 0
	if i > 0 {
		start = v.end[i-1]
	}
	return v.arena[start:v.end[i]]
}

// add records the state with key k as reached from state from by action,
// unless it is known already. It returns the state's number and whether it
// is new.
func (v *visited) add(k string, from int32, action string) (int32, bool) {
	if 2*len(v.parent) >= len(v.table) {
		v.table = make([]int32, max(1<<10, 2*len(v.table)))
		mask := len(v.table) - 1
		for i := range v.parent {
			h := int(maphash.Bytes(v.seed, v.key(int32(i)))) & mask
			for v.table[h] != 0 {
				h = (h + 1) & mask
			}
			v.table[h] = int32(i) + 1
		}
	}
	h := v.slot(k)
	if i := v.table[h] - 1; i >= 0 {
		return i, false
	}
	id := int32(len(v.parent))
	v.table[h] = id + 1
	v.arena = append(v.arena, k...)
	v.end = append(v.end, len(v.arena))
	v.parent = append(v.parent, from)
	n, ok := v.ids[action]
	if !ok {
		n = uint16(len(v.names))
		v.ids[action] = n
		v.names = append(v.names, action)
	}
	v.via = append(v.via, n)
	return id, true
}

// slot returns the table slot that holds k, or the empty one it belongs in.
func (v *visited) slot(k string) int {
	mask := len(v.table) - 1
	for h := int(maphash.String(v.seed, k)) & mask; ; h = (h + 1) & mask {
		if i := v.table[h] - 1; i < 0 || string(v.key(i)) == k {
			return h
		}
	}
}

// Check exhaustively explores the model.
func Check(m Model, opt Options) Result {
	maxStates := opt.MaxStates
	if maxStates <= 0 {
		maxStates = 1 << 22
	}

	res := Result{}
	covered := make(map[string]bool)
	seen := &visited{seed: maphash.MakeSeed(), ids: map[string]uint16{}}
	root, _ := seen.add(m.Init.Key(), -1, "")

	type qent struct {
		s  State
		id int32
	}
	queue := []qent{{s: m.Init.Clone(), id: root}}

	fail := func(id int32, err error) Result {
		res.Err = err
		for at := id; at > 0; at = seen.parent[at] {
			res.Trace = append(res.Trace, seen.names[seen.via[at]])
		}
		slices.Reverse(res.Trace) // to chronological order
		res.finishCoverage(covered, opt)
		return res
	}

	if m.Invariant != nil {
		if err := m.Invariant(m.Init); err != nil {
			return fail(root, fmt.Errorf("invariant violated in initial state: %w", err))
		}
	}

	for len(queue) > 0 {
		cur := queue[0]
		queue[0] = qent{} // the explored state is garbage now
		queue = queue[1:]
		res.States++
		if res.States > maxStates {
			res.Err = fmt.Errorf("state budget exceeded (%d states)", maxStates)
			res.finishCoverage(covered, opt)
			return res
		}

		anyEnabled := false
		for tid := 0; tid < m.Threads; tid++ {
			for _, a := range m.Enabled(cur.s, tid) {
				anyEnabled = true
				covered[a.Name] = true
				next := a.Next(cur.s.Clone())
				res.Transitions++
				id, fresh := seen.add(next.Key(), cur.id, a.Name)
				if !fresh {
					continue
				}
				if m.Invariant != nil {
					if err := m.Invariant(next); err != nil {
						return fail(id, fmt.Errorf("invariant violated: %w", err))
					}
				}
				queue = append(queue, qent{s: next, id: id})
			}
		}
		if !anyEnabled {
			if m.Final == nil || !m.Final(cur.s) {
				res.Deadlocks++
				return fail(cur.id, fmt.Errorf("deadlock: all %d threads blocked in a non-final state", m.Threads))
			}
		}
	}

	res.finishCoverage(covered, opt)
	return res
}

func (r *Result) finishCoverage(covered map[string]bool, opt Options) {
	for name := range covered {
		r.Covered = append(r.Covered, name)
	}
	sort.Strings(r.Covered)
	for _, want := range opt.Coverage {
		if !covered[want] {
			r.Uncovered = append(r.Uncovered, want)
		}
	}
	sort.Strings(r.Uncovered)
}
