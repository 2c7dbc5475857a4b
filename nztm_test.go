package nztm_test

import (
	"fmt"
	"sync"
	"testing"

	"nztm"
)

func ExampleNewNZSTM() {
	sys := nztm.NewNZSTM(1)
	th := nztm.NewThread(0)
	account := sys.NewObject(nztm.NewInts(1))
	_ = sys.Atomic(th, func(tx nztm.Tx) error {
		tx.Update(account, func(d nztm.Data) { d.(*nztm.Ints).V[0] = 100 })
		return nil
	})
	var balance int64
	_ = sys.Atomic(th, func(tx nztm.Tx) error {
		balance = tx.Read(account).(*nztm.Ints).V[0]
		return nil
	})
	fmt.Println(balance)
	// Output: 100
}

func TestFacadeConstructors(t *testing.T) {
	systems := []nztm.System{
		nztm.NewNZSTM(2), nztm.NewBZSTM(2), nztm.NewSCSS(2),
		nztm.NewDSTM(2), nztm.NewDSTM2SF(2), nztm.NewLogTMSE(2),
		nztm.NewNZTM(2), nztm.NewGlobalLock(),
	}
	for _, sys := range systems {
		t.Run(sys.Name(), func(t *testing.T) {
			th := nztm.NewThread(0)
			o := sys.NewObject(nztm.NewInts(1))
			for i := 0; i < 10; i++ {
				if err := sys.Atomic(th, func(tx nztm.Tx) error {
					tx.Update(o, func(d nztm.Data) { d.(*nztm.Ints).V[0]++ })
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			var v int64
			if err := sys.Atomic(th, func(tx nztm.Tx) error {
				v = tx.Read(o).(*nztm.Ints).V[0]
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if v != 10 {
				t.Fatalf("counter = %d", v)
			}
			if sys.Stats().View().Commits == 0 {
				t.Fatal("no commits recorded")
			}
		})
	}
}

func TestFacadeSets(t *testing.T) {
	sys := nztm.NewNZSTM(4)
	for name, set := range map[string]nztm.Set{
		"list": nztm.NewLinkedList(sys),
		"hash": nztm.NewHashTable(sys, 32),
		"tree": nztm.NewRBTree(sys),
	} {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := nztm.NewThread(id)
					for k := int64(0); k < 50; k++ {
						key := int64(id)*100 + k
						if ok, err := set.Insert(th, key); err != nil || !ok {
							t.Errorf("insert(%d) = %v, %v", key, ok, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			snap, err := set.Snapshot(nztm.NewThread(0))
			if err != nil {
				t.Fatal(err)
			}
			if len(snap) != 200 {
				t.Fatalf("set holds %d keys, want 200", len(snap))
			}
		})
	}
}

func TestFacadeSimulation(t *testing.T) {
	m := nztm.NewMachine(4)
	sys := nztm.NewSimNZTM(m, 4)
	o := sys.NewObject(nztm.NewInts(1))
	cycles := nztm.RunSim(m, 4, func(th *nztm.Thread) {
		for i := 0; i < 25; i++ {
			if err := sys.Atomic(th, func(tx nztm.Tx) error {
				tx.Update(o, func(d nztm.Data) { d.(*nztm.Ints).V[0]++ })
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if cycles == 0 {
		t.Fatal("no simulated time elapsed")
	}
	var v int64
	nztm.RunSim(m, 1, func(th *nztm.Thread) {
		_ = sys.Atomic(th, func(tx nztm.Tx) error {
			v = tx.Read(o).(*nztm.Ints).V[0]
			return nil
		})
	})
	if v != 100 {
		t.Fatalf("counter = %d, want 100", v)
	}
	if sys.Stats().View().HWCommits == 0 {
		t.Fatal("simulated hybrid never used hardware")
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() uint64 {
		m := nztm.NewMachine(3)
		sys := nztm.NewSimNZSTM(m, 3)
		set := nztm.NewRBTree(sys)
		return nztm.RunSim(m, 3, func(th *nztm.Thread) {
			for k := int64(0); k < 30; k++ {
				if _, err := set.Insert(th, int64(th.ID)*1000+k*7%100); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("simulation not deterministic: %d vs %d cycles", a, b)
	}
}

func TestFacadeInvisibleReaders(t *testing.T) {
	sys := nztm.NewNZSTMInvisible(4)
	set := nztm.NewRBTree(sys)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := nztm.NewThread(id)
			for k := int64(0); k < 60; k++ {
				if _, err := set.Insert(th, int64(id)*100+k%40); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	snap, err := set.Snapshot(nztm.NewThread(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 160 {
		t.Fatalf("set holds %d keys, want 160", len(snap))
	}
}

func TestFacadeAudit(t *testing.T) {
	s := nztm.NewAudited(nztm.NewNZSTM(4))
	o := s.NewObject(nztm.NewInts(1))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := nztm.NewThread(id)
			for i := 0; i < 100; i++ {
				if err := s.Atomic(th, func(tx nztm.Tx) error {
					v := tx.Read(o).(*nztm.Ints).V[0]
					tx.Update(o, func(d nztm.Data) { d.(*nztm.Ints).V[0] = v + 1 })
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := nztm.CheckAudit(s.Log()); err != nil {
		t.Fatalf("not serializable: %v", err)
	}
}

// TestAtomicRealModeAllocFree is the allocation-regression gate for the
// transaction hot path (run by `make check`): an uncontended read-write
// transaction on NZSTM in real mode makes one allocation per attempt: the
// descriptor. The per-thread scratch, the backup pool and the bump arenas
// cover everything else; arena refills (one slice per 64 entries) amortise
// to well under one allocation per transaction, hence the < 1.5 threshold
// rather than an exact one.
func TestAtomicRealModeAllocFree(t *testing.T) {
	// The transaction function and update callback are hoisted out of the
	// loop, as a steady-state caller would: the gate measures the library
	// hot path, not per-iteration closure construction in the caller.
	t.Run("nzstm", func(t *testing.T) {
		sys, reg := nztm.NewNZSTMDynamic(4, 0)
		o := sys.NewObject(nztm.NewInts(4))
		th := reg.NewThread()
		defer th.Close()
		var v int64
		upd := func(d nztm.Data) { d.(*nztm.Ints).V[0] = v + 1 }
		fn := func(tx nztm.Tx) error {
			v = tx.Read(o).(*nztm.Ints).V[0]
			tx.Update(o, upd)
			return nil
		}
		run := func() {
			if err := sys.Atomic(th, fn); err != nil {
				t.Fatal(err)
			}
		}
		// Warm the pools and arenas out of the measurement.
		for i := 0; i < 200; i++ {
			run()
		}
		if avg := testing.AllocsPerRun(500, run); avg >= 1.5 {
			t.Errorf("uncontended read-write transaction allocates %.2f allocs/op; want ~1 (the descriptor)", avg)
		}
	})
}

// TestTracingAllocGuard is the observability-plane allocation gate (run by
// `make check`): with no flight recorder bound, the hot path makes one
// allocation per attempt: the descriptor, exactly as
// TestAtomicRealModeAllocFree demands; with tracing enabled, recording into
// the preallocated per-thread ring may cost at most 2 allocs/op (in practice
// it adds none — events are atomic stores into a fixed ring).
func TestTracingAllocGuard(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tracing bool
		limit   float64
	}{
		{"disabled", false, 1.5},
		{"enabled", true, 2.0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, reg := nztm.NewNZSTMDynamic(4, 0)
			if tc.tracing {
				reg.BindRecorder(nztm.NewFlightRecorder(1024))
			}
			o := sys.NewObject(nztm.NewInts(4))
			th := reg.NewThread()
			defer th.Close()
			if tc.tracing && th.Recorder() == nil {
				t.Fatal("registry-minted thread has no recorder despite BindRecorder")
			}
			var v int64
			upd := func(d nztm.Data) { d.(*nztm.Ints).V[0] = v + 1 }
			fn := func(tx nztm.Tx) error {
				v = tx.Read(o).(*nztm.Ints).V[0]
				tx.Update(o, upd)
				return nil
			}
			run := func() {
				if err := sys.Atomic(th, fn); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 200; i++ {
				run()
			}
			if avg := testing.AllocsPerRun(500, run); avg >= tc.limit {
				t.Errorf("tracing %s: %.2f allocs/op, want < %.1f", tc.name, avg, tc.limit)
			}
		})
	}
}

// TestTracingUnderContention drives contended transactions with tracing on
// and checks the recorder captured the conflict story: commits, conflicts,
// and contention-manager decisions, in per-thread order. Run under -race by
// `make check` (race-tracing), this is also the tracing-enabled race gate.
func TestTracingUnderContention(t *testing.T) {
	sys, reg := nztm.NewNZSTMDynamic(4, 0)
	fr := nztm.NewFlightRecorder(4096)
	reg.BindRecorder(fr)
	o := sys.NewObject(nztm.NewInts(1))

	const workers, each = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := reg.NewThread()
			defer th.Close()
			for i := 0; i < each; i++ {
				sys.Atomic(th, func(tx nztm.Tx) error {
					tx.Update(o, func(d nztm.Data) { d.(*nztm.Ints).V[0]++ })
					return nil
				})
			}
		}()
	}
	wg.Wait()

	var total int64
	th := reg.NewThread()
	defer th.Close()
	sys.Atomic(th, func(tx nztm.Tx) error {
		total = tx.Read(o).(*nztm.Ints).V[0]
		return nil
	})
	if total != workers*each {
		t.Fatalf("counter = %d, want %d", total, workers*each)
	}

	commits := 0
	for _, src := range fr.Snapshot() {
		last := uint64(0)
		for _, e := range src.Events {
			if e.Seq <= last {
				t.Fatalf("source %d events out of order: seq %d after %d", src.Source, e.Seq, last)
			}
			last = e.Seq
			if e.Kind.String() == "commit" {
				commits++
			}
		}
	}
	if commits == 0 {
		t.Fatal("no commit events recorded under contention")
	}
	if fr.Count() == 0 {
		t.Fatal("flight recorder is empty")
	}
}
