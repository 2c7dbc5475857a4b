package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"nztm/internal/audit"
	"nztm/internal/cm"
	"nztm/internal/tm"
)

func newSys(v Variant, threads int) *System {
	cfg := DefaultConfig(v, threads)
	cfg.AckPatience = 50_000 // ns in real mode
	cfg.Manager = cm.NewKarma(20_000)
	return New(tm.NewRealWorld(), cfg)
}

func thread(id int) *tm.Thread {
	return tm.NewThread(id, tm.NewRealEnv(id, tm.NewRealWorld()))
}

func counterValue(t *testing.T, s *System, th *tm.Thread, obj tm.Object) int64 {
	t.Helper()
	var v int64
	if err := s.Atomic(th, func(tx tm.Tx) error {
		v = tx.Read(obj).(*tm.Ints).V[0]
		return nil
	}); err != nil {
		t.Fatalf("read transaction failed: %v", err)
	}
	return v
}

func TestCommitSingleThread(t *testing.T) {
	for _, v := range []Variant{NZ, BZ, SCSS} {
		t.Run(v.String(), func(t *testing.T) {
			s := newSys(v, 1)
			th := thread(0)
			obj := s.NewObject(tm.NewInts(1))
			for i := 0; i < 100; i++ {
				if err := s.Atomic(th, func(tx tm.Tx) error {
					tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0]++ })
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			if got := counterValue(t, s, th, obj); got != 100 {
				t.Fatalf("counter = %d, want 100", got)
			}
			if c := s.Stats().Commits.Load(); c != 101 {
				t.Fatalf("commits = %d, want 101", c)
			}
		})
	}
}

func TestUserErrorDiscardsEffects(t *testing.T) {
	for _, v := range []Variant{NZ, BZ, SCSS} {
		t.Run(v.String(), func(t *testing.T) {
			s := newSys(v, 1)
			th := thread(0)
			obj := s.NewObject(tm.NewInts(1))
			boom := errors.New("boom")
			if err := s.Atomic(th, func(tx tm.Tx) error {
				tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 999 })
				return boom
			}); err != boom {
				t.Fatalf("err = %v, want boom", err)
			}
			if got := counterValue(t, s, th, obj); got != 0 {
				t.Fatalf("aborted write leaked: counter = %d", got)
			}
		})
	}
}

func TestReadYourWrites(t *testing.T) {
	for _, v := range []Variant{NZ, BZ, SCSS} {
		t.Run(v.String(), func(t *testing.T) {
			s := newSys(v, 1)
			th := thread(0)
			obj := s.NewObject(tm.NewInts(1))
			if err := s.Atomic(th, func(tx tm.Tx) error {
				tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 7 })
				if got := tx.Read(obj).(*tm.Ints).V[0]; got != 7 {
					t.Errorf("read-your-write = %d, want 7", got)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReadAfterAbortedOwnerSeesBackup(t *testing.T) {
	// White-box: a transaction acquires and mutates an object, then is
	// aborted without anyone restoring; a reader must see the backup value
	// (the logical pre-transaction state), not the dirty in-place data.
	s := newSys(NZ, 2)
	th0, th1 := thread(0), thread(1)
	obj := s.NewObject(tm.NewInts(1)).(*Object)

	tx1 := s.begin(th0)
	tx1.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 555 })
	tx1.status.Acknowledge() // aborts without restoring — lazy undo
	tx1.finish(false)

	if got := counterValue(t, s, th1, obj); got != 0 {
		t.Fatalf("reader saw %d, want backup value 0", got)
	}

	// A subsequent writer must restore the backup before building on it.
	if err := s.Atomic(th1, func(tx tm.Tx) error {
		tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] += 3 })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, s, th1, obj); got != 3 {
		t.Fatalf("after restore+increment: %d, want 3", got)
	}
}

func TestAbortRequestProtocol(t *testing.T) {
	// White-box: tx2 conflicts with an unresponsive tx1 and, in the NZ
	// variant, inflates the object; tx1's late commit must fail.
	cfg := DefaultConfig(NZ, 2)
	cfg.AckPatience = 1 // declare unresponsiveness almost immediately
	cfg.Manager = cm.NewKarma(1)
	s := New(tm.NewRealWorld(), cfg)
	th0, th1 := thread(0), thread(1)
	obj := s.NewObject(tm.NewInts(1)).(*Object)

	tx1 := s.begin(th0)
	tx1.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 111 })
	// tx1 now goes silent (no validation points) — unresponsive.

	done := make(chan error)
	go func() {
		done <- s.Atomic(th1, func(tx tm.Tx) error {
			tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 222 })
			return nil
		})
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s.Stats().Inflations.Load() == 0 {
		t.Fatal("expected an inflation past the unresponsive owner")
	}
	if !tx1.status.AbortRequested() && tx1.status.State() == tm.Active {
		t.Fatal("tx1 was never asked to abort")
	}
	if tx1.status.TryCommit() {
		t.Fatal("unresponsive transaction committed after being displaced")
	}
	tx1.status.Acknowledge()
	tx1.finish(false)

	// With tx1 finally acknowledged, a new writer deflates and proceeds.
	if err := s.Atomic(th1, func(tx tm.Tx) error {
		tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0]++ })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Deflations.Load() == 0 {
		t.Fatal("expected a deflation once the zombie acknowledged")
	}
	if got := counterValue(t, s, th1, obj); got != 223 {
		t.Fatalf("final value %d, want 223 (222 then +1)", got)
	}
	if obj.owner.Load().loc != nil {
		t.Fatal("object still inflated after deflation")
	}
}

func TestBZSTMNeverInflates(t *testing.T) {
	cfg := DefaultConfig(BZ, 2)
	cfg.Manager = cm.NewKarma(100)
	s := New(tm.NewRealWorld(), cfg)
	th0, th1 := thread(0), thread(1)
	obj := s.NewObject(tm.NewInts(1))

	tx1 := s.begin(th0)
	tx1.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 1 })

	done := make(chan error)
	go func() {
		done <- s.Atomic(th1, func(tx tm.Tx) error {
			tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 2 })
			return nil
		})
	}()
	// The blocking variant must wait for the acknowledgement; give it one.
	for tx1.status.RequestAbort() == tm.Active && !tx1.status.AbortRequested() {
	}
	tx1.status.Acknowledge()
	tx1.finish(false)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s.Stats().Inflations.Load() != 0 {
		t.Fatal("BZSTM inflated an object")
	}
	if got := counterValue(t, s, th1, obj); got != 2 {
		t.Fatalf("value %d, want 2", got)
	}
}

func TestSCSSStealsFromUnresponsiveOwner(t *testing.T) {
	cfg := DefaultConfig(SCSS, 2)
	cfg.AckPatience = 1
	cfg.Manager = cm.NewKarma(1)
	s := New(tm.NewRealWorld(), cfg)
	th0, th1 := thread(0), thread(1)
	obj := s.NewObject(tm.NewInts(1))

	tx1 := s.begin(th0)
	tx1.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 111 })
	// tx1 goes silent; SCSS does not inflate — it barriers and steals.

	if err := s.Atomic(th1, func(tx tm.Tx) error {
		tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 5 })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Inflations.Load() != 0 {
		t.Fatal("SCSS inflated an object")
	}
	if tx1.status.State() != tm.Aborted {
		t.Fatal("stolen-from transaction not marked aborted")
	}
	if got := counterValue(t, s, th1, obj); got != 5 {
		t.Fatalf("value %d, want 5 (zombie's 111 must be undone)", got)
	}
}

func TestConcurrentCounter(t *testing.T) {
	const workers, each = 8, 200
	for _, v := range []Variant{NZ, BZ, SCSS} {
		t.Run(v.String(), func(t *testing.T) {
			s := newSys(v, workers)
			obj := s.NewObject(tm.NewInts(1))
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := thread(id)
					for i := 0; i < each; i++ {
						if err := s.Atomic(th, func(tx tm.Tx) error {
							tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0]++ })
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if got := counterValue(t, s, thread(0), obj); got != workers*each {
				t.Fatalf("counter = %d, want %d", got, workers*each)
			}
		})
	}
}

// TestBankInvariant transfers money between accounts while concurrent
// read-only auditors verify, inside their own transactions, that the total
// is conserved — any torn or inconsistent read breaks it.
func TestBankInvariant(t *testing.T) {
	const accounts, workers, each, initial = 10, 6, 150, 1000
	for _, v := range []Variant{NZ, BZ, SCSS} {
		t.Run(v.String(), func(t *testing.T) {
			s := newSys(v, workers)
			objs := make([]tm.Object, accounts)
			for i := range objs {
				d := tm.NewInts(1)
				d.V[0] = initial
				objs[i] = s.NewObject(d)
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := thread(id)
					for i := 0; i < each; i++ {
						if id%3 == 2 {
							// Auditor: read all accounts in one transaction.
							var sum int64
							if err := s.Atomic(th, func(tx tm.Tx) error {
								sum = 0
								for _, o := range objs {
									sum += tx.Read(o).(*tm.Ints).V[0]
								}
								return nil
							}); err != nil {
								t.Error(err)
								return
							}
							if sum != accounts*initial {
								t.Errorf("audit saw total %d, want %d", sum, accounts*initial)
								return
							}
							continue
						}
						from := (id + i) % accounts
						to := (id + i + 1 + i%7) % accounts
						if from == to {
							continue
						}
						amt := int64(i%20 + 1)
						if err := s.Atomic(th, func(tx tm.Tx) error {
							tx.Update(objs[from], func(d tm.Data) { d.(*tm.Ints).V[0] -= amt })
							tx.Update(objs[to], func(d tm.Data) { d.(*tm.Ints).V[0] += amt })
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			var total int64
			th := thread(0)
			for _, o := range objs {
				total += counterValue(t, s, th, o)
			}
			if total != accounts*initial {
				t.Fatalf("total = %d, want %d", total, accounts*initial)
			}
		})
	}
}

// TestBankInvariantUnderInflation repeats the bank test with a pathological
// configuration (immediate unresponsiveness declarations) so that the
// inflation/deflation path is exercised constantly. Besides the final sum,
// the run is audited: every committed transaction's versioned reads and
// writes must form a serializable history.
func TestBankInvariantUnderInflation(t *testing.T) {
	const accounts, workers, each, initial = 6, 6, 120, 100
	cfg := DefaultConfig(NZ, workers)
	cfg.AckPatience = 1 // everything looks unresponsive
	cfg.Manager = cm.NewKarma(1)
	s := New(tm.NewRealWorld(), cfg)
	a := audit.New(s)
	objs := make([]tm.Object, accounts)
	for i := range objs {
		d := tm.NewInts(1)
		d.V[0] = initial
		objs[i] = a.NewObject(d)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := thread(id)
			for i := 0; i < each; i++ {
				from, to := (id+i)%accounts, (id*3+i+1)%accounts
				if from == to {
					continue
				}
				if err := a.Atomic(th, func(tx tm.Tx) error {
					tx.Update(objs[from], func(d tm.Data) { d.(*tm.Ints).V[0]-- })
					tx.Update(objs[to], func(d tm.Data) { d.(*tm.Ints).V[0]++ })
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	if err := a.Atomic(thread(0), func(tx tm.Tx) error {
		total = 0
		for _, o := range objs {
			total += tx.Read(o).(*tm.Ints).V[0]
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total != accounts*initial {
		t.Fatalf("total = %d, want %d (inflations=%d deflations=%d)",
			total, accounts*initial,
			s.Stats().Inflations.Load(), s.Stats().Deflations.Load())
	}
	if err := audit.Check(a.Log()); err != nil {
		t.Fatalf("not serializable: %v (inflations=%d deflations=%d)", err,
			s.Stats().Inflations.Load(), s.Stats().Deflations.Load())
	}
}

// TestOracleSequence drives random single-threaded transactions against a
// plain-map oracle.
func TestOracleSequence(t *testing.T) {
	for _, v := range []Variant{NZ, BZ, SCSS} {
		t.Run(v.String(), func(t *testing.T) {
			s := newSys(v, 1)
			th := thread(0)
			const regs = 8
			objs := make([]tm.Object, regs)
			oracle := make([]int64, regs)
			for i := range objs {
				objs[i] = s.NewObject(tm.NewInts(1))
			}
			rng := uint64(12345)
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			for step := 0; step < 2000; step++ {
				i := int(next() % regs)
				switch next() % 3 {
				case 0: // write
					val := int64(next() % 1000)
					if err := s.Atomic(th, func(tx tm.Tx) error {
						tx.Update(objs[i], func(d tm.Data) { d.(*tm.Ints).V[0] = val })
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					oracle[i] = val
				case 1: // read-modify-write of two registers
					j := int(next() % regs)
					if err := s.Atomic(th, func(tx tm.Tx) error {
						a := tx.Read(objs[i]).(*tm.Ints).V[0]
						tx.Update(objs[j], func(d tm.Data) { d.(*tm.Ints).V[0] += a })
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					oracle[j] += oracle[i]
					if i == j {
						// reading then adding the same register doubles it;
						// the oracle above already did that via aliasing? No:
						// oracle[j] += oracle[i] with i==j doubles correctly.
						_ = i
					}
				case 2: // failed transaction must change nothing
					e := errors.New("nope")
					if err := s.Atomic(th, func(tx tm.Tx) error {
						tx.Update(objs[i], func(d tm.Data) { d.(*tm.Ints).V[0] = -1 })
						return e
					}); err != e {
						t.Fatal(err)
					}
				}
				if got := counterValue(t, s, th, objs[i]); got != oracle[i] {
					t.Fatalf("step %d: reg %d = %d, oracle %d", step, i, got, oracle[i])
				}
			}
		})
	}
}

func TestVariantString(t *testing.T) {
	if NZ.String() != "NZSTM" || BZ.String() != "BZSTM" || SCSS.String() != "SCSS" {
		t.Fatal("variant names wrong")
	}
	if Variant(9).String() != "invalid" {
		t.Fatal("unknown variant must print invalid")
	}
}

func TestThreadIDRangeChecked(t *testing.T) {
	// Threads is only a sizing hint now: IDs beyond it are accepted (the
	// reader tables grow), but negative IDs and IDs at or beyond MaxThreads
	// still panic.
	s := newSys(NZ, 2)
	if err := s.Atomic(thread(5), func(tx tm.Tx) error { return nil }); err != nil {
		t.Fatalf("thread ID beyond the hint must be accepted: %v", err)
	}
	for _, id := range []int{-1, s.Config().MaxThreads} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for thread ID %d", id)
				}
			}()
			_ = s.Atomic(thread(id), func(tx tm.Tx) error { return nil })
		}()
	}
}

func TestBackupPoolingAcrossTransactions(t *testing.T) {
	s := newSys(NZ, 1)
	th := thread(0)
	obj := s.NewObject(tm.NewInts(4))
	for i := 0; i < 50; i++ {
		if err := s.Atomic(th, func(tx tm.Tx) error {
			tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0]++ })
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if r := s.Stats().BackupReuse.Load(); r < 40 {
		t.Fatalf("backup reuse = %d, want most of 50 acquisitions pooled", r)
	}
}

func TestStatsViewRates(t *testing.T) {
	s := newSys(NZ, 1)
	s.Stats().Commits.Store(80)
	s.Stats().Aborts.Store(20)
	v := s.Stats().View()
	if v.AbortRate() != 0.2 {
		t.Fatalf("abort rate %f, want 0.2", v.AbortRate())
	}
}

func TestManyObjectsManyThreads(t *testing.T) {
	// A wider smoke test mixing reads and writes across many objects.
	const objects, workers, each = 64, 8, 100
	for _, v := range []Variant{NZ, SCSS} {
		t.Run(v.String(), func(t *testing.T) {
			s := newSys(v, workers)
			objs := make([]tm.Object, objects)
			for i := range objs {
				objs[i] = s.NewObject(tm.NewInts(2))
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := thread(id)
					for i := 0; i < each; i++ {
						a := objs[(id*31+i)%objects]
						b := objs[(id*17+i*3)%objects]
						if err := s.Atomic(th, func(tx tm.Tx) error {
							x := tx.Read(a).(*tm.Ints).V[0]
							tx.Update(b, func(d tm.Data) {
								ints := d.(*tm.Ints)
								ints.V[0]++
								ints.V[1] = x
							})
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			var total int64
			th := thread(0)
			for _, o := range objs {
				total += counterValue(t, s, th, o)
			}
			if total != workers*each {
				t.Fatalf("sum of increments = %d, want %d", total, workers*each)
			}
		})
	}
}

func ExampleSystem_Atomic() {
	s := NewNZSTM(tm.NewRealWorld(), 1)
	th := tm.NewThread(0, tm.NewRealEnv(0, tm.NewRealWorld()))
	account := s.NewObject(tm.NewInts(1))
	_ = s.Atomic(th, func(tx tm.Tx) error {
		tx.Update(account, func(d tm.Data) { d.(*tm.Ints).V[0] += 42 })
		return nil
	})
	_ = s.Atomic(th, func(tx tm.Tx) error {
		fmt.Println(tx.Read(account).(*tm.Ints).V[0])
		return nil
	})
	// Output: 42
}
