package tmtest

import (
	"sync"
	"testing"
	"time"

	"nztm/internal/tm"
)

// RunStall exercises the paper's nonblocking property (§3) under real
// concurrency: one thread opens an object for writing and then stalls
// "forever" (from the other threads' perspective — it blocks on a channel
// mid-transaction, holding its ownership), and the remaining threads must
// keep committing transactions on that same object. Blocking designs wedge
// here: the suite fails after a generous watchdog rather than hanging.
//
// Only nonblocking systems (NZSTM, SCSS, DSTM) may be wired to this
// harness. BZSTM and the DSTM2 shadow factory wait forever for abort
// acknowledgements, and the global-lock and LogTM-SE baselines block by
// design; they must not call it. Simulator stall injection (RunSim with stallProb > 0) covers the
// same property under adversarial interleaving; this harness proves it as
// an ordinary Go library, with a truly unresponsive OS thread.
func RunStall(t *testing.T, f Factory) {
	t.Helper()
	const workers, each = 4, 150
	world := tm.NewRealWorld()
	s := f(world, workers+1)
	o := s.NewObject(tm.NewInts(1))

	stalled := make(chan struct{}) // closed once the staller holds the object
	release := make(chan struct{}) // closed when the others are done
	stallerDone := make(chan error, 1)
	go func() {
		th := tm.NewThread(workers, tm.NewRealEnv(workers, world))
		first := true
		stallerDone <- s.Atomic(th, func(tx tm.Tx) error {
			// Identity update: acquires write ownership without changing
			// the data, so the final count is exact either way.
			tx.Update(o, func(d tm.Data) { d.(*tm.Ints).V[0] += 0 })
			if first {
				first = false
				close(stalled)
				<-release // stall mid-transaction, ownership held
			}
			return nil
		})
	}()
	<-stalled

	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				th := tm.NewThread(id, tm.NewRealEnv(id, world))
				for j := 0; j < each; j++ {
					if err := s.Atomic(th, func(tx tm.Tx) error {
						tx.Update(o, func(d tm.Data) { d.(*tm.Ints).V[0]++ })
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
	}()

	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		close(release)
		t.Fatalf("%s: %d threads made no progress for 2m behind a stalled transaction — nonblocking property violated", s.Name(), workers)
	}
	close(release)
	if err := <-stallerDone; err != nil {
		t.Errorf("%s: stalled transaction finished with error: %v", s.Name(), err)
	}

	th := tm.NewThread(workers, tm.NewRealEnv(workers, world))
	var got int64
	if err := s.Atomic(th, func(tx tm.Tx) error {
		got = tx.Read(o).(*tm.Ints).V[0]
		return nil
	}); err != nil {
		t.Fatalf("%s: final read failed: %v", s.Name(), err)
	}
	if got != workers*each {
		t.Errorf("%s: counter = %d, want %d (lost or duplicated updates around the stall)", s.Name(), got, workers*each)
	}
}
