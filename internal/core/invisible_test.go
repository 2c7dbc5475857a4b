package core

import (
	"sync"
	"testing"

	"nztm/internal/cm"
	"nztm/internal/tm"
	"nztm/internal/tmtest"
	"nztm/internal/trace"
)

func invisibleFactory(v Variant) tmtest.Factory {
	return func(world tm.World, threads int) tm.System {
		cfg := DefaultConfig(v, threads)
		cfg.Readers = InvisibleReaders
		cfg.AckPatience = 30_000
		cfg.Manager = cm.NewKarma(15_000)
		return New(world, cfg)
	}
}

// The full conformance suite must hold with invisible readers, in both
// execution modes and for all three variants.
func TestInvisibleConformanceReal(t *testing.T) {
	for _, v := range []Variant{NZ, BZ, SCSS} {
		t.Run(v.String(), func(t *testing.T) {
			tmtest.Run(t, invisibleFactory(v))
		})
	}
}

func TestInvisibleConformanceSim(t *testing.T) {
	for _, v := range []Variant{NZ, BZ, SCSS} {
		t.Run(v.String(), func(t *testing.T) {
			tmtest.RunSim(t, invisibleFactory(v), 0)
		})
	}
}

func TestInvisibleConformanceSimWithStalls(t *testing.T) {
	tmtest.RunSim(t, invisibleFactory(NZ), 0.002)
}

// An invisible reader whose snapshot goes stale must abort at its next
// validation — and, conversely, a writer must never wait for invisible
// readers.
func TestInvisibleSnapshotStaleness(t *testing.T) {
	cfg := DefaultConfig(NZ, 2)
	cfg.Readers = InvisibleReaders
	s := New(tm.NewRealWorld(), cfg)
	th0, th1 := thread(0), thread(1)
	a := s.NewObject(tm.NewInts(1))
	b := s.NewObject(tm.NewInts(1))

	// Reader transaction: read a, then wait for the writer to change a,
	// then read b. The second open must detect the stale snapshot of a and
	// retry, so the committed read set is consistent.
	readerStarted := make(chan struct{})
	writerDone := make(chan struct{})
	var got [2]int64
	attempts := 0
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		err := s.Atomic(th0, func(tx tm.Tx) error {
			attempts++
			got[0] = tx.Read(a).(*tm.Ints).V[0]
			if attempts == 1 {
				close(readerStarted)
				<-writerDone // hold the snapshot across the writer's commit
			}
			got[1] = tx.Read(b).(*tm.Ints).V[0]
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		<-readerStarted
		// The writer commits to both objects without any reader handshake
		// (invisible readers are never waited for).
		if err := s.Atomic(th1, func(tx tm.Tx) error {
			tx.Update(a, func(d tm.Data) { d.(*tm.Ints).V[0] = 1 })
			tx.Update(b, func(d tm.Data) { d.(*tm.Ints).V[0] = 1 })
			return nil
		}); err != nil {
			t.Error(err)
		}
		close(writerDone)
	}()
	wg.Wait()

	if attempts < 2 {
		t.Fatalf("reader committed a stale snapshot (attempts=%d)", attempts)
	}
	if got[0] != got[1] {
		t.Fatalf("inconsistent committed reads: a=%d b=%d", got[0], got[1])
	}
}

// Read-then-write upgrades must not self-invalidate: acquiring an object we
// already read bumps its version, which refreshRead absorbs.
func TestInvisibleUpgradeDoesNotSelfAbort(t *testing.T) {
	cfg := DefaultConfig(NZ, 1)
	cfg.Readers = InvisibleReaders
	s := New(tm.NewRealWorld(), cfg)
	th := thread(0)
	o := s.NewObject(tm.NewInts(1))
	if err := s.Atomic(th, func(tx tm.Tx) error {
		v := tx.Read(o).(*tm.Ints).V[0]
		tx.Update(o, func(d tm.Data) { d.(*tm.Ints).V[0] = v + 1 })
		// A second read after the upgrade must still validate.
		if tx.Read(o).(*tm.Ints).V[0] != v+1 {
			t.Error("read-your-write after upgrade broken")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if c := s.Stats().Aborts.Load(); c != 0 {
		t.Fatalf("uncontended upgrade aborted %d times", c)
	}
}

// Invisible readers never appear in the reader tables, so writers never
// send them abort requests.
func TestInvisibleReadersAreInvisible(t *testing.T) {
	cfg := DefaultConfig(NZ, 2)
	cfg.Readers = InvisibleReaders
	s := New(tm.NewRealWorld(), cfg)
	th0, th1 := thread(0), thread(1)
	o := s.NewObject(tm.NewInts(1))
	for i := 0; i < 50; i++ {
		if err := s.Atomic(th0, func(tx tm.Tx) error {
			_ = tx.Read(o).(*tm.Ints).V[0]
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.Atomic(th1, func(tx tm.Tx) error {
			tx.Update(o, func(d tm.Data) { d.(*tm.Ints).V[0]++ })
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if r := s.Stats().AbortRequests.Load(); r != 0 {
		t.Fatalf("writers sent %d abort requests to invisible readers", r)
	}
}

// A flight recorder attached to the threads must capture the full
// lifecycle of the unresponsive-enemy scenario: begin, acquire,
// abort-request, inflate, deflate, commits and aborts.
func TestTracerCapturesInflationStory(t *testing.T) {
	cfg := DefaultConfig(NZ, 2)
	cfg.AckPatience = 1
	cfg.Manager = cm.NewKarma(1)
	s := New(tm.NewRealWorld(), cfg)
	fr := trace.New(256)
	th0, th1 := thread(0), thread(1)
	th0.SetRecorder(fr.ForSource(0))
	th1.SetRecorder(fr.ForSource(1))
	obj := s.NewObject(tm.NewInts(1))

	zombie := s.begin(th0)
	zombie.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 1 })

	if err := s.Atomic(th1, func(tx tm.Tx) error {
		tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 2 })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	zombie.status.Acknowledge()
	zombie.finish(false)
	if err := s.Atomic(th1, func(tx tm.Tx) error {
		tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0]++ })
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	kinds := map[trace.Kind]int{}
	for _, src := range fr.Snapshot() {
		for _, e := range src.Events {
			kinds[e.Kind]++
		}
	}
	for _, want := range []trace.Kind{
		trace.KindBegin, trace.KindAcquire, trace.KindCMAbortOther,
		trace.KindInflate, trace.KindDeflate, trace.KindCommit,
	} {
		if kinds[want] == 0 {
			t.Errorf("flight recorder missed %v events (have %v)", want, kinds)
		}
	}
}
