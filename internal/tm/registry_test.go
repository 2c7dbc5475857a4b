package tm

import (
	"sync"
	"testing"
	"time"
)

func TestRegistryLowestSlotFirst(t *testing.T) {
	r := NewRegistry(8)
	a, ok := r.TryAcquire()
	if !ok || a.ID() != 0 {
		t.Fatalf("first acquire = (%d, %v), want slot 0", a.ID(), ok)
	}
	b, _ := r.TryAcquire()
	c, _ := r.TryAcquire()
	if b.ID() != 1 || c.ID() != 2 {
		t.Fatalf("got slots %d, %d; want 1, 2", b.ID(), c.ID())
	}
	// Free the middle slot: the next acquire must refill the hole, keeping
	// IDs dense (reader tables grow to the high-water ID).
	r.Release(b)
	d, _ := r.TryAcquire()
	if d.ID() != 1 {
		t.Fatalf("after releasing slot 1, acquired %d; want 1", d.ID())
	}
	if r.Active() != 3 || r.High() != 3 {
		t.Fatalf("active=%d high=%d; want 3, 3", r.Active(), r.High())
	}
}

func TestRegistryCapacityAndDefault(t *testing.T) {
	r := NewRegistry(2)
	if r.Max() != 2 {
		t.Fatalf("Max() = %d", r.Max())
	}
	s1, _ := r.TryAcquire()
	s2, _ := r.TryAcquire()
	if _, ok := r.TryAcquire(); ok {
		t.Fatal("TryAcquire succeeded past capacity")
	}
	r.Release(s1)
	if s, ok := r.TryAcquire(); !ok || s.ID() != s1.ID() {
		t.Fatalf("reacquire after release = (%d, %v)", s.ID(), ok)
	}
	_ = s2
	if NewRegistry(0).Max() != DefaultMaxSlots || NewRegistry(-3).Max() != DefaultMaxSlots {
		t.Fatal("max <= 0 must select DefaultMaxSlots")
	}
}

// A recycled slot must carry a new generation, so per-slot state left by the
// previous tenant is distinguishable from the current one.
func TestRegistryGenerationAdvancesOnRecycle(t *testing.T) {
	r := NewRegistry(4)
	s1, _ := r.TryAcquire()
	gen1 := s1.Gen()
	r.Release(s1)
	s2, _ := r.TryAcquire()
	if s2.ID() != s1.ID() {
		t.Fatalf("expected slot %d recycled, got %d", s1.ID(), s2.ID())
	}
	if s2.Gen() <= gen1 {
		t.Fatalf("recycled slot gen %d not beyond previous tenancy's %d", s2.Gen(), gen1)
	}
}

func TestRegistryDoubleReleasePanics(t *testing.T) {
	r := NewRegistry(4)
	s, _ := r.TryAcquire()
	r.Release(s)
	// Reacquire so the slot bit is set again: the stale-generation check,
	// not the free-bit check, must still reject the stale copy.
	if s2, _ := r.TryAcquire(); s2.ID() != s.ID() {
		t.Fatalf("slot %d not recycled", s.ID())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	r.Release(s)
}

// Acquire blocks at capacity and wakes when a slot frees.
func TestRegistryAcquireBlocksUntilRelease(t *testing.T) {
	r := NewRegistry(1)
	s, _ := r.TryAcquire()
	got := make(chan Slot)
	go func() { got <- r.Acquire() }()
	select {
	case <-got:
		t.Fatal("Acquire returned while registry was full")
	case <-time.After(20 * time.Millisecond):
	}
	r.Release(s)
	select {
	case s2 := <-got:
		r.Release(s2)
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire never woke after Release")
	}
}

// Churn: goroutines acquiring and releasing concurrently must never share a
// slot. Run with -race; the invariant check is the per-slot tenancy map.
func TestRegistryConcurrentChurn(t *testing.T) {
	const goroutines, rounds, slots = 16, 200, 8
	r := NewRegistry(slots)
	var mu sync.Mutex
	tenant := make([]int, slots) // -1 = free
	for i := range tenant {
		tenant[i] = -1
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s := r.Acquire()
				mu.Lock()
				if tenant[s.ID()] != -1 {
					t.Errorf("slot %d handed to %d while held by %d", s.ID(), me, tenant[s.ID()])
				}
				tenant[s.ID()] = me
				mu.Unlock()
				mu.Lock()
				tenant[s.ID()] = -1
				mu.Unlock()
				r.Release(s)
			}
		}(g)
	}
	wg.Wait()
	if r.Active() != 0 {
		t.Fatalf("active = %d after all releases", r.Active())
	}
	if h := r.High(); h < 1 || h > slots {
		t.Fatalf("high-water %d out of range [1, %d]", h, slots)
	}
}

func TestRegistryThreadBindAndClose(t *testing.T) {
	r := NewRegistry(4)
	th := r.NewThread()
	s, ok := th.Slot()
	if !ok || th.ID != s.ID() {
		t.Fatalf("thread ID %d not bound to slot %d (ok=%v)", th.ID, s.ID(), ok)
	}
	if r.Active() != 1 {
		t.Fatalf("active = %d", r.Active())
	}
	th.Close()
	th.Close() // idempotent
	if r.Active() != 0 {
		t.Fatalf("active after close = %d", r.Active())
	}
	if _, ok := th.Slot(); ok {
		t.Fatal("closed thread still reports a slot")
	}
	// Non-registry threads close as a no-op.
	NewThread(0, NewRealEnv(0, NewRealWorld())).Close()
}

func TestRegistryTryNewThread(t *testing.T) {
	r := NewRegistry(1)
	th, ok := r.TryNewThread()
	if !ok {
		t.Fatal("TryNewThread failed on empty registry")
	}
	if _, ok := r.TryNewThread(); ok {
		t.Fatal("TryNewThread succeeded past capacity")
	}
	th.Close()
	if _, ok := r.TryNewThread(); !ok {
		t.Fatal("TryNewThread failed after Close freed the slot")
	}
}
