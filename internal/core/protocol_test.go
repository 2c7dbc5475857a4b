package core

import (
	"testing"

	"nztm/internal/cm"
	"nztm/internal/tm"
)

// These white-box tests pin down the trickiest corners of the §2 protocol.

// An unresponsive *reader* must not block an SCSS writer: the writer
// barriers through the short-hardware-transaction lock, force-acknowledges
// the reader, and proceeds; the zombie's snapshot keeps its view safe.
func TestSCSSStealsFromUnresponsiveReader(t *testing.T) {
	cfg := DefaultConfig(SCSS, 2)
	cfg.AckPatience = 1
	cfg.Manager = cm.NewKarma(1)
	s := New(tm.NewRealWorld(), cfg)
	th0, th1 := thread(0), thread(1)
	obj := s.NewObject(tm.NewInts(1))

	// A reader registers and goes silent.
	rdr := s.begin(th0)
	snap := rdr.Read(obj).(*tm.Ints)
	if snap.V[0] != 0 {
		t.Fatalf("reader snapshot %d", snap.V[0])
	}

	// A writer must get past it without an acknowledgement.
	if err := s.Atomic(th1, func(tx tm.Tx) error {
		tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 9 })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rdr.status.State() != tm.Aborted {
		t.Fatal("zombie reader not force-acknowledged")
	}
	// The zombie's snapshot is untouched by the writer (private copy).
	if snap.V[0] != 0 {
		t.Fatalf("zombie snapshot mutated to %d", snap.V[0])
	}
	if got := counterValue(t, s, th1, obj); got != 9 {
		t.Fatalf("value %d, want 9", got)
	}
}

// Deflation must be blocked while a pre-inflation zombie reader is still
// active (it may still be reading the in-place data), and proceed once the
// zombie acknowledges.
func TestDeflationGatedOnZombieReader(t *testing.T) {
	cfg := DefaultConfig(NZ, 3)
	cfg.AckPatience = 1
	cfg.Manager = cm.NewKarma(1)
	s := New(tm.NewRealWorld(), cfg)
	th0, th1, th2 := thread(0), thread(1), thread(2)
	obj := s.NewObject(tm.NewInts(1)).(*Object)

	// Zombie reader: registered, never acknowledges.
	rdr := s.begin(th0)
	_ = rdr.Read(obj)

	// A writer inflates past it and commits.
	if err := s.Atomic(th1, func(tx tm.Tx) error {
		tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 5 })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Inflations.Load() == 0 {
		t.Fatal("writer did not inflate past the zombie reader")
	}

	// Another writer works through the Locator, but cannot deflate: the
	// zombie is still registered and active.
	if err := s.Atomic(th2, func(tx tm.Tx) error {
		tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0]++ })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if obj.owner.Load().loc == nil {
		t.Fatal("object deflated while a zombie reader was active")
	}

	// The zombie acknowledges; the next writer deflates.
	rdr.status.Acknowledge()
	rdr.finish(false)
	if err := s.Atomic(th2, func(tx tm.Tx) error {
		tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0]++ })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if obj.owner.Load().loc != nil {
		t.Fatal("object still inflated after the zombie acknowledged")
	}
	if got := counterValue(t, s, th2, obj); got != 7 {
		t.Fatalf("value %d, want 7", got)
	}
}

// Footnote 1 of the paper: a transaction may abort during acquisition,
// after taking ownership but before it has made the object consistent. The
// owner word it installed carries the backup, so everyone must recover the
// value that word says: an aborted predecessor's backup the word adopted,
// or — when the word's own backup never became ready — the in-place data,
// which its owner has not touched.
func TestAbortDuringAcquisitionPreservesOlderBackup(t *testing.T) {
	for _, c := range []struct {
		name   string
		commit bool  // P commits its 77 instead of aborting
		adopt  bool  // W's word adopts P's backup (else: W's own, never ready)
		want   int64 // the logical value after W aborts
	}{
		{"adopted backup of an aborted predecessor", false, true, 0},
		{"in-place copy aborted before ready", true, false, 77},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := newSys(NZ, 3)
			th0, th1, th2 := thread(0), thread(1), thread(2)
			obj := s.NewObject(tm.NewInts(1)).(*Object)

			// P: acquires and writes 77, then commits, or aborts without
			// restoring (lazy undo).
			p := s.begin(th0)
			p.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 77 })
			if c.commit {
				if !p.status.TryCommit() {
					t.Fatal("setup commit failed")
				}
			} else {
				p.status.Acknowledge()
			}
			p.finish(c.commit)

			// W: takes ownership with the word acquireWrite would build,
			// then acknowledges an abort request before anything else —
			// no restore, and no copy of its own.
			w := s.begin(th1)
			or := obj.owner.Load()
			r := w.claimRef(obj, or)
			if r.ready.Load() != c.adopt {
				t.Fatalf("claimRef adopted = %v, want %v", r.ready.Load(), c.adopt)
			}
			if !obj.casOwner(th1.Env, or, r) {
				t.Fatal("setup CAS failed")
			}
			w.status.RequestAbort()
			w.status.Acknowledge()
			w.finish(false)

			if got := counterValue(t, s, th2, obj); got != c.want {
				t.Fatalf("reader saw %d, want %d", got, c.want)
			}
			if err := s.Atomic(th2, func(tx tm.Tx) error {
				tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] += 3 })
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got := counterValue(t, s, th2, obj); got != c.want+3 {
				t.Fatalf("value %d, want %d", got, c.want+3)
			}
		})
	}
}

// The version counter must change on every ownership transition, so
// invisible readers can rely on it.
func TestVersionBumpsOnOwnershipChanges(t *testing.T) {
	s := newSys(NZ, 2)
	th := thread(0)
	obj := s.NewObject(tm.NewInts(1)).(*Object)
	v0 := obj.version.Load()
	if err := s.Atomic(th, func(tx tm.Tx) error {
		tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0]++ })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if obj.version.Load() == v0 {
		t.Fatal("acquisition did not bump the version")
	}
}

// Reader registration slots must be reusable across transactions of the
// same thread, and deregistration must not clear someone else's entry.
func TestReaderSlotHygiene(t *testing.T) {
	s := newSys(NZ, 2)
	th0 := thread(0)
	obj := s.NewObject(tm.NewInts(1)).(*Object)

	t1 := s.begin(th0)
	_ = t1.Read(obj)
	if obj.readerSlotLoad(0) != t1 {
		t.Fatal("t1 not registered")
	}
	t1.status.Acknowledge()
	t1.finish(false)
	if obj.readerSlotLoad(0) != nil {
		t.Fatal("finish did not clear the slot")
	}

	t2 := s.begin(th0)
	_ = t2.Read(obj)
	t3 := s.begin(th0) // same thread, new txn takes over the slot
	_ = t3.Read(obj)
	if obj.readerSlotLoad(0) != t3 {
		t.Fatal("slot not taken over by the newer transaction")
	}
	// t2's deregistration must not clobber t3's registration.
	t2.status.Acknowledge()
	t2.finish(false)
	if obj.readerSlotLoad(0) != t3 {
		t.Fatal("stale deregistration cleared the live registration")
	}
	t3.status.Acknowledge()
	t3.finish(false)
}

// Regression (found by the read-sharing model checker): a writer that
// inflates past ONE unresponsive reader must still doom every OTHER
// registered reader before publishing a new version through the Locator —
// otherwise that reader commits a stale view.
func TestInflationDoomsAllReaders(t *testing.T) {
	cfg := DefaultConfig(NZ, 3)
	cfg.AckPatience = 1
	cfg.Manager = cm.NewKarma(1)
	s := New(tm.NewRealWorld(), cfg)
	th0, th1, th2 := thread(0), thread(1), thread(2)
	obj := s.NewObject(tm.NewInts(1))

	r1 := s.begin(th0) // zombie: never validates again
	_ = r1.Read(obj)
	r2 := s.begin(th1) // second reader, also silent for now
	if got := r2.Read(obj).(*tm.Ints).V[0]; got != 0 {
		t.Fatalf("r2 read %d", got)
	}

	if err := s.Atomic(th2, func(tx tm.Tx) error {
		tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 5 })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Inflations.Load() == 0 {
		t.Fatal("writer did not inflate past the zombie")
	}
	// Both readers must now be unable to commit their stale views.
	if r2.status.TryCommit() {
		t.Fatal("second reader committed a stale read")
	}
	if r1.status.TryCommit() {
		t.Fatal("zombie reader committed a stale read")
	}
	r1.status.Acknowledge()
	r1.finish(false)
	r2.status.Acknowledge()
	r2.finish(false)
}

// Reads of an inflated object must serve the displaced copies: the new data
// when the locator's owner committed, the old data when it aborted, and
// conflict-resolve against an active locator owner.
func TestReadInflatedObject(t *testing.T) {
	for _, readers := range []ReaderMode{VisibleReaders, InvisibleReaders} {
		t.Run(readers.String(), func(t *testing.T) {
			cfg := DefaultConfig(NZ, 3)
			cfg.Readers = readers
			cfg.AckPatience = 1
			cfg.Manager = cm.NewKarma(1)
			s := New(tm.NewRealWorld(), cfg)
			th0, th1, th2 := thread(0), thread(1), thread(2)
			obj := s.NewObject(tm.NewInts(1)).(*Object)

			// Zombie owner forces inflation; the inflating writer commits 5.
			zombie := s.begin(th0)
			zombie.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = -1 })
			if err := s.Atomic(th1, func(tx tm.Tx) error {
				tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 5 })
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if obj.owner.Load().loc == nil {
				t.Fatal("setup: object not inflated")
			}

			// Committed locator owner: readers see the new data (5) while
			// the object is still inflated (zombie unacknowledged).
			if got := counterValue(t, s, th2, obj); got != 5 {
				t.Fatalf("read of inflated object = %d, want committed 5", got)
			}

			// A second writer replaces the locator and stays active; a
			// reader must resolve the conflict (request its abort) and then
			// see the old data, since that writer can no longer commit.
			w := s.begin(th1)
			w.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 9 })
			if got := counterValue(t, s, th2, obj); got != 5 {
				t.Fatalf("read during doomed locator writer = %d, want 5", got)
			}
			if !w.status.AbortRequested() && w.status.State() == tm.Active {
				t.Fatal("reader never requested the locator owner's abort")
			}
			w.status.Acknowledge()
			w.finish(false)
			zombie.status.Acknowledge()
			zombie.finish(false)
		})
	}
}

// Accessor smoke coverage.
func TestObjectAccessors(t *testing.T) {
	s := newSys(NZ, 1)
	o := s.NewObject(tm.NewInts(3)).(*Object)
	if o.Words() != 3 {
		t.Fatalf("Words = %d", o.Words())
	}
	if o.DataAddr() != o.Base()+headerWords {
		t.Fatal("data not collocated right after the header")
	}
	if s.Name() != "NZSTM" || NZ.String() != "NZSTM" || Variant(9).String() != "invalid" {
		t.Fatal("names wrong")
	}
	if s.Config().Threads != 1 {
		t.Fatal("Config accessor wrong")
	}
	if VisibleReaders.String() != "visible" || InvisibleReaders.String() != "invisible" ||
		ReaderMode(9).String() != "invalid" {
		t.Fatal("reader mode strings wrong")
	}
}
