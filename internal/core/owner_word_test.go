package core

import (
	"errors"
	"testing"

	"nztm/internal/cm"
	"nztm/internal/machine"
	"nztm/internal/tm"
)

// These tests script the edges of the owner word that carries its owner's
// backup: one word to claim, restore and deflate an object.

// patientEnv's clock advances by the acknowledgement patience at every
// read, so an enemy that ignores an abort request is declared unresponsive
// at the first patience check.
type patientEnv struct {
	*tm.RealEnv
	patience, now uint64
}

func (e *patientEnv) Now() uint64 {
	e.now += e.patience
	return e.now
}

func newPatientEnv(id int, patience uint64) *patientEnv {
	return &patientEnv{RealEnv: tm.NewRealEnv(id, tm.NewRealWorld()), patience: patience}
}

// ackAfterInflateEnv is the writer's Env in
// TestDeflateAfterReaderInflationRecyclesBackupOnce: at the writer's first
// access after its inflation CAS it acknowledges the reader it inflated past,
// so the writer deflates in the same attempt.
type ackAfterInflateEnv struct {
	*patientEnv
	sys    *System
	reader *Txn
	acked  bool
}

func (e *ackAfterInflateEnv) Access(addr machine.Addr, words int, write bool) {
	if !e.acked && e.sys.Stats().Inflations.Load() > 0 {
		e.acked = true
		e.reader.status.Acknowledge()
	}
}

// A writer acquires an object in place, inflates past an unresponsive
// reader and deflates in the same attempt, so it lists the object twice
// among the objects it owns. Its commit used to put the deflation's backup
// buffer into the thread's pool once per listing; the thread's next two
// acquisitions then shared one buffer, and an abort restored one object
// with the other's value.
func TestDeflateAfterReaderInflationRecyclesBackupOnce(t *testing.T) {
	cfg := DefaultConfig(NZ, 2)
	cfg.AckPatience = 1000
	cfg.Manager = cm.Aggressive{}
	s := New(tm.NewRealWorld(), cfg)
	a := s.NewObject(tm.NewInts(1)).(*Object)
	b, c := tm.NewInts(1), tm.NewInts(1)
	b.V[0], c.V[0] = 100, 200
	objB, objC := s.NewObject(b), s.NewObject(c)

	rdr := s.begin(thread(0))
	_ = rdr.Read(a)

	env := &ackAfterInflateEnv{patientEnv: newPatientEnv(1, cfg.AckPatience), sys: s, reader: rdr}
	w := tm.NewThread(1, env)
	if err := s.Atomic(w, func(tx tm.Tx) error {
		tx.Update(a, func(d tm.Data) { d.(*tm.Ints).V[0] = 1 })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rdr.finish(false)
	if i, d := s.Stats().Inflations.Load(), s.Stats().Deflations.Load(); i != 1 || d != 1 {
		t.Fatalf("inflations %d, deflations %d: the script wants one of each in the writer's attempt", i, d)
	}

	// The writer's thread acquires two objects of the same type, then
	// aborts: each must be restored from its own backup.
	boom := errors.New("boom")
	if err := s.Atomic(w, func(tx tm.Tx) error {
		tx.Update(objB, func(d tm.Data) { d.(*tm.Ints).V[0] = -1 })
		tx.Update(objC, func(d tm.Data) { d.(*tm.Ints).V[0] = -2 })
		return boom
	}); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := counterValue(t, s, thread(0), objB); got != 100 {
		t.Fatalf("b = %d after an aborted transaction, want 100", got)
	}
	if got := counterValue(t, s, thread(0), objC); got != 200 {
		t.Fatalf("c = %d after an aborted transaction, want 200", got)
	}
}

// stallAfterDeflateEnv is the deflater's Env in
// TestInflateDuringDeflationSeesCurrentValue: at its first access after its
// second owner-word CAS on obj — the deflation — it hands over and waits.
type stallAfterDeflateEnv struct {
	*tm.RealEnv
	obj             *Object
	cas             int
	stalled, resume chan struct{}
}

func (e *stallAfterDeflateEnv) CAS(addr machine.Addr) {
	if addr == e.obj.base {
		e.cas++
	}
}

func (e *stallAfterDeflateEnv) Access(addr machine.Addr, words int, write bool) {
	if e.cas == 2 && e.stalled != nil {
		close(e.stalled)
		e.stalled = nil
		<-e.resume
	}
}

// ROADMAP item 1, window (1). Z owns an object and goes silent; L inflates
// past Z and commits 5; Z acknowledges; D replaces L's Locator, deflates,
// and stalls right after its deflation CAS; I inflates past D and
// increments. The deflation used to publish its owner word first and its
// backup later, so I found Z's stale backup, started its Locator from the
// value before the first inflation, and every Locator commit was lost.
func TestInflateDuringDeflationSeesCurrentValue(t *testing.T) {
	cfg := DefaultConfig(NZ, 5)
	cfg.AckPatience = 1000
	cfg.Manager = cm.Aggressive{}
	s := New(tm.NewRealWorld(), cfg)
	obj := s.NewObject(tm.NewInts(1)).(*Object)

	z := s.begin(thread(0))
	z.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = -1 })

	if err := s.Atomic(tm.NewThread(1, newPatientEnv(1, cfg.AckPatience)), func(tx tm.Tx) error {
		tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 5 })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	z.status.Acknowledge()
	z.finish(false)

	dEnv := &stallAfterDeflateEnv{RealEnv: tm.NewRealEnv(2, tm.NewRealWorld()), obj: obj,
		stalled: make(chan struct{}), resume: make(chan struct{})}
	stalled := dEnv.stalled
	d := s.begin(tm.NewThread(2, dEnv))
	dDone := make(chan struct{})
	go func() {
		defer close(dDone)
		tm.RunAttempt(func() error {
			d.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] += 100 })
			return nil
		})
	}()
	select {
	case <-stalled:
	case <-dDone:
		t.Fatal("the script never fired: D finished without stalling after a deflation CAS")
	}
	if obj.owner.Load().txn != d {
		t.Fatal("the script fired, but not after D's deflation CAS")
	}

	if err := s.Atomic(tm.NewThread(3, newPatientEnv(3, cfg.AckPatience)), func(tx tm.Tx) error {
		tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0]++ })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(dEnv.resume)
	<-dDone
	d.status.Acknowledge()
	d.finish(false)

	if got := counterValue(t, s, thread(4), obj); got != 6 {
		t.Fatalf("object reads %d, want 6 (L's 5, then I's increment)", got)
	}
}

// A software commit followed by a hardware publish before the software
// transaction's finish: the hybrid's HWPublish clears the owner word, and
// finish must take that as "nothing of mine to recycle".
func TestFinishAfterHardwarePublish(t *testing.T) {
	s := newSys(NZ, 1)
	th := thread(0)
	obj := s.NewObject(tm.NewInts(1)).(*Object)

	tx := s.begin(th)
	tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 5 })
	if !tx.status.TryCommit() {
		t.Fatal("setup commit failed")
	}
	v := obj.HWInspect(th.Env)
	if !v.OK || !v.NeedsCleanup {
		t.Fatalf("HWInspect = %+v, want OK with cleanup after a committed software owner", v)
	}
	buf := v.Logical.Clone()
	buf.(*tm.Ints).V[0]++
	if !obj.HWPublish(v, buf) {
		t.Fatal("HWPublish failed")
	}
	tx.finish(true)

	if got := counterValue(t, s, th, obj); got != 6 {
		t.Fatalf("object reads %d, want 6", got)
	}
}
