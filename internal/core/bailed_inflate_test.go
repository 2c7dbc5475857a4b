package core

import (
	"testing"

	"nztm/internal/cm"
	"nztm/internal/machine"
	"nztm/internal/tm"
)

// ackAtInflateEnv is the writer's Env in TestReaderAcksBetweenPatienceAndInflate.
// Time stands still until the writer has asked the reader to abort; the
// first clock read after that starts the acknowledgement patience and the
// second is the patience check, which it makes expire. The reader then
// acknowledges at the writer's very next look at the reader's descriptor —
// inflate's first status load.
type ackAtInflateEnv struct {
	*tm.RealEnv
	reader   *Txn
	patience uint64
	now      uint64
	reads    int // clock reads since the abort request
	acked    bool
}

func (e *ackAtInflateEnv) Now() uint64 {
	if e.reader.status.AbortRequested() {
		e.reads++
		if e.reads == 2 {
			e.now += e.patience
		}
	}
	return e.now
}

func (e *ackAtInflateEnv) Access(addr machine.Addr, words int, write bool) {
	if e.reads >= 2 && !e.acked && addr == e.reader.addr {
		e.acked = true
		e.reader.status.Acknowledge()
	}
}

// ROADMAP item 1, hole (b). A writer that has CASed the owner word to itself
// resolves the object's visible readers before it touches the data. If a
// reader ignores the abort request for AckPatience the writer inflates —
// but when the reader acknowledges just before inflate looks, inflate backs
// out, and the writer used to take that for "the owner word changed,
// re-examine": Update then found itself the owner and stored in place, with
// no backup installed. An abort of that writer could not be undone.
func TestReaderAcksBetweenPatienceAndInflate(t *testing.T) {
	cfg := DefaultConfig(NZ, 3)
	cfg.AckPatience = 1000
	cfg.Manager = cm.Aggressive{}
	s := New(tm.NewRealWorld(), cfg)
	obj := s.NewObject(tm.NewInts(1)).(*Object)
	th0, th2 := thread(0), thread(2)
	if err := s.Atomic(th0, func(tx tm.Tx) error {
		tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 41 })
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	rdr := s.begin(th0)
	if got := rdr.Read(obj).(*tm.Ints).V[0]; got != 41 {
		t.Fatalf("reader saw %d, want 41", got)
	}

	env := &ackAtInflateEnv{RealEnv: tm.NewRealEnv(1, tm.NewRealWorld()), reader: rdr, patience: cfg.AckPatience}
	w := s.begin(tm.NewThread(1, env))
	w.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 99 })
	if !env.acked {
		t.Fatal("the script never fired: the writer did not reach inflate with the reader unacknowledged")
	}
	if n := s.Stats().Inflations.Load(); n != 0 {
		t.Fatalf("%d inflations; the reader acknowledged before inflate, which must back out", n)
	}
	rdr.finish(false)

	// The writer aborts. Its store must be undoable.
	w.status.Acknowledge()
	w.finish(false)
	if got := counterValue(t, s, th2, obj); got != 41 {
		t.Fatalf("after the writer aborted the object reads %d, want 41: it stored in place without a backup", got)
	}
}
