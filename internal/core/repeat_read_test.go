package core

import (
	"testing"

	"nztm/internal/cm"
	"nztm/internal/machine"
	"nztm/internal/tm"
)

// repeatReaderEnv is the reader's Env in TestRepeatedReadKeepsRegistration.
// At the reader's second registration on obj — after it loaded the owner
// word, before it re-checks it — it starts the writer and waits until the
// writer has acquired obj and is about to scan the reader table. It lets the
// re-check through, and at the reader's next look at the owner word it
// releases the writer's scan and waits for the writer to finish.
type repeatReaderEnv struct {
	*tm.RealEnv
	obj        *Object
	startW     func()
	paused     chan struct{} // closed by the writer before its reader scan
	release    chan struct{} // closed by the reader to let the scan run
	done       chan struct{} // closed when the writer's transaction returns
	registered int
	ownerLoads int // owner-word loads since the writer acquired
	fired      bool
}

func (e *repeatReaderEnv) Access(addr machine.Addr, words int, write bool) {
	switch {
	case write && addr == e.obj.readerAddr:
		if e.registered++; e.registered == 2 {
			e.startW()
			<-e.paused
			e.fired = true
		}
	case e.fired && addr == e.obj.base:
		if e.ownerLoads++; e.ownerLoads == 2 {
			close(e.release)
			<-e.done
		}
	}
}

// repeatWriterEnv is the writer's Env: it parks before its first scan of
// obj's reader table until the reader releases it, and its clock advances by
// the acknowledgement patience at every read, so a reader that ignores an
// abort request is declared unresponsive at the first patience check.
type repeatWriterEnv struct {
	*tm.RealEnv
	obj      *Object
	paused   chan struct{}
	release  chan struct{}
	patience uint64
	now      uint64
	scanned  bool
}

func (e *repeatWriterEnv) Now() uint64 {
	e.now += e.patience
	return e.now
}

func (e *repeatWriterEnv) Access(addr machine.Addr, words int, write bool) {
	if !write && addr == e.obj.readerAddr && !e.scanned {
		e.scanned = true
		close(e.paused)
		<-e.release
	}
}

// A transaction reads an object, then reads it again while a writer
// acquires it between that second read's owner-word load and its re-check.
// The re-check fails, and it used to deregister the reader — wiping the
// registration the *first* read made, since a thread has one reader slot
// per object, not one per read. The writer's reader scan then found nobody,
// the writer committed, and the reader went on to see the new value next to
// the old one and commit both (TestGenomePhases' duplicate inserts). The
// registration must survive the failed re-check, so the writer has to doom
// the reader first.
func TestRepeatedReadKeepsRegistration(t *testing.T) {
	cfg := DefaultConfig(NZ, 3)
	cfg.AckPatience = 1000
	cfg.Manager = cm.Aggressive{}
	s := New(tm.NewRealWorld(), cfg)
	obj := s.NewObject(tm.NewInts(1)).(*Object)

	paused, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	wEnv := &repeatWriterEnv{RealEnv: tm.NewRealEnv(1, tm.NewRealWorld()), obj: obj,
		paused: paused, release: release, patience: cfg.AckPatience}
	rEnv := &repeatReaderEnv{RealEnv: tm.NewRealEnv(0, tm.NewRealWorld()), obj: obj,
		paused: paused, release: release, done: done}
	var werr error
	rEnv.startW = func() {
		go func() {
			defer close(done)
			werr = s.Atomic(tm.NewThread(1, wEnv), func(tx tm.Tx) error {
				tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0] = 1 })
				return nil
			})
		}()
	}

	rdr := s.begin(tm.NewThread(0, rEnv))
	first := rdr.Read(obj).(*tm.Ints).V[0]
	var second int64
	_, _, ok := tm.RunAttempt(func() error {
		second = rdr.Read(obj).(*tm.Ints).V[0]
		return nil
	})
	if !rEnv.fired {
		t.Fatal("the script never fired: the writer did not acquire between the reader's owner load and re-check")
	}
	<-done
	if werr != nil {
		t.Fatal(werr)
	}
	if ok && second != first && rdr.status.TryCommit() {
		t.Fatalf("the reader saw %d, then %d, and still committed: the writer's reader scan missed its first read", first, second)
	}
	rdr.status.Acknowledge()
	rdr.finish(false)
	if got := counterValue(t, s, thread(2), obj); got != 1 {
		t.Fatalf("object reads %d, want the writer's 1", got)
	}
}
