package fault

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"nztm/internal/core"
	"nztm/internal/metrics"
	"nztm/internal/tm"
	"nztm/internal/trace"
)

func TestStreamDeterminism(t *testing.T) {
	a := newStream(42, 7)
	b := newStream(42, 7)
	for i := 0; i < 1000; i++ {
		if a.next() != b.next() {
			t.Fatalf("streams with identical seed/site diverged at draw %d", i)
		}
	}
	c := newStream(42, 8)
	same := true
	a = newStream(42, 7)
	for i := 0; i < 64; i++ {
		if a.next() != c.next() {
			same = false
		}
	}
	if same {
		t.Fatal("distinct sites produced identical streams")
	}
}

func TestHitRate(t *testing.T) {
	s := newStream(1, 1)
	hits := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if s.hit(0.1) {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.08 || got > 0.12 {
		t.Fatalf("hit rate for p=0.1: got %.4f", got)
	}
	if s.hit(0) {
		t.Fatal("hit(0) fired")
	}
	if !s.hit(1) {
		t.Fatal("hit(1) missed")
	}
}

func TestDisabledPlaneIsTransparent(t *testing.T) {
	p := New(Config{Seed: 1})
	sys := core.NewNZSTM(tm.NewRealWorld(), 1)
	if got := p.WrapSystem(sys); got != tm.System(sys) {
		t.Fatal("disabled plane wrapped the system")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if got := p.WrapListener(ln); got != ln {
		t.Fatal("disabled plane wrapped the listener")
	}
}

// A heavily faulted NZSTM must stay correct: every injected abort retries,
// every stall is ridden out, and the counter still lands exactly.
func TestFaultedSystemStaysCorrect(t *testing.T) {
	const workers, each = 4, 150
	p := New(Config{
		Seed:      7,
		AbortProb: 0.05,
		DelayProb: 0.05,
		Delay:     50 * time.Microsecond,
		StallProb: 0.01,
		Stall:     2 * time.Millisecond,
	})
	world := tm.NewRealWorld()
	sys := p.WrapSystem(core.NewNZSTM(world, workers))
	o := sys.NewObject(tm.NewInts(1))

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := tm.NewThread(id, tm.NewRealEnv(id, world))
			for j := 0; j < each; j++ {
				if err := sys.Atomic(th, func(tx tm.Tx) error {
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

	th := tm.NewThread(0, tm.NewRealEnv(0, world))
	var got int64
	if err := sys.Atomic(th, func(tx tm.Tx) error {
		got = tx.Read(o).(*tm.Ints).V[0]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != workers*each {
		t.Fatalf("counter = %d, want %d", got, workers*each)
	}
	if p.Aborts.Load() == 0 {
		t.Error("no aborts injected despite AbortProb=0.05")
	}
	if p.FaultedCommits.Load() == 0 {
		t.Error("no faulted transaction survived")
	}
	var sb strings.Builder
	p.WriteProm(&sb)
	if errs := metrics.LintProm(strings.NewReader(sb.String())); len(errs) > 0 {
		t.Fatalf("LintProm: %v\n%s", errs, sb.String())
	}
	for _, want := range []string{
		fmt.Sprintf("nztm_fault_aborts_total %d", p.Aborts.Load()),
		fmt.Sprintf("nztm_fault_faulted_commits_total %d", p.FaultedCommits.Load()),
		`nztm_fault_info{seed="`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("WriteProm output missing %q:\n%s", want, sb.String())
		}
	}
}

// A torn write must still deliver every byte, in order.
func TestPartialWriteDeliversAllBytes(t *testing.T) {
	p := New(Config{Seed: 3, PartialWriteProb: 1, Delay: time.Millisecond})
	client, server := net.Pipe()
	defer server.Close()
	fc := p.WrapConn(client)

	msg := []byte("hello, torn world")
	got := make([]byte, len(msg))
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(server, got)
		done <- err
	}()
	if n, err := fc.Write(msg); err != nil || n != len(msg) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("peer read %q, want %q", got, msg)
	}
	if p.PartialWrites.Load() == 0 {
		t.Error("partial write not counted")
	}
	fc.Close()
}

// An injected reset delivers a prefix, reports ErrInjectedReset, and leaves
// the peer seeing a truncated stream.
func TestInjectedReset(t *testing.T) {
	p := New(Config{Seed: 3, ResetProb: 1})
	client, server := net.Pipe()
	defer server.Close()
	fc := p.WrapConn(client)

	msg := []byte("doomed frame")
	var peerN int
	var peerErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, len(msg))
		for peerErr == nil {
			var n int
			n, peerErr = server.Read(buf)
			peerN += n
		}
	}()
	n, err := fc.Write(msg)
	if err != ErrInjectedReset {
		t.Fatalf("Write err = %v, want ErrInjectedReset", err)
	}
	if n >= len(msg) {
		t.Fatalf("reset wrote the whole message (%d bytes)", n)
	}
	<-done
	if peerN != n {
		t.Fatalf("peer read %d bytes, writer reported %d", peerN, n)
	}
	if p.Resets.Load() != 1 {
		t.Errorf("Resets = %d, want 1", p.Resets.Load())
	}
}

// The env wrapper injects spin latency without breaking the Env contract.
func TestWrapThreads(t *testing.T) {
	p := New(Config{Seed: 9, DelayProb: 1, Delay: time.Microsecond})
	world := tm.NewRealWorld()
	th := tm.NewThread(0, tm.NewRealEnv(0, world))
	inner := th.Env
	p.WrapThreads([]*tm.Thread{th})
	if th.Env == inner {
		t.Fatal("WrapThreads left the env unwrapped")
	}
	th.Env.Spin()
	if p.Delays.Load() == 0 {
		t.Error("spin delay not injected")
	}
	if th.Env.ID() != 0 {
		t.Errorf("wrapped env ID = %d", th.Env.ID())
	}
}

// TestFaultTraceEvents: injected faults land in the flight recorder — TM-layer
// faults in the faulted thread's ring, connection-layer faults in the plane's
// trace.PlaneSource ring.
func TestFaultTraceEvents(t *testing.T) {
	p := New(Config{Seed: 7, AbortProb: 0.5, DelayProb: 0.5, Delay: time.Microsecond})
	fr := trace.New(64)
	p.BindRecorder(fr)

	world := tm.NewRealWorld()
	sys := p.WrapSystem(core.NewNZSTM(world, 1))
	th := tm.NewThread(0, tm.NewRealEnv(0, world))
	th.SetRecorder(fr.ForSource(0))
	obj := sys.NewObject(tm.NewInts(1))
	for i := 0; i < 50; i++ {
		sys.Atomic(th, func(tx tm.Tx) error {
			tx.Update(obj, func(d tm.Data) { d.(*tm.Ints).V[0]++ })
			return nil
		})
	}
	var sawAbort, sawDelay bool
	for _, src := range fr.Snapshot() {
		if src.Source != 0 {
			continue
		}
		for _, e := range src.Events {
			switch e.Kind {
			case trace.KindFaultAbort:
				sawAbort = true
			case trace.KindFaultDelay:
				sawDelay = true
			}
		}
	}
	if !sawAbort || !sawDelay {
		t.Fatalf("thread ring missing fault events: abort=%v delay=%v", sawAbort, sawDelay)
	}

	// Connection layer: a wrapped pipe with certain slow reads and torn
	// writes must emit plane-source events.
	pc := New(Config{Seed: 9, SlowReadProb: 1, SlowRead: time.Microsecond,
		PartialWriteProb: 1, Delay: time.Microsecond})
	pc.BindRecorder(fr)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	wc := pc.WrapConn(a)
	go io.Copy(io.Discard, b)
	go b.Write([]byte("pong"))
	if _, err := wc.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := wc.Read(buf); err != nil {
		t.Fatal(err)
	}
	var sawSlow, sawTorn bool
	for _, src := range fr.Snapshot() {
		if src.Source != trace.PlaneSource {
			continue
		}
		for _, e := range src.Events {
			switch e.Kind {
			case trace.KindFaultSlowRead:
				sawSlow = true
			case trace.KindFaultTornWrite:
				sawTorn = true
			}
		}
	}
	if !sawSlow || !sawTorn {
		t.Fatalf("plane ring missing conn events: slow_read=%v torn_write=%v", sawSlow, sawTorn)
	}
}
