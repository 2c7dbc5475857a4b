package main

import (
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nztm/internal/kv"
	"nztm/internal/server"
)

func put(key, val string) []kv.Op { return []kv.Op{{Kind: kv.OpPut, Key: key, Value: []byte(val)}} }
func del(key string) []kv.Op      { return []kv.Op{{Kind: kv.OpDelete, Key: key}} }

// TestLedgerAdmissibility is the ledger's contract as a table: which
// reads of a key are admissible after a sequence of acknowledged and
// lost writes and verified reads.
func TestLedgerAdmissibility(t *testing.T) {
	type step struct {
		ack, lost []kv.Op
		rebase    *string // a verified read: nil = nothing, "" = absent
	}
	absent := ""
	v := func(s string) *string { return &s }
	cases := []struct {
		name  string
		steps []step
		ok    []*string // admissible reads (nil = absent)
		bad   []*string // inadmissible reads
	}{
		{"fresh key reads absent", nil,
			[]*string{nil}, []*string{v("a")}},
		{"acked beats base", []step{{ack: put("k", "a")}},
			[]*string{v("a")}, []*string{nil, v("b")}},
		{"newest ack wins", []step{{ack: put("k", "a")}, {ack: put("k", "b")}},
			[]*string{v("b")}, []*string{v("a"), nil}},
		{"acked delete reads absent", []step{{ack: put("k", "a")}, {ack: del("k")}},
			[]*string{nil}, []*string{v("a")}},
		{"lost write is optional", []step{{lost: put("k", "a")}},
			[]*string{nil, v("a")}, []*string{v("b")}},
		{"lost write outlives a later ack", []step{{lost: put("k", "a")}, {ack: put("k", "b")}},
			[]*string{v("b"), v("a")}, []*string{nil}},
		{"lost delete is optional", []step{{ack: put("k", "a")}, {rebase: v("a")}, {lost: del("k")}},
			[]*string{v("a"), nil}, []*string{v("b")}},
		{"rebase moves the base", []step{{ack: put("k", "a")}, {rebase: v("a")}},
			[]*string{v("a")}, []*string{nil}},
		{"rebase clears lost effects", []step{{lost: put("k", "a")}, {ack: put("k", "b")}, {rebase: v("b")}},
			[]*string{v("b")}, []*string{v("a"), nil}},
		{"rebase to absent", []step{{lost: put("k", "a")}, {rebase: &absent}},
			[]*string{nil}, []*string{v("a")}},
	}
	show := func(r *string) string {
		if r == nil {
			return "<absent>"
		}
		return *r
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newLedger()
			for _, s := range tc.steps {
				if s.ack != nil {
					l.ack(s.ack)
				}
				if s.lost != nil {
					l.markLost(s.lost)
				}
				if s.rebase != nil {
					found := *s.rebase != ""
					if err := l.settle("k", found, []byte(*s.rebase), true); err != nil {
						t.Fatalf("rebase to %q: %v", *s.rebase, err)
					}
				}
			}
			for _, r := range tc.ok {
				if err := l.settle("k", r != nil, []byte(show(r)), false); err != nil {
					t.Errorf("read %s refused: %v", show(r), err)
				}
			}
			for _, r := range tc.bad {
				if err := l.settle("k", r != nil, []byte(show(r)), false); err == nil {
					t.Errorf("read %s admitted", show(r))
				}
			}
		})
	}
}

// TestLedgerRun pins how run files each outcome: an ack binds the key,
// a clean shed leaves no obligation, anything else is outcome-unknown.
func TestLedgerRun(t *testing.T) {
	errConn := errors.New("connection reset")
	cases := []struct {
		name       string
		clean      bool
		err        error
		acked      uint64
		lost       uint64
		touched    bool
		absentOK   bool // may the key still read absent?
		wantReturn error
	}{
		{"acked", true, nil, 1, 0, true, false, nil},
		{"acked after a severed attempt", false, nil, 1, 0, true, false, nil},
		{"budget shed", true, kv.ErrBudget, 0, 0, false, true, kv.ErrBudget},
		{"read-only shed", true, kv.ErrReadOnly, 0, 0, false, true, kv.ErrReadOnly},
		{"severed", true, errConn, 0, 1, true, true, errConn},
		{"shed after a severed attempt", false, kv.ErrBudget, 0, 1, true, true, kv.ErrBudget},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newLedger()
			do := func([]kv.Op) ([]kv.Result, bool, error) { return []kv.Result{{}}, tc.clean, tc.err }
			if err := l.run(0, put("k", "a"), do); err != tc.wantReturn {
				t.Fatalf("run returned %v, want %v", err, tc.wantReturn)
			}
			if l.acked.Load() != tc.acked || l.lost.Load() != tc.lost {
				t.Errorf("acked=%d lost=%d, want %d, %d", l.acked.Load(), l.lost.Load(), tc.acked, tc.lost)
			}
			if got := len(l.touchedKeys()) == 1; got != tc.touched {
				t.Errorf("touched=%v, want %v", got, tc.touched)
			}
			if ok := l.settle("k", false, nil, false) == nil; ok != tc.absentOK {
				t.Errorf("absent admissible=%v, want %v", ok, tc.absentOK)
			}
			if ok := l.settle("k", true, []byte("a"), false) == nil; ok != (tc.err == nil || !tc.clean || !shed(tc.err)) {
				t.Errorf("written value admissible=%v", ok)
			}
		})
	}
}

// TestNoteParsesSplitWrites feeds a child's output through lineWriter in
// awkward pieces: the ready line, a kill-site marker and two
// I/O-error markers each cut mid-line across Write calls.
func TestNoteParsesSplitWrites(t *testing.T) {
	c := &child{readyCh: make(chan struct{})}
	w := &lineWriter{c: c}
	out := "nztm-server: recovered /d: replayed=3\n" +
		"nztm-server: ready addr=127.0.0.1:4100 statsz=127.0.0.1:4101\n" +
		"DISK-FAULT site=kill-mid-write seed=7\n" +
		"DISK-FAULT site=write-enospc seed=9\n" +
		"DISK-FAULT site=sync seed=9\n" +
		"partial line with no newline"
	for _, cut := range []int{5, 17, 31, 64, 2, 40, 9, 1000} {
		if cut > len(out) {
			cut = len(out)
		}
		if n, err := w.Write([]byte(out[:cut])); n != cut || err != nil {
			t.Fatalf("Write = %d, %v", n, err)
		}
		out = out[cut:]
	}
	select {
	case <-c.readyCh:
	default:
		t.Fatal("ready latch not fired")
	}
	if c.addr != "127.0.0.1:4100" || c.statsz != "127.0.0.1:4101" {
		t.Errorf("addr=%q statsz=%q", c.addr, c.statsz)
	}
	if want := []string{"kill-mid-write", "write-enospc", "sync"}; !reflect.DeepEqual(c.sites, want) {
		t.Errorf("sites = %q, want %q", c.sites, want)
	}
	if len(c.tail) != 5 || !strings.HasPrefix(c.tail[0], "nztm-server: recovered") {
		t.Errorf("tail = %q (the unterminated line must wait for its newline)", c.tail)
	}
	tl := tally{}
	tl.add(c.sites)
	if tl.total() != 3 || perSite(tl, diskSites) != "write-eio=0 write-short=0 write-enospc=1 sync=1 open=0 rename=0" {
		t.Errorf("tally %v renders %q", tl, perSite(tl, diskSites))
	}
	if err := allFired(tl, diskSites); err == nil || !strings.Contains(err.Error(), "site write-eio never fired") {
		t.Errorf("allFired = %v", err)
	}
}

// TestNoteReadyWithoutMux: a server with the observability mux off
// prints only the KV address.
func TestNoteReadyWithoutMux(t *testing.T) {
	c := &child{readyCh: make(chan struct{})}
	c.note("nztm-server: ready addr=[::1]:7420")
	if c.addr != "[::1]:7420" || c.statsz != "" {
		t.Errorf("addr=%q statsz=%q", c.addr, c.statsz)
	}
}

// startStore serves a memory-only store in process for the test's
// lifetime and returns its address.
func startStore(t *testing.T) string {
	t.Helper()
	b, err := kv.OpenBackend("nzstm", 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(kv.New(b.Sys, 2, 4), b.Reg, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown(5 * time.Second)
		<-done
	})
	return ln.Addr().String()
}

// TestVerifyNegativeControl runs the ledger's verify against a real
// in-process server: an acknowledged PUT the store never saw must fail
// the verify, and a lost write may read back either way.
func TestVerifyNegativeControl(t *testing.T) {
	cl, err := dial(startStore(t), time.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	l := newLedger()
	// Lost writes: one reached the store, one never left the client.
	if _, err := cl.Do(put("w0-k01", "landed")); err != nil {
		t.Fatal(err)
	}
	l.markLost(put("w0-k01", "landed"))
	l.markLost(put("w0-k02", "never-sent"))
	// An acknowledged write that really is in the store.
	if err := l.run(0, put("w0-k03", "acked"), plain(cl)); err != nil {
		t.Fatal(err)
	}
	if err := l.verify(cl, 1); err != nil {
		t.Fatalf("verify of admissible state: %v", err)
	}
	if keys := l.touchedKeys(); len(keys) != 0 {
		t.Errorf("verify left obligations on %q", keys)
	}

	// The negative control: acknowledged, never sent.
	l.ack(put("w0-k04", "ghost"))
	err = l.verify(cl, 1)
	if err == nil || !strings.Contains(err.Error(), "acknowledged write lost") || errors.Is(err, errSevered) {
		t.Fatalf("verify of a lost acknowledged write = %v", err)
	}
	if !strings.Contains(err.Error(), `key w0-k04 reads as <absent>`) {
		t.Errorf("verify error does not name the key and value: %v", err)
	}
}

// TestLoadThenVerify drives the worker loop against an in-process
// server — workers share the ledger, so this is its race test — and
// requires the round's obligations to verify and its history to
// linearize.
func TestLoadThenVerify(t *testing.T) {
	addr := startStore(t)
	cfg := soakCfg{seed: 3, keys: 6, workers: 3}
	l := newLedger()
	var reads atomic.Int64
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	l.load(ctx, cfg, loadSpec{
		iter: 1, reads: 15,
		open: func(w int) session {
			cl, err := dial(addr, time.Now().Add(time.Second))
			if err != nil {
				t.Error(err)
				return session{}
			}
			return session{do: plain(cl), close: func() { cl.Close() }}
		},
	})
	if l.acked.Load() == 0 {
		t.Fatal("no request acknowledged")
	}
	cl, err := dial(addr, time.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := l.verify(cl, cfg.workers); err != nil {
		t.Fatal(err)
	}
	if err := checkHistory(l.rec, 0, "history"); err != nil {
		t.Fatal(err)
	}

	// With a read hook the GETs leave the history; a stop from the
	// outcome hook ends a worker on its first failed request.
	before := l.rec.Len()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	l.load(ctx2, cfg, loadSpec{
		iter: 2, reads: 50,
		open: func(int) session {
			return session{
				do:      func([]kv.Op) ([]kv.Result, bool, error) { return nil, true, errors.New("down") },
				outcome: func(error) bool { return true },
			}
		},
		read: func(string) { reads.Add(1) },
	})
	if got := l.rec.Len() - before; got != cfg.workers {
		t.Errorf("%d requests recorded after the outcome hook stopped %d workers", got, cfg.workers)
	}
	if l.lost.Load() != uint64(cfg.workers) {
		t.Errorf("lost = %d, want %d", l.lost.Load(), cfg.workers)
	}
	t.Logf("%d acked, %d reads through the hook", l.acked.Load(), reads.Load())
}
