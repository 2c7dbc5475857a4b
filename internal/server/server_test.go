package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nztm/internal/kv"
	"nztm/internal/trace"
)

func TestProtocolRoundTrip(t *testing.T) {
	ops := []kv.Op{
		{Kind: kv.OpGet, Key: "k1"},
		{Kind: kv.OpPut, Key: "k2", Value: []byte("v2")},
		{Kind: kv.OpPut, Key: "k3", Value: []byte{}}, // empty ≠ nil
		{Kind: kv.OpDelete, Key: "k4"},
		{Kind: kv.OpCAS, Key: "k5", Expect: nil, Value: []byte("v5")},
		{Kind: kv.OpCAS, Key: "k6", Expect: []byte("old"), Value: nil},
	}
	payload, err := appendRequest(nil, 42, ops)
	if err != nil {
		t.Fatal(err)
	}
	var r request
	if err := parseRequest(payload, &r); err != nil || r.id != 42 || r.st != nil {
		t.Fatalf("parseRequest: id=%d st=%v err=%v", r.id, r.st, err)
	}
	got := r.ops
	if len(got) != len(ops) {
		t.Fatalf("op count %d != %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i].Kind != ops[i].Kind || got[i].Key != ops[i].Key ||
			!bytes.Equal(got[i].Value, ops[i].Value) || !bytes.Equal(got[i].Expect, ops[i].Expect) ||
			(got[i].Value == nil) != (ops[i].Value == nil) ||
			(got[i].Expect == nil) != (ops[i].Expect == nil) {
			t.Fatalf("op %d mismatch: %+v != %+v", i, got[i], ops[i])
		}
	}

	results := []kv.Result{
		{Found: true, Value: []byte("x")},
		{Found: false, Value: nil},
		{Found: true, Value: []byte{}},
	}
	rp := appendResponse(nil, 7, StatusOK, results, "")
	rid, status, rs, _, _, err := parseResponse(rp)
	if err != nil || rid != 7 || status != StatusOK || len(rs) != 3 {
		t.Fatalf("parseResponse: id=%d status=%d n=%d err=%v", rid, status, len(rs), err)
	}
	for i := range results {
		if rs[i].Found != results[i].Found || !bytes.Equal(rs[i].Value, results[i].Value) ||
			(rs[i].Value == nil) != (results[i].Value == nil) {
			t.Fatalf("result %d mismatch: %+v != %+v", i, rs[i], results[i])
		}
	}

	ep := appendResponse(nil, 9, StatusBudget, nil, "out of budget")
	_, status, _, _, msg, err := parseResponse(ep)
	if err != nil || status != StatusBudget || msg != "out of budget" {
		t.Fatalf("error response: status=%d msg=%q err=%v", status, msg, err)
	}

	// Truncated payloads must error, not panic.
	for cut := 0; cut < len(payload); cut++ {
		if err := parseRequest(payload[:cut], &r); err == nil {
			// Some prefixes can parse as a shorter valid request only if
			// lengths line up; the trailing-bytes check prevents that.
			t.Fatalf("truncated request at %d parsed", cut)
		}
	}
}

// TestParseRequestRefuses: decoding in place refuses what the copying
// decoder refused, with the same error, and a record that held a refused
// request decodes the next one cleanly.
func TestParseRequestRefuses(t *testing.T) {
	get := func(n int, key string) []byte { // n GETs of key, op count as given
		b := appendU16(appendU64(nil, 1), uint16(n))
		for i := 0; i < n; i++ {
			b = append(appendU16(append(b, byte(kv.OpGet)), uint16(len(key))), key...)
		}
		return b
	}
	put := func(blobLen uint32) []byte { // one PUT whose value claims blobLen bytes
		b := append(appendU16(appendU64(nil, 1), 1), byte(kv.OpPut))
		return appendU32(append(appendU16(b, 1), 'k'), blobLen)
	}
	good := get(2, "k")
	var r request
	for name, payload := range map[string][]byte{
		"no ops":              get(0, "k"),
		"more than MaxOps":    get(MaxOps+1, "k"),
		"key over MaxKey":     get(1, strings.Repeat("x", MaxKey+1)),
		"blob over MaxFrame":  put(MaxFrame + 1),
		"blob past the frame": put(8),
		"trailing byte":       append(get(2, "k"), 0),
		"unknown op kind":     append(appendU16(appendU64(nil, 1), 1), 9, 0, 0),
	} {
		if err := parseRequest(payload, &r); !errors.Is(err, errFrame) {
			t.Errorf("%s: err = %v, want errFrame", name, err)
		}
		if err := parseRequest(good, &r); err != nil || len(r.ops) != 2 || r.ops[1].Key != "k" || r.ops[1].Value != nil {
			t.Errorf("after %s: the next request decodes as %+v, %v", name, r.ops, err)
		}
	}
}

// startServer spins up a loopback server over an NZSTM-backed store and
// returns its address and a stopper.
func startServer(t testing.TB, backend string, threads int, cfg Config) (*Server, string, func()) {
	t.Helper()
	b, err := kv.OpenBackend(backend, threads)
	if err != nil {
		t.Fatal(err)
	}
	store := kv.New(b.Sys, 4, 16)
	srv := New(store, b.Reg, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop := func() {
		srv.Shutdown(5 * time.Second)
		if err := <-done; !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	}
	return srv, ln.Addr().String(), stop
}

// TestEndToEnd drives ≥8 concurrent clients over real sockets against the
// NZSTM backend: mixed single-key ops and multi-key atomic batches,
// asserting no lost updates and batch atomicity (run under -race in tier-1
// verification).
func TestEndToEnd(t *testing.T) {
	const (
		clients  = 10
		accounts = 8
		counters = 4
		initial  = 1000
		iters    = 120
	)
	srv, addr, stop := startServer(t, "nzstm", 8, Config{})
	defer stop()

	setup, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	acctKeys := make([]string, accounts)
	for i := range acctKeys {
		acctKeys[i] = fmt.Sprintf("acct:%d", i)
		if _, err := setup.Put(acctKeys[i], []byte(strconv.Itoa(initial))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < counters; i++ {
		if _, err := setup.Put(fmt.Sprintf("ctr:%d", i), []byte("0")); err != nil {
			t.Fatal(err)
		}
	}
	wantTotal := int64(accounts * initial)

	var wg sync.WaitGroup
	incs := make([]int64, clients) // successful increments per client
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rng := uint64(id+1)*0x9e3779b97f4a7c15 + 3
			for i := 0; i < iters; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				switch id % 3 {
				case 0: // auditor: atomic GET batch over all accounts
					ops := make([]kv.Op, accounts)
					for k, key := range acctKeys {
						ops[k] = kv.Op{Kind: kv.OpGet, Key: key}
					}
					rs, err := c.Do(ops)
					if err != nil {
						t.Error(err)
						return
					}
					var sum int64
					for _, r := range rs {
						n, _ := strconv.ParseInt(string(r.Value), 10, 64)
						sum += n
					}
					if sum != wantTotal {
						t.Errorf("client %d: torn batch read, total %d != %d", id, sum, wantTotal)
						return
					}
				case 1: // transfer: optimistic CAS batch across two accounts
					from := acctKeys[rng%accounts]
					to := acctKeys[(rng>>20)%accounts]
					if from == to {
						continue
					}
					amt := int64(rng%7) + 1
					for {
						rs, err := c.Do([]kv.Op{
							{Kind: kv.OpGet, Key: from}, {Kind: kv.OpGet, Key: to},
						})
						if err != nil {
							t.Error(err)
							return
						}
						vf, _ := strconv.ParseInt(string(rs[0].Value), 10, 64)
						vt, _ := strconv.ParseInt(string(rs[1].Value), 10, 64)
						cs, err := c.Do([]kv.Op{
							{Kind: kv.OpCAS, Key: from, Expect: rs[0].Value,
								Value: []byte(strconv.FormatInt(vf-amt, 10))},
							{Kind: kv.OpCAS, Key: to, Expect: rs[1].Value,
								Value: []byte(strconv.FormatInt(vt+amt, 10))},
						})
						if err != nil {
							t.Error(err)
							return
						}
						if cs[0].Found && cs[1].Found {
							break
						}
					}
				case 2: // counter: single-key CAS increment loop
					key := fmt.Sprintf("ctr:%d", rng%counters)
					for {
						cur, err := c.Get(key)
						if err != nil {
							t.Error(err)
							return
						}
						n, _ := strconv.ParseInt(string(cur.Value), 10, 64)
						r, err := c.CAS(key, cur.Value, []byte(strconv.FormatInt(n+1, 10)))
						if err != nil {
							t.Error(err)
							return
						}
						if r.Found {
							incs[id]++
							break
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// No lost updates: account total preserved, counter total = successful
	// increments.
	var finalTotal int64
	for _, key := range acctKeys {
		r, err := setup.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := strconv.ParseInt(string(r.Value), 10, 64)
		finalTotal += n
	}
	if finalTotal != wantTotal {
		t.Fatalf("lost transfer updates: %d != %d", finalTotal, wantTotal)
	}
	var wantIncs, gotIncs int64
	for _, n := range incs {
		wantIncs += n
	}
	for i := 0; i < counters; i++ {
		r, err := setup.Get(fmt.Sprintf("ctr:%d", i))
		if err != nil {
			t.Fatal(err)
		}
		n, _ := strconv.ParseInt(string(r.Value), 10, 64)
		gotIncs += n
	}
	if gotIncs != wantIncs {
		t.Fatalf("lost counter updates: %d != %d", gotIncs, wantIncs)
	}

	// metricsz names the system and reflects traffic.
	var buf bytes.Buffer
	srv.WriteMetricsz(&buf)
	out := buf.String()
	if !regexp.MustCompile(`nztm_build_info\{go_version="[^"]+",revision="[^"]+",system="NZSTM"\} 1`).MatchString(out) {
		t.Fatalf("metricsz missing build info with the system:\n%s", out)
	}
	if srv.Spans().Total().Count() == 0 {
		t.Fatalf("request latency histogram empty:\n%s", out)
	}
	setup.Close()
}

// TestPipelining issues many overlapping requests from one connection's
// worth of goroutines and checks they all complete correctly.
// wirePattern is n bytes that no other caller g, round or salt produces: a
// value that reached the wrong reply, or was read from a reused buffer,
// does not compare equal.
func wirePattern(g, round, salt, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(g*31 + round*7 + salt + i)
	}
	return v
}

// TestValuesThroughTheWire: what a client puts is what it gets — the empty
// value stays empty and found, never nil — and both ends of the connection
// own their buffers: the client may rewrite the value it sent and the
// result it received without reaching the stored bytes, which the server
// shares between the bucket, its backups and every response it encodes.
func TestValuesThroughTheWire(t *testing.T) {
	_, addr, stop := startServer(t, "nzstm", 2, Config{})
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Put("empty", []byte{}); err != nil {
		t.Fatal(err)
	}
	if r, err := c.Get("empty"); err != nil || !r.Found || r.Value == nil || len(r.Value) != 0 {
		t.Fatalf("GET of the empty value = %+v, %v; want found, empty and non-nil", r, err)
	}
	if r, err := c.CAS("empty", []byte{}, []byte("full")); err != nil || !r.Found {
		t.Fatalf("CAS expecting the empty value: %+v, %v", r, err)
	}

	sent := []byte("sent")
	if _, err := c.Put("k", sent); err != nil {
		t.Fatal(err)
	}
	copy(sent, "XXXX")
	first, err := c.Get("k")
	if err != nil || string(first.Value) != "sent" {
		t.Fatalf("GET after rewriting the sent buffer = %+v, %v", first, err)
	}
	copy(first.Value, "YYYY")
	if again, err := c.Get("k"); err != nil || string(again.Value) != "sent" {
		t.Fatalf("GET after rewriting an earlier result = %+v, %v", again, err)
	}

	// The server decodes each request in place over a recycled record and
	// encodes the response into it. 64 callers pipeline on the one
	// connection, each with its own byte pattern and a size that changes
	// every round (70 KiB is past what a recycled record may keep), and
	// check every response byte for byte: a record handed on or reused too
	// early shows as another request's bytes. 2048 requests pass through
	// the connection's few hundred records, so every one is reused.
	sizes := []int{0, 1, 128, 70 << 10}
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("wire:%d", g)
			for round := 0; round < 8; round++ {
				val := wirePattern(g, round, 0, sizes[(g+round)%len(sizes)])
				next := wirePattern(g, round, 101, sizes[(g+round+1)%len(sizes)])
				if r, err := c.Put(key, val); err != nil || !r.Found {
					t.Errorf("%s round %d: PUT = %+v, %v", key, round, r, err)
					return
				}
				if r, err := c.Get(key); err != nil || !r.Found || r.Value == nil || !bytes.Equal(r.Value, val) {
					t.Errorf("%s round %d: GET returned %d bytes, %v; want the %d put", key, round, len(r.Value), err, len(val))
					return
				}
				if r, err := c.CAS(key, val, next); err != nil || !r.Found {
					t.Errorf("%s round %d: CAS expecting the %d bytes put = %+v, %v", key, round, len(val), r, err)
					return
				}
				if r, err := c.Get(key); err != nil || !r.Found || r.Value == nil || !bytes.Equal(r.Value, next) {
					t.Errorf("%s round %d: GET after CAS returned %d bytes, %v; want the %d swapped in", key, round, len(r.Value), err, len(next))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestClientResultsAreTheCallers: a response's results alias one buffer that
// belongs to whoever called Do. Holding them across a thousand later round
// trips on the same Client changes nothing in them, and writing over them
// afterwards reaches neither a later result nor the store.
func TestClientResultsAreTheCallers(t *testing.T) {
	_, addr, stop := startServer(t, "nzstm", 2, Config{})
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 16
	gets := make([]kv.Op, n)
	want := make([][]byte, n)
	for i := range gets {
		key := fmt.Sprintf("held:%d", i)
		want[i] = bytes.Repeat([]byte{byte('a' + i)}, 16+i)
		gets[i] = kv.Op{Kind: kv.OpGet, Key: key}
		if _, err := c.Put(key, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, rs []kv.Result) {
		t.Helper()
		for i := range rs {
			if !rs[i].Found || !bytes.Equal(rs[i].Value, want[i]) {
				t.Fatalf("%s: result %d = %q, want %q", when, i, rs[i].Value, want[i])
			}
		}
	}
	held, err := c.Do(gets)
	if err != nil {
		t.Fatal(err)
	}
	check("fresh", held)
	for i := 0; i < 1000; i++ {
		if _, err := c.Put("other", bytes.Repeat([]byte{byte(i)}, 1+i%300)); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			rs, err := c.Do(gets)
			if err != nil {
				t.Fatal(err)
			}
			check("later", rs)
		}
	}
	check("held across 1000 round trips", held)
	for i := range held {
		for j := range held[i].Value {
			held[i].Value[j] = '!'
		}
	}
	rs, err := c.Do(gets)
	if err != nil {
		t.Fatal(err)
	}
	check("after writing over the held results", rs)
}

// TestLargeRequestNotRetained: a request record that one large frame (or
// one large response) grew is dropped after use, and so is the client's
// encode buffer. After an 8 MB PUT, a GET of it and a thousand small
// requests on the same connection, with the value deleted again, neither
// side still holds 8 MB.
func TestLargeRequestNotRetained(t *testing.T) {
	_, addr, stop := startServer(t, "nzstm", 2, Config{})
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	if _, err := c.Put("small", []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := heap()

	const big = 8 << 20
	if _, err := c.Put("big", make([]byte, big)); err != nil {
		t.Fatal(err)
	}
	if r, err := c.Get("big"); err != nil || len(r.Value) != big {
		t.Fatalf("GET of the 8 MB value: %d bytes, %v", len(r.Value), err)
	}
	if _, err := c.Delete("big"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := c.Put("small", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if after := heap(); after > before+big/4 {
		t.Fatalf("live heap grew from %d to %d bytes across one 8 MB request and 1000 small ones: a buffer it grew is still held", before, after)
	}
}

func TestPipelining(t *testing.T) {
	_, addr, stop := startServer(t, "nzstm", 4, Config{})
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("pipe:%d", g)
			for i := 0; i < 50; i++ {
				want := []byte(fmt.Sprintf("%d-%d", g, i))
				if _, err := c.Put(key, want); err != nil {
					t.Error(err)
					return
				}
				r, err := c.Get(key)
				if err != nil {
					t.Error(err)
					return
				}
				if !r.Found || !bytes.Equal(r.Value, want) {
					t.Errorf("goroutine %d: read %q want %q", g, r.Value, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBackendsServe smoke-tests every backend over a socket, including the
// GlobalLock baseline the load generator compares against.
func TestBackendsServe(t *testing.T) {
	for _, backend := range []string{"nzstm", "bzstm", "glock"} {
		t.Run(backend, func(t *testing.T) {
			_, addr, stop := startServer(t, backend, 4, Config{MaxAttempts: 10_000})
			defer stop()
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Put("k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			r, err := c.Get("k")
			if err != nil || !r.Found || string(r.Value) != "v" {
				t.Fatalf("get: %+v %v", r, err)
			}
			if r, err := c.Delete("k"); err != nil || !r.Found {
				t.Fatalf("delete: %+v %v", r, err)
			}
		})
	}
}

// TestGracefulShutdown checks Shutdown lets an in-flight request finish
// and then refuses further traffic.
func TestGracefulShutdown(t *testing.T) {
	srv, addr, _ := startServer(t, "nzstm", 2, Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	// The connection is now closed; further calls fail.
	if _, err := c.Get("k"); err == nil {
		t.Fatal("request after shutdown should fail")
	}
	if err := srv.Serve(nil); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve after shutdown: %v", err)
	}
}

// TestBadFrame sends garbage and checks the server survives (closes the
// connection without crashing) and keeps serving others.
func TestBadFrame(t *testing.T) {
	_, addr, stop := startServer(t, "nzstm", 2, Config{})
	defer stop()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// A frame claiming to be bigger than MaxFrame.
	raw.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	buf := make([]byte, 1)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("server should close a desynchronised connection")
	}
	raw.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Put("still", []byte("alive")); err != nil {
		t.Fatalf("server died after bad frame: %v", err)
	}
}

// A server-side budget exhaustion is retried by DoRetry under the policy,
// and the policy's delays grow exponentially up to the cap.
func TestClientDoRetry(t *testing.T) {
	// RequestTimeout of 1ns: every request's deadline is already expired
	// when it executes, so the server answers StatusBudget without side
	// effects — the exact response class DoRetry is allowed to retry.
	srv, addr, stop := startServer(t, "nzstm", 2, Config{RequestTimeout: time.Nanosecond})
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	policy := RetryPolicy{MaxAttempts: 3, Base: 100 * time.Microsecond}
	if _, err := c.DoRetry([]kv.Op{{Kind: kv.OpPut, Key: "k", Value: []byte("v")}}, policy); !errors.Is(err, kv.ErrBudget) {
		t.Fatalf("DoRetry err = %v, want ErrBudget", err)
	}
	if got := srv.reqBudget.Load(); got != 3 {
		t.Fatalf("server saw %d budget-exhausted attempts, want 3", got)
	}
}

func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{Base: time.Millisecond, Max: 8 * time.Millisecond}
	for attempt := 2; attempt <= 10; attempt++ {
		d := p.delay(attempt)
		full := time.Millisecond << uint(attempt-2)
		if full > p.Max {
			full = p.Max
		}
		if d < full/2 || d >= full {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, full/2, full)
		}
	}
	if d := (RetryPolicy{}).delay(2); d < 500*time.Microsecond || d >= time.Millisecond {
		t.Fatalf("default base delay %v", d)
	}
}

// TestMoreConnectionsThanThreadHint is the acceptance test for the M:N
// scheduler: a server with a tiny executor pool must serve many more
// *simultaneous* connections than it has pool slots. Under the old
// slot-per-connection model each extra connection would have bound its
// own registry slot; now connections bind none — the registry high-water
// mark stays at the executor count no matter how many connections open.
func TestMoreConnectionsThanThreadHint(t *testing.T) {
	const hint = 2
	const conns = hint + 6

	b, err := kv.OpenBackend("nzstm", hint)
	if err != nil {
		t.Fatal(err)
	}
	store := kv.New(b.Sys, 4, 16)
	srv := New(store, b.Reg, Config{Executors: hint})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(5 * time.Second)
		if err := <-done; !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	}()

	// Hold all connections open at once, then release one request per
	// connection through a barrier so they are in flight together.
	clients := make([]*Client, conns)
	for i := range clients {
		c, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatalf("conn %d beyond the %d-thread hint refused: %v", i, hint, err)
		}
		defer c.Close()
		clients[i] = c
	}

	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			<-release
			key := fmt.Sprintf("conn%d", i)
			if _, err := c.Put(key, []byte("v")); err != nil {
				errs <- fmt.Errorf("conn %d put: %w", i, err)
				return
			}
			r, err := c.Get(key)
			if err != nil || !r.Found || string(r.Value) != "v" {
				errs <- fmt.Errorf("conn %d get: %+v, %v", i, r, err)
			}
		}(i, c)
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Connections share the executor pool's slots: the registry
	// high-water mark must NOT have grown past the pool, even with 4×
	// as many simultaneous connections.
	if high := b.Reg.High(); high > hint {
		t.Fatalf("registry high-water %d; want <= %d executors (%d conns held slots?)",
			high, hint, conns)
	}
}

// TestMetricszAndTracez: the Prometheus and trace endpoints report live
// server state — request counters, the span's latency and attempts
// histograms, slot churn, and per-thread trace events recorded through
// the registry-bound flight recorder.
func TestMetricszAndTracez(t *testing.T) {
	b, err := kv.OpenBackend("nzstm", 4)
	if err != nil {
		t.Fatal(err)
	}
	fr := trace.New(256)
	b.Reg.BindRecorder(fr)
	store := kv.New(b.Sys, 4, 16)
	store.EnableMetrics()
	// One executor: exactly one registry slot is ever acquired, no
	// matter how many requests or connections arrive.
	srv := New(store, b.Reg, Config{Executors: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(5 * time.Second)
		<-done
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 20; i++ {
		if _, err := c.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	waitSpans(t, srv, 20)
	var mb strings.Builder
	srv.WriteMetricsz(&mb)
	out := mb.String()
	for _, want := range []string{
		`nztm_server_requests_total{status="ok"} 20`,
		"nztm_request_total_us_count 20",
		"nztm_request_attempts_count 20",
		"nztm_tm_commits_total",
		"nztm_tm_slot_acquires_total 1",
		"nztm_tm_slot_releases_total 0",
		"nztm_tm_threads_max ",
		"nztm_kv_key_aborts_overflow_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metricsz missing %q", want)
		}
	}

	var tb strings.Builder
	srv.WriteTracezOpts(&tb, nil, 0)
	tz := tb.String()
	if !strings.Contains(tz, `"events_total"`) || !strings.Contains(tz, `"commit"`) {
		t.Errorf("tracez missing recorded commit events:\n%.500s", tz)
	}

}

// TestTracezDisabled: with no recorder anywhere, /tracez reports disabled.
func TestTracezDisabled(t *testing.T) {
	b, err := kv.OpenBackend("nzstm", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(kv.New(b.Sys, 1, 1), b.Reg, Config{})
	var buf strings.Builder
	srv.WriteTracezOpts(&buf, nil, 0)
	if strings.TrimSpace(buf.String()) != `{"enabled":false}` {
		t.Fatalf("tracez without recorder = %q", buf.String())
	}
}
