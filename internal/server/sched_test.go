package server

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"net"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nztm/internal/core"
	"nztm/internal/kv"
	"nztm/internal/metrics"
	"nztm/internal/tm"
	"nztm/internal/wal"
)

// doWithin runs one batch with a hang guard: a scheduler bug that wedges a
// request surfaces as a test failure, not a suite timeout.
func doWithin(t *testing.T, c *Client, ops []kv.Op, d time.Duration) ([]kv.Result, error) {
	t.Helper()
	type out struct {
		rs  []kv.Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		rs, err := c.Do(ops)
		ch <- out{rs, err}
	}()
	select {
	case o := <-ch:
		return o.rs, o.err
	case <-time.After(d):
		t.Fatalf("request %v hung past %v", ops, d)
		return nil, nil
	}
}

// TestSchedulerOversubscription is the scheduler correctness suite: under
// both admission policies, 4× more concurrent connections than executors
// all make progress, idle connections acquire no registry slot (asserted
// via SlotAcquires/SlotReleases deltas), and the registry high-water mark
// stays pinned at the executor count. Runs under -race in tier-1
// verification (the server package is in RACE_PKGS).
func TestSchedulerOversubscription(t *testing.T) {
	const executors = 2
	const conns = 4 * executors
	for _, tc := range []struct {
		name      string
		admission string
		queue     int
	}{
		{"reject-admission", AdmitReject, 256},
		{"block-admission", AdmitBlock, 4},
		{"tiny-queue-reject", AdmitReject, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := kv.OpenBackend("nzstm", executors)
			if err != nil {
				t.Fatal(err)
			}
			store := kv.New(b.Sys, 4, 16)
			srv := New(store, b.Reg, Config{
				Executors:  executors,
				QueueDepth: tc.queue,
				Admission:  tc.admission,
			})
			_, addr, stop := serveOn(t, srv)
			defer stop()

			// Slot baseline after the executor pool is up: opening idle
			// connections must not move it.
			waitFor(t, time.Second, func() bool {
				return b.Sys.Stats().View().SlotAcquires == executors
			})
			before := b.Sys.Stats().View()

			clients := make([]*Client, conns)
			for i := range clients {
				c, err := Dial(addr)
				if err != nil {
					t.Fatalf("conn %d (beyond %d executors) refused: %v", i, executors, err)
				}
				defer c.Close()
				clients[i] = c
			}
			// Idle connections hold no slot.
			time.Sleep(20 * time.Millisecond)
			idle := b.Sys.Stats().View()
			if idle.SlotAcquires != before.SlotAcquires || idle.SlotReleases != before.SlotReleases {
				t.Fatalf("idle connections moved slot counters: acquires %d→%d releases %d→%d",
					before.SlotAcquires, idle.SlotAcquires, before.SlotReleases, idle.SlotReleases)
			}

			// All connections make progress together through the shared pool.
			policy := RetryPolicy{MaxAttempts: 64, Base: 200 * time.Microsecond}
			var wg sync.WaitGroup
			errs := make(chan error, conns)
			for i, c := range clients {
				wg.Add(1)
				go func(i int, c *Client) {
					defer wg.Done()
					key := fmt.Sprintf("over:%d", i)
					for n := 0; n < 25; n++ {
						want := []byte(fmt.Sprintf("%d-%d", i, n))
						if _, err := c.DoRetry([]kv.Op{{Kind: kv.OpPut, Key: key, Value: want}}, policy); err != nil {
							errs <- fmt.Errorf("conn %d put %d: %w", i, n, err)
							return
						}
						rs, err := c.DoRetry([]kv.Op{{Kind: kv.OpGet, Key: key}}, policy)
						if err != nil || !rs[0].Found || string(rs[0].Value) != string(want) {
							errs <- fmt.Errorf("conn %d get %d: %v %v", i, n, rs, err)
							return
						}
					}
				}(i, c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			// The workload itself minted no connection slots either.
			after := b.Sys.Stats().View()
			if after.SlotAcquires != before.SlotAcquires {
				t.Errorf("workload acquired %d extra slots (connections binding slots?)",
					after.SlotAcquires-before.SlotAcquires)
			}
			if high := b.Reg.High(); high > executors {
				t.Errorf("registry high-water %d > %d executors", high, executors)
			}
			if tc.admission == AdmitBlock && srv.SchedStats().Rejected.Load() != 0 {
				t.Errorf("block admission rejected %d requests", srv.SchedStats().Rejected.Load())
			}
		})
	}
}

// serveOn starts srv on a loopback listener.
func serveOn(t *testing.T, srv *Server) (*Server, string, func()) {
	t.Helper()
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

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadRejectNotHang: with every executor stalled and the queue
// full, a further request is answered StatusOverloaded promptly — never
// parked indefinitely — and the reject is visible in /metricsz.
// Once the stall lifts, the queued work completes untouched.
func TestOverloadRejectNotHang(t *testing.T) {
	b, err := kv.OpenBackend("nzstm", 1)
	if err != nil {
		t.Fatal(err)
	}
	store := kv.New(b.Sys, 4, 16)
	srv := New(store, b.Reg, Config{Executors: 1, QueueDepth: 1})
	stall := make(chan struct{})
	var stalled atomic.Int32
	srv.preExec = func(ops []kv.Op) {
		if len(ops) == 1 && strings.HasPrefix(ops[0].Key, "stall:") {
			stalled.Add(1)
			<-stall
		}
	}
	_, addr, stop := serveOn(t, srv)
	defer stop()

	cA, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cA.Close()
	cB, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cB.Close()

	// Occupy the lone executor...
	resA := make(chan error, 1)
	go func() {
		_, err := cA.Put("stall:1", []byte("v"))
		resA <- err
	}()
	waitFor(t, 2*time.Second, func() bool { return stalled.Load() == 1 })
	// ...fill the depth-1 queue...
	resQ := make(chan error, 1)
	go func() {
		_, err := cA.Put("queued", []byte("v"))
		resQ <- err
	}()
	waitFor(t, 2*time.Second, func() bool { return srv.SchedStats().Depth() >= 1 })

	// ...and the next request must be shed, fast.
	start := time.Now()
	_, err = doWithin(t, cB, []kv.Op{{Kind: kv.OpPut, Key: "shed", Value: []byte("v")}}, 2*time.Second)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-full request: err=%v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("overload answer took %v — should be immediate", d)
	}

	// The reject shows up in /metricsz (scheduler and request counters).
	var sb strings.Builder
	srv.WriteMetricsz(&sb)
	out := sb.String()
	if !regexp.MustCompile(`(?m)^nztm_sched_rejected_total [1-9]`).MatchString(out) {
		t.Errorf("metricsz missing nonzero nztm_sched_rejected_total:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^nztm_server_requests_total\{status="overloaded"\} [1-9]`).MatchString(out) {
		t.Errorf("metricsz missing nonzero overloaded requests:\n%s", out)
	}

	// Lift the stall: the stalled and queued requests complete.
	close(stall)
	if err := <-resA; err != nil {
		t.Fatalf("stalled request failed: %v", err)
	}
	if err := <-resQ; err != nil {
		t.Fatalf("queued request failed: %v", err)
	}
}

// TestStalledExecutorDoesNotWedgeListener: one stalled executor (an
// injected mid-request stall, the fault plane's signature move) must not
// stop the listener plane — other connections' requests keep completing
// through the remaining executors, and brand-new connections are still
// accepted.
func TestStalledExecutorDoesNotWedgeListener(t *testing.T) {
	b, err := kv.OpenBackend("nzstm", 2)
	if err != nil {
		t.Fatal(err)
	}
	store := kv.New(b.Sys, 4, 16)
	srv := New(store, b.Reg, Config{Executors: 2, QueueDepth: 64})
	stall := make(chan struct{})
	var stalled atomic.Int32
	srv.preExec = func(ops []kv.Op) {
		if len(ops) == 1 && strings.HasPrefix(ops[0].Key, "stall:") {
			stalled.Add(1)
			<-stall
		}
	}
	_, addr, stop := serveOn(t, srv)
	defer stop()

	cA, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cA.Close()
	resA := make(chan error, 1)
	go func() {
		_, err := cA.Put("stall:hold", []byte("v"))
		resA <- err
	}()
	waitFor(t, 2*time.Second, func() bool { return stalled.Load() == 1 })

	// Other connections complete within deadline through executor #2.
	cB, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cB.Close()
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("live:%d", i)
		if _, err := doWithin(t, cB, []kv.Op{{Kind: kv.OpPut, Key: key, Value: []byte("v")}}, 2*time.Second); err != nil {
			t.Fatalf("request %d during stall: %v", i, err)
		}
	}
	// The listener still accepts fresh connections mid-stall.
	cC, err := Dial(addr)
	if err != nil {
		t.Fatalf("accept wedged by stalled executor: %v", err)
	}
	defer cC.Close()
	if _, err := doWithin(t, cC, []kv.Op{{Kind: kv.OpGet, Key: "live:0"}}, 2*time.Second); err != nil {
		t.Fatalf("new connection's request during stall: %v", err)
	}

	close(stall)
	if err := <-resA; err != nil {
		t.Fatalf("stalled request failed after release: %v", err)
	}
}

// TestAcceptNeverBlocksOnSlotExhaustion pins the latent pre-scheduler
// bug: a connection arriving while the registry is exhausted used to
// block inside Registry.Acquire before its first byte was read. With the
// scheduler, connections never touch the registry — even on a registry
// whose every slot is held by the executor pool, accept + serve works.
func TestAcceptNeverBlocksOnSlotExhaustion(t *testing.T) {
	const slots = 2
	world := tm.NewRealWorld()
	reg := tm.NewRegistryWorld(slots, world)
	ccfg := core.DefaultConfig(core.NZ, slots)
	ccfg.MaxThreads = reg.Max()
	sys := core.New(world, ccfg)
	reg.BindStats(sys.Stats())
	store := kv.New(sys, 2, 8)
	srv := New(store, reg, Config{Executors: slots})
	_, addr, stop := serveOn(t, srv)
	defer stop()

	// The pool owns the whole registry: nothing is left to acquire.
	waitFor(t, time.Second, func() bool { return reg.Active() == slots })

	// Connections still accept and serve — each one would have hung in
	// Acquire under the slot-per-connection model.
	for i := 0; i < 3; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatalf("conn %d on exhausted registry refused: %v", i, err)
		}
		key := fmt.Sprintf("exhausted:%d", i)
		if _, err := doWithin(t, c, []kv.Op{{Kind: kv.OpPut, Key: key, Value: []byte("v")}}, 3*time.Second); err != nil {
			t.Fatalf("conn %d request on exhausted registry: %v", i, err)
		}
		rs, err := doWithin(t, c, []kv.Op{{Kind: kv.OpGet, Key: key}}, 3*time.Second)
		if err != nil || !rs[0].Found {
			t.Fatalf("conn %d readback: %v %v", i, rs, err)
		}
		c.Close()
	}
	if reg.Active() != slots {
		t.Fatalf("registry active %d; want %d (connections should hold no slot)", reg.Active(), slots)
	}
}

// TestSchedStatsCoverage: a live server's /metricsz carries every
// SchedStats family metrics.WriteFields names, with the values stored in
// the block, beside the derived depth/busy gauges, the executor count,
// the queue-wait histogram and the scheduler configuration, and lints
// clean.
func TestSchedStatsCoverage(t *testing.T) {
	b, err := kv.OpenBackend("nzstm", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(kv.New(b.Sys, 2, 2), b.Reg, Config{Executors: 1, QueueDepth: 8})
	st := srv.SchedStats()
	st.Enqueued.Store(7)
	st.Dispatched.Store(5)
	st.Completed.Store(4)
	var mb, want strings.Builder
	srv.WriteMetricsz(&mb)
	out := mb.String()
	if problems := metrics.LintProm(strings.NewReader(out)); len(problems) != 0 {
		t.Fatalf("metricsz exposition violations: %v", problems)
	}
	metrics.WriteFields(&want, "nztm_sched", "counter", st)
	got := metrics.Families(strings.NewReader(out))
	fams := metrics.Families(strings.NewReader(want.String()))
	if len(fams) == 0 {
		t.Fatal("SchedStats has no counters")
	}
	fams["nztm_sched_executors"] = "gauge"
	fams["nztm_sched_queue_depth"] = "gauge"
	fams["nztm_sched_executors_busy"] = "gauge"
	fams["nztm_server_info"] = "gauge"
	for name, typ := range fams {
		if got[name] != typ {
			t.Errorf("family %s %s missing (have %q)", name, typ, got[name])
		}
	}
	for _, want := range []string{
		"nztm_sched_enqueued_total 7\n", "nztm_sched_queue_depth 2\n", "nztm_sched_executors_busy 1\n",
		`queue_capacity="8",admission="reject"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metricsz missing %q", want)
		}
	}
}

// slowSyncFS is wal.OSFS with a device whose fsync takes syncDelay: slow
// enough that requests arriving together visibly share an fsync, or fail to.
type slowSyncFS struct{ wal.FS }

const syncDelay = 5 * time.Millisecond

func (f slowSyncFS) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{file}, nil
}

type slowSyncFile struct{ wal.File }

func (f slowSyncFile) Sync() error {
	time.Sleep(syncDelay)
	return f.File.Sync()
}

// shardKeys returns n keys on n distinct shards of an n-shard store, by the
// store's placement rule: FNV-1a of the key modulo the shard count.
func shardKeys(n int) []string {
	keys := make([]string, n)
	for i, found := 0, 0; found < n; i++ {
		k := fmt.Sprintf("d:%d", i)
		h := fnv.New64a()
		h.Write([]byte(k))
		if s := h.Sum64() % uint64(n); keys[s] == "" {
			keys[s], found = k, found+1
		}
	}
	return keys
}

// TestPipelinedDurableWritesShareACohort pins why a durable store's requests
// never go as a burst: four PUTs on distinct shards, pipelined in one write,
// run on four executors at once and share at most two fsyncs. Run in series,
// as a burst's front runner would, each would wait out the fsync before it.
func TestPipelinedDurableWritesShareACohort(t *testing.T) {
	const n = 4
	b, err := kv.OpenBackend("nzstm", n)
	if err != nil {
		t.Fatal(err)
	}
	store, _, err := kv.NewDurable(b.Sys, n, 4, kv.Durability{Dir: t.TempDir(), FS: slowSyncFS{wal.OSFS()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	w := startCounted(t, New(store, b.Reg, Config{Executors: n}))
	conn, err := net.Dial("tcp", w.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var reqs [][]kv.Op
	for _, k := range shardKeys(n) {
		reqs = append(reqs, []kv.Op{{Kind: kv.OpPut, Key: k, Value: []byte("v")}})
	}
	before := store.WAL().Stats().Fsyncs.Load()
	rawPipeline(t, conn, 1, reqs)
	readResponses(t, conn, newBufReader(conn), n, 5*time.Second)
	if fsyncs := store.WAL().Stats().Fsyncs.Load() - before; fsyncs > 2 {
		t.Errorf("%d pipelined PUTs on distinct shards cost %d fsyncs; want ≤ 2", n, fsyncs)
	}
	if bursts := w.srv.SchedStats().Bursts.Load(); bursts != 0 {
		t.Errorf("a durable store admitted %d bursts; want 0", bursts)
	}
}

// TestBurstHelpersRunPastAStalledRequest: eight PUTs arrive in one write
// and go as one burst. Its front request stalls in its executor; idle
// executors take the rest from the burst's back, so the other seven answers
// arrive during the stall, and the stalled one after its release.
func TestBurstHelpersRunPastAStalledRequest(t *testing.T) {
	srv := newTestServer(t, 4, Config{Executors: 4})
	stall := make(chan struct{})
	var stalled atomic.Int32
	srv.preExec = func(ops []kv.Op) {
		if strings.HasPrefix(ops[0].Key, "stall:") {
			stalled.Add(1)
			<-stall
		}
	}
	w := startCounted(t, srv)
	conn, err := net.Dial("tcp", w.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := newBufReader(conn)

	const per = 8
	reqs := make([][]kv.Op, per)
	for i := range reqs {
		reqs[i] = []kv.Op{{Kind: kv.OpPut, Key: fmt.Sprintf("fast:%d", i), Value: []byte("v")}}
	}
	reqs[0][0].Key = "stall:front" // request id 1
	rawPipeline(t, conn, 1, reqs)
	ids := readResponses(t, conn, br, per-1, 5*time.Second)
	if ids[1] {
		t.Fatal("the stalled request was answered")
	}
	if stalled.Load() != 1 {
		t.Fatalf("%d requests stalled, want 1", stalled.Load())
	}
	close(stall)
	if ids := readResponses(t, conn, br, 1, 5*time.Second); !ids[1] {
		t.Fatalf("after the release: got %v, want the stalled request's response", ids)
	}
	if bursts := srv.SchedStats().Bursts.Load(); bursts != 1 {
		t.Errorf("eight requests in one write made %d bursts; want 1", bursts)
	}
}

// TestBurstsCounted: SchedStats.Bursts counts the tasks that carried more
// than one request. Four callers pipelining on one connection make bursts;
// a lone caller never does.
func TestBurstsCounted(t *testing.T) {
	for _, shape := range requestShapes {
		if shape.name != "single" && shape.name != "batch16x4" {
			continue
		}
		p := newRequestPath(t, shape)
		p.run(t, 2000)
		bursts := p.srv.SchedStats().Bursts.Load()
		t.Logf("%s: %d bursts", shape.name, bursts)
		if shape.callers == 1 && bursts != 0 {
			t.Errorf("%s: a lone caller made %d bursts; want 0", shape.name, bursts)
		}
		if shape.callers > 1 && bursts == 0 {
			t.Errorf("%s: %d callers made no burst", shape.name, shape.callers)
		}
	}
}
