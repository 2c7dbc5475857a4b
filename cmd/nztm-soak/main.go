// nztm-soak is the serving stack's end-to-end torture test. -leg picks
// one of five legs; every leg records each request's invocation/response
// window and verifies the recorded history with internal/histcheck.
//
// The in-process legs, chaos (the default) and oversub, start an
// nztm-server in this process with the fault plane armed (injected
// transaction aborts, latency spikes, mid-transaction stalls, connection
// resets, torn writes, slow reads) and hammer it with concurrent clients
// that reconnect through the chaos. They exit nonzero if any of the
// following fail:
//
//   - linearizability: the recorded history admits no legal sequential
//     order under kv.Store semantics;
//   - progress hygiene: goroutines leak past server shutdown, or a
//     registry slot stays active;
//   - chaos liveness: the fault plane injected nothing (a misconfigured
//     soak proves nothing);
//   - oversub only: the scheduler completed nothing or never shed load.
//
// The child-process legs — crash (crash.go), diskfault (diskfault.go)
// and failover (failover.go) — run real nztm-server processes on the
// engine in engine.go.
//
// Usage:
//
//	nztm-soak -leg chaos -system nzstm -seed 1 -duration 30s -clients 4 -rate 200
//
// Determinism: the seed fixes every injection schedule and the client
// workload; goroutine interleaving still varies run to run, which is the
// point — each run explores a different schedule of the same fault load.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"nztm/internal/fault"
	"nztm/internal/histcheck"
	"nztm/internal/kv"
	"nztm/internal/server"
	"nztm/internal/trace"
	"nztm/internal/wal"
)

func main() {
	var (
		leg      = flag.String("leg", "chaos", "soak leg: chaos (in-process server under the fault plane), oversub (chaos with connections ≫ executors, see DESIGN.md §14), crash (kill a child nztm-server at WAL crash points, §12), diskfault (child servers on injected disk I/O errors, §17), failover (a 3-node cluster under primary SIGKILLs and partitions, §13)")
		system   = flag.String("system", "nzstm", "backing TM system: "+strings.Join(kv.BackendNames(), ", "))
		seed     = flag.Uint64("seed", 1, "fault-plane and workload seed")
		duration = flag.Duration("duration", 5*time.Second, "soak duration")
		clients  = flag.Int("clients", 4, "concurrent client connections")
		keys     = flag.Int("keys", 16, "workload key-space size (grouped in cliques of 4)")
		shards   = flag.Int("shards", 4, "store shard count")
		buckets  = flag.Int("buckets", 16, "transactional buckets per shard")
		threads  = flag.Int("threads", 4, "TM thread pool size")
		rate     = flag.Int("rate", 200, "target ops/sec per client (0 = unthrottled; keep the history checkable)")
		limit    = flag.Int("limit", 0, "linearizability search budget in states (0 = checker default)")
		traceN   = flag.Int("trace", 0, "per-thread flight-recorder capacity in events; on failure the recorder of every registered thread is dumped to stderr (0 = off)")
		dataDir  = flag.String("data-dir", "", "run the store crash-durable (WAL + snapshots) in this directory; the leak gate then also covers Store.Close")

		crashTarget = flag.Int("crash-target", 200, "crash leg: total crash-point injections to accumulate across all five sites")
		crashDir    = flag.String("crash-data-dir", "", "crash, diskfault and failover legs: persistent data directory (default: a temp dir, removed on success)")
		serverBin   = flag.String("server-bin", "", "crash, diskfault and failover legs: path to an nztm-server binary (default: go build it)")
		failKills   = flag.Int("kills", 50, "failover leg: primary SIGKILLs to survive")
		failParts   = flag.Int("partitions", 4, "failover leg: split-brain episodes after the kills — isolate the primary at the replication layer, require a majority-side election, no zombie acks, self-deposition on heal")
		diskTarget  = flag.Int("diskfault-target", 120, "diskfault leg: total injected I/O errors to accumulate across all sites")
	)
	flag.Parse()
	cfg := soakCfg{
		leg: *leg, seed: *seed, limit: *limit, shards: *shards, buckets: *buckets, keys: *keys,
		system: *system, duration: *duration, clients: *clients, threads: *threads,
		rate: *rate, traceN: *traceN, dataDir: *dataDir,
		bin: *serverBin, dir: *crashDir, kills: *failKills, partitions: *failParts,
	}
	// The child legs own their key space: keys per worker, fixed.
	child := func(workers, target int) soakCfg {
		c := cfg
		c.keys, c.workers, c.target = 12, workers, target
		return c
	}
	var err error
	switch *leg {
	case "chaos", "oversub":
		cfg.oversub = *leg == "oversub"
		err = runChaos(cfg)
	case "crash":
		err = runCrash(child(2, *crashTarget))
	case "diskfault":
		err = runDiskFault(child(2, *diskTarget))
	case "failover":
		err = runFailover(child(3, 0))
	default:
		fmt.Fprintf(os.Stderr, "nztm-soak: unknown -leg %q (have chaos, oversub, crash, diskfault, failover)\n", *leg)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nztm-soak: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("nztm-soak: PASS")
}

// runChaos is the in-process legs' entry point (chaos and oversub).
func runChaos(cfg soakCfg) error {
	clients := cfg.clients
	if cfg.oversub && clients < 16*cfg.threads {
		clients = 16 * cfg.threads
	}
	backend, err := kv.OpenBackend(cfg.system, cfg.threads)
	if err != nil {
		return err
	}
	fcfg := fault.DefaultConfig(cfg.seed)
	if strings.EqualFold(cfg.system, "glock") {
		// The global-lock baseline cannot retry (tm.Retry panics over it),
		// so injected aborts are off; every other fault class stays on.
		fcfg.AbortProb = 0
	}
	plane := fault.New(fcfg)
	// With -trace, every connection thread records into a per-slot flight
	// ring and the fault plane's connection layer into the plane ring; on
	// any gate failure the full event log is dumped for post-mortem.
	var fr *trace.FlightRecorder
	if cfg.traceN > 0 {
		fr = trace.New(cfg.traceN)
		backend.Reg.BindRecorder(fr)
		plane.BindRecorder(fr)
	}
	// srv is assigned below; dumpTrace is declared early so every later
	// failure path can use it. On failure it dumps both the flight rings
	// and the slow-request ring — which requests were slow and in which
	// stage — beside the event log.
	var srv *server.Server
	dumpTrace := func() {
		if fr != nil {
			fmt.Fprintf(os.Stderr, "--- flight recorder (%d events) ---\n", fr.Count())
			fr.Dump(os.Stderr)
		}
		if srv != nil {
			srv.DumpSlow(os.Stderr)
		}
	}
	var store *kv.Store
	if cfg.dataDir != "" {
		// Durable soak: the chaos plane injects aborts and stalls while
		// every commit is WAL-logged and snapshots truncate behind it; the
		// shutdown leak gate below then also proves Store.Close unwinds
		// the snapshotter and WAL goroutines.
		dur := kv.Durability{
			Dir:           cfg.dataDir,
			Fsync:         wal.FsyncInterval,
			FsyncInterval: 10 * time.Millisecond,
			SnapshotEvery: 200 * time.Millisecond,
			NewThread:     backend.NewThread,
		}
		if fr != nil {
			dur.Recorder = fr.ForSource(trace.WALSource)
		}
		var st *wal.State
		store, st, err = kv.NewDurable(plane.WrapSystem(backend.Sys), cfg.shards, cfg.buckets, dur)
		if err != nil {
			return err
		}
		fmt.Printf("nztm-soak: durable in %s: recovered replayed=%d truncated=%d in %v\n",
			cfg.dataDir, st.ReplayedFrames, st.TruncatedBytes, st.Duration.Round(time.Microsecond))
	} else {
		store = kv.New(plane.WrapSystem(backend.Sys), cfg.shards, cfg.buckets)
	}
	store.EnableMetrics()
	scfg := server.Config{
		MaxAttempts:    512,
		RequestTimeout: 2 * time.Second,
		RetryBackoff:   100 * time.Microsecond,
		ExtraMetricsz:  plane.WriteProm,
		WrapThread:     plane.WrapThread,
	}
	if cfg.oversub {
		// Pin the pool to the thread count and shrink the queue so the
		// N:M ratio is real and queue-full sheds actually happen under
		// chaos — the soak then proves sheds are clean (retried or
		// discarded, never a hang, never a non-linearizable effect).
		scfg.Executors = backend.Executors(cfg.threads)
		scfg.QueueDepth = 2 * scfg.Executors
	}
	srv = server.New(store, backend.Reg, scfg)

	// Goroutine baseline before anything soak-owned starts; everything the
	// soak spawns must be gone again after shutdown.
	g0 := runtime.NumGoroutine()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(plane.WrapListener(ln)) }()
	fmt.Printf("nztm-soak: %s on %s, seed=%d, %d clients for %v\n",
		store.System().Name(), addr, cfg.seed, clients, cfg.duration)
	if cfg.oversub {
		fmt.Printf("nztm-soak: oversubscribed: %d connections over %d executors (queue %d, admission %s)\n",
			clients, scfg.Executors, srv.QueueCap(), server.AdmitReject)
	}

	rec := histcheck.NewRecorder()
	deadline := time.Now().Add(cfg.duration)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			soakClient(id, addr, cfg.seed, cfg.keys, cfg.rate, deadline, rec)
		}(c)
	}
	wg.Wait()

	if err := srv.Shutdown(10 * time.Second); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveDone; err != nil && !errors.Is(err, server.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	// Close before the leak gate: the snapshotter and WAL sync goroutines
	// must unwind with everything else (no-op for memory-only stores).
	if err := store.Close(); err != nil {
		return fmt.Errorf("store close: %w", err)
	}
	// The final exposition is printed and must lint: a page a scraper
	// would reject fails the leg.
	var final strings.Builder
	srv.WriteMetricsz(&final)
	fmt.Print(final.String())
	if _, err := lintedSamples("the final exposition", final.String()); err != nil {
		return err
	}

	// Chaos liveness: a soak that injected nothing proved nothing.
	if plane.Injected() == 0 {
		return errors.New("fault plane injected zero faults — soak configuration is inert")
	}

	// Slot hygiene: after shutdown released the executor pool and Close
	// released the WAL thread, every registry slot must be back. A nonzero
	// residue means a scheduler or durability path leaked its TM thread.
	if act := backend.Reg.Active(); act != 0 {
		dumpTrace()
		return fmt.Errorf("registry slot leak: %d slots still active after shutdown", act)
	}
	if cfg.oversub {
		st := srv.SchedStats()
		fmt.Printf("nztm-soak: oversubscribed: enqueued=%d completed=%d rejected=%d slow_client_drops=%d\n",
			st.Enqueued.Load(), st.Completed.Load(), st.Rejected.Load(), st.SlowClientDrops.Load())
		// The ratio must have been real: work flowed through the shared
		// pool, and some of it actually hit the queue-full path.
		if st.Completed.Load() == 0 {
			return errors.New("oversubscribed soak completed zero scheduled requests")
		}
		if st.Rejected.Load() == 0 {
			return errors.New("oversubscribed soak never shed load — queue/clients too generous to prove backpressure")
		}
	}

	// Progress hygiene: all soak-owned goroutines (connection handlers,
	// client read loops, stalled sleepers) must unwind. Injected stalls
	// sleep tens of milliseconds, so poll with a settle window.
	leakDeadline := time.Now().Add(5 * time.Second)
	gN := runtime.NumGoroutine()
	for gN > g0 && time.Now().Before(leakDeadline) {
		time.Sleep(20 * time.Millisecond)
		gN = runtime.NumGoroutine()
	}
	if gN > g0 {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		fmt.Fprintf(os.Stderr, "--- goroutine dump ---\n%s\n", buf[:n])
		dumpTrace()
		return fmt.Errorf("goroutine leak: %d before soak, %d after shutdown", g0, gN)
	}

	if err := checkHistory(rec, cfg.limit, "history"); err != nil {
		dumpTrace()
		return err
	}
	return nil
}

// soakClient drives one connection until deadline: randomized GET/PUT/CAS/
// DELETE singles and occasional two-key batches over a clique-partitioned
// key space, retrying budget-exhausted responses and reconnecting (and
// recording the in-flight request as lost) when the connection dies.
func soakClient(id int, addr string, seed uint64, keys, rate int, deadline time.Time, rec *histcheck.Recorder) {
	rng := newWorkloadRNG(seed, id)
	policy := server.RetryPolicy{MaxAttempts: 8, Base: time.Millisecond, Max: 50 * time.Millisecond}
	lastSeen := make(map[string][]byte) // most recent value observed per key

	cl, err := dial(addr, deadline)
	if err != nil {
		return
	}
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()

	var interval time.Duration
	if rate > 0 {
		interval = time.Second / time.Duration(rate)
	}
	next := time.Now()
	for seq := 0; time.Now().Before(deadline); seq++ {
		if interval > 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			next = next.Add(interval)
		}
		ops := randomOps(rng, id, seq, keys, lastSeen)
		p := rec.Begin(id, ops)
		results, err := cl.DoRetry(ops, policy)
		switch {
		case err == nil:
			p.Done(results)
			observe(lastSeen, ops, results)
		case shed(err):
			// The server guarantees budget-exhausted and admission-shed
			// requests had no effect, so they constrain nothing.
			p.Discard()
		default:
			// Connection death (possibly an injected reset): the request's
			// outcome is unknown. Record it as lost and reconnect.
			p.Lost()
			cl.Close()
			if cl, err = dial(addr, deadline); err != nil {
				return
			}
		}
	}
}

// randomOps builds the next request. Keys live in cliques of 4 and batches
// only ever pair keys within one clique, so the recorded history partitions
// into per-clique groups the checker can search independently.
func randomOps(rng *workloadRNG, client, seq, keys int, lastSeen map[string][]byte) []kv.Op {
	key := func() string { return fmt.Sprintf("k%03d", rng.intn(keys)) }
	mkOp := func(k string) kv.Op {
		val := []byte(fmt.Sprintf("c%d-%d", client, seq))
		switch r := rng.intn(100); {
		case r < 40:
			return kv.Op{Kind: kv.OpGet, Key: k}
		case r < 65:
			return kv.Op{Kind: kv.OpPut, Key: k, Value: val}
		case r < 90:
			// CAS from the last value this client observed for k (nil
			// expect = create-if-absent): a realistic mix of hits and
			// misses that actually exercises the conditional path.
			return kv.Op{Kind: kv.OpCAS, Key: k, Expect: lastSeen[k], Value: val}
		default:
			return kv.Op{Kind: kv.OpDelete, Key: k}
		}
	}
	if rng.intn(100) < 15 && keys >= 2 {
		// Two-key atomic batch within one clique of 4.
		clique := rng.intn((keys + 3) / 4)
		lo := clique * 4
		hi := lo + 4
		if hi > keys {
			hi = keys
		}
		a := lo + rng.intn(hi-lo)
		b := lo + rng.intn(hi-lo)
		if a == b {
			b = lo + (b-lo+1)%(hi-lo)
		}
		if a == b {
			return []kv.Op{mkOp(fmt.Sprintf("k%03d", a))}
		}
		return []kv.Op{mkOp(fmt.Sprintf("k%03d", a)), mkOp(fmt.Sprintf("k%03d", b))}
	}
	return []kv.Op{mkOp(key())}
}

// observe updates the client's last-seen value map from a successful
// response, feeding future CAS expectations.
func observe(lastSeen map[string][]byte, ops []kv.Op, results []kv.Result) {
	for i := range ops {
		switch ops[i].Kind {
		case kv.OpGet:
			if results[i].Found {
				lastSeen[ops[i].Key] = results[i].Value
			} else {
				delete(lastSeen, ops[i].Key)
			}
		case kv.OpPut:
			lastSeen[ops[i].Key] = ops[i].Value
		case kv.OpCAS:
			if results[i].Found { // CAS hit: the new value is installed
				if ops[i].Value == nil {
					delete(lastSeen, ops[i].Key)
				} else {
					lastSeen[ops[i].Key] = ops[i].Value
				}
			}
		case kv.OpDelete:
			delete(lastSeen, ops[i].Key)
		}
	}
}

// workloadRNG is a splitmix64-seeded xorshift64* stream, one per client,
// so the workload is reproducible from the soak seed alone.
type workloadRNG struct{ x uint64 }

func newWorkloadRNG(seed uint64, client int) *workloadRNG {
	x := seed ^ 0x9e3779b97f4a7c15
	for i := 0; i <= client; i++ {
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	if x == 0 {
		x = 0x2545f4914f6cdd1d
	}
	return &workloadRNG{x: x}
}

func (r *workloadRNG) next() uint64 {
	x := r.x
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.x = x
	return x * 0x2545f4914f6cdd1d
}

func (r *workloadRNG) intn(n int) int {
	return int(r.next() % uint64(n))
}
