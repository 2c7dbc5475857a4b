// nztm-soak is the serving stack's end-to-end torture test. -leg picks
// one of five legs; every leg records each request's invocation/response
// window and verifies the recorded history with internal/histcheck.
//
// The in-process legs, chaos (the default) and oversub, build a serving
// node (internal/node) in this process with the fault plane armed (injected
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
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"nztm/internal/histcheck"
	"nztm/internal/kv"
	"nztm/internal/node"
	"nztm/internal/server"
	"nztm/internal/wal"
)

func main() {
	var cfg soakCfg
	nc := &cfg.node
	flag.StringVar(&cfg.leg, "leg", "chaos", "soak leg: chaos (in-process server under the fault plane), oversub (chaos with connections ≫ executors, see DESIGN.md §14), crash (kill a child nztm-server at the disk-fault plane's kill sites, §12), diskfault (child servers on injected disk I/O errors, §17), failover (a 3-node cluster under primary SIGKILLs and partitions, §13)")
	flag.StringVar(&nc.System, "system", "nzstm", "backing TM system: "+strings.Join(kv.BackendNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "fault-plane and workload seed")
	flag.DurationVar(&cfg.duration, "duration", 5*time.Second, "soak duration")
	flag.IntVar(&cfg.clients, "clients", 4, "concurrent client connections")
	flag.IntVar(&cfg.keys, "keys", 16, "workload key-space size (grouped in cliques of 4)")
	flag.IntVar(&cfg.shards, "shards", 4, "store shard count")
	flag.IntVar(&cfg.buckets, "buckets", 16, "transactional buckets per shard")
	flag.IntVar(&nc.Threads, "threads", 4, "TM thread pool size")
	flag.IntVar(&cfg.rate, "rate", 200, "target ops/sec per client (0 = unthrottled; keep the history checkable)")
	flag.IntVar(&cfg.limit, "limit", 0, "linearizability search budget in states (0 = checker default)")
	flag.IntVar(&nc.TraceEvents, "trace", 0, "per-thread flight-recorder capacity in events; on failure the recorder of every registered thread is dumped to stderr (0 = off)")
	flag.StringVar(&nc.DataDir, "data-dir", "", "run the store crash-durable (WAL + snapshots) in this directory; the leak gate then also covers Store.Close")

	crashTarget := flag.Int("crash-target", 200, "crash leg: total kill-site injections to accumulate across all five sites")
	flag.StringVar(&cfg.dir, "crash-data-dir", "", "crash, diskfault and failover legs: persistent data directory (default: a temp dir, removed on success)")
	flag.StringVar(&cfg.bin, "server-bin", "", "crash, diskfault and failover legs: path to an nztm-server binary (default: go build it)")
	flag.IntVar(&cfg.kills, "kills", 50, "failover leg: primary SIGKILLs to survive")
	flag.IntVar(&cfg.partitions, "partitions", 4, "failover leg: split-brain episodes after the kills — isolate the primary at the replication layer, require a majority-side election, no zombie acks, self-deposition on heal")
	diskTarget := flag.Int("diskfault-target", 120, "diskfault leg: total injected I/O errors to accumulate across all sites")
	flag.Parse()
	// The child legs own their key space: keys per worker, fixed.
	child := func(workers, target int) soakCfg {
		c := cfg
		c.keys, c.workers, c.target = 12, workers, target
		return c
	}
	var err error
	switch cfg.leg {
	case "chaos", "oversub":
		cfg.oversub = cfg.leg == "oversub"
		err = runChaos(cfg)
	case "crash":
		err = runCrash(child(2, *crashTarget))
	case "diskfault":
		err = runDiskFault(child(2, *diskTarget))
	case "failover":
		err = runFailover(child(3, 0))
	default:
		fmt.Fprintf(os.Stderr, "nztm-soak: unknown -leg %q (have chaos, oversub, crash, diskfault, failover)\n", cfg.leg)
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
	if cfg.oversub && clients < 16*cfg.node.Threads {
		clients = 16 * cfg.node.Threads
	}
	// With -trace, every executor thread records into a per-slot flight
	// ring and the fault plane's connection layer into the plane ring; on
	// any gate failure the full event log is dumped. With -data-dir the
	// chaos plane injects aborts and stalls while every commit is
	// WAL-logged and snapshots truncate behind it; the shutdown leak gate
	// below then also proves Store.Close unwinds the snapshotter and WAL
	// goroutines.
	ncfg := cfg.node
	ncfg.Shards, ncfg.Buckets, ncfg.Addr = cfg.shards, cfg.buckets, "127.0.0.1:0"
	ncfg.FaultSeed, ncfg.RetryBackoff = cfg.seed, 100*time.Microsecond
	ncfg.Fsync, ncfg.FsyncInterval, ncfg.SnapshotEvery = wal.FsyncInterval, 10*time.Millisecond, 200*time.Millisecond
	if cfg.oversub {
		// Pin the pool to the thread count and shrink the queue so the
		// N:M ratio is real and queue-full sheds actually happen under
		// chaos — the soak then proves sheds are clean (retried or
		// discarded, never a hang, never a non-linearizable effect).
		ncfg.Executors = ncfg.Threads
		ncfg.QueueDepth = 2 * ncfg.Threads
	}

	// Goroutine baseline before the node exists; everything the soak and
	// the node spawn must be gone again after Close.
	g0 := runtime.NumGoroutine()
	n, err := node.New(ncfg)
	if err != nil {
		return err
	}
	srv, plane := n.Server(), n.Plane()
	// On failure, dump the flight rings and the slow-request ring — which
	// requests were slow and in which stage — beside the event log.
	dumpTrace := func() {
		if fr := n.Recorder(); fr != nil {
			fmt.Fprintf(os.Stderr, "--- flight recorder (%d events) ---\n", fr.Count())
			fr.Dump(os.Stderr)
		}
		srv.DumpSlow(os.Stderr)
	}
	if st := n.Store().RecoveryState(); st != nil {
		fmt.Printf("nztm-soak: durable in %s: recovered replayed=%d truncated=%d in %v\n",
			ncfg.DataDir, st.ReplayedFrames, st.TruncatedBytes, st.Duration.Round(time.Microsecond))
	}
	n.Start()
	addr := n.Addr()
	fmt.Printf("nztm-soak: %s on %s, seed=%d, %d clients for %v\n",
		n.Store().System().Name(), addr, cfg.seed, clients, cfg.duration)
	if cfg.oversub {
		fmt.Printf("nztm-soak: oversubscribed: %d connections over %d executors (queue %d, admission %s)\n",
			clients, srv.Executors(), srv.QueueCap(), server.AdmitReject)
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

	// Close drains the server and closes the store before the leak gate:
	// the snapshotter and WAL sync goroutines must unwind with everything
	// else (no-op for memory-only stores).
	if err := n.Close(10 * time.Second); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	// The final exposition is printed and must lint: a page a scraper
	// would reject fails the leg.
	var final strings.Builder
	srv.WriteMetricsz(&final)
	fmt.Print(final.String())
	if _, err := lintedSamples("the final exposition", final.String()); err != nil {
		return err
	}

	// Chaos liveness: a soak that injected nothing (or, with -seed 0,
	// armed no fault plane) proved nothing.
	if plane == nil || plane.Injected() == 0 {
		return errors.New("fault plane injected zero faults — soak configuration is inert")
	}

	// Slot hygiene: after shutdown released the executor pool and Close
	// released the WAL thread, every registry slot must be back. A nonzero
	// residue means a scheduler or durability path leaked its TM thread.
	if act := n.Registry().Active(); act != 0 {
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
		sz := runtime.Stack(buf, true)
		fmt.Fprintf(os.Stderr, "--- goroutine dump ---\n%s\n", buf[:sz])
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
