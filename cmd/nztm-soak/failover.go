// Failover soak (-failover): the replication analogue of the crash
// soak. The parent runs a 3-node cluster of nztm-server processes
// (one primary, two bounded-staleness read replicas), drives load
// through the replica-aware cluster client, and repeatedly SIGKILLs
// the current primary mid-load. After every kill it requires
//
//   - automatic promotion: a follower takes over (fresh epoch) and
//     writes flow again without operator action;
//   - no acked write lost: every write acknowledged before the kill
//     reads back through the new primary (or is superseded by a later
//     admissible write), verified with the crash soak's key model and,
//     at the end, full cross-failover linearizability via histcheck;
//   - bounded-staleness reads hold: replica reads carrying the
//     client's read-your-writes token never return state older than
//     the client's last acknowledged write;
//   - the deposed primary is provably fenced: after it restarts (as a
//     follower of the new primary, resyncing its possibly-diverged
//     tail), a write sent directly to it must be refused with
//     StatusNotPrimary, never acknowledged.
//
// The killed node rejoins each round via snapshot resync, so the
// bootstrap/catch-up path is exercised ≥ -kills times per run.
//
// After the kill schedule, -partitions split-brain episodes run: the
// current primary is blackholed from both followers (dialer-side, in
// both directions, via each node's /partitionz control endpoint) while
// load continues. The majority side must elect a new primary under a
// strictly higher epoch; the isolated old primary must stop acking
// once its lease lapses (at most one epoch acks during the partition);
// on heal the deposed primary must discover the higher epoch through
// its stepdown probe and fence itself WITHOUT a restart; and the
// cross-partition history must still linearize.
package main

import (
	"fmt"
	"net"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"nztm/internal/histcheck"
	"nztm/internal/kv"
	"nztm/internal/repl"
	"nztm/internal/server"
)

// failCfg bundles the -failover mode's knobs.
type failCfg struct {
	bin        string // nztm-server binary ("" = go build it)
	seed       uint64
	kills      int // primary SIGKILLs to survive
	partitions int // split-brain partition episodes after the kills
	shards     int
	buckets    int
	keys       int // keys per worker
	workers    int
	limit      int // linearizability search budget
}

// failNode is one cluster member's identity (stable across restarts).
type failNode struct {
	id       int
	kvAddr   string
	replAddr string
	httpAddr string // observability and control plane (/metricsz, /partitionz)
	dir      string
	c        *child
}

// failSoak is the parent-side state. It borrows the crash soak's key
// model (crashSoak) for durability obligations: acked writes must
// survive, severed writes are admissible-but-optional.
type failSoak struct {
	cfg   failCfg
	cs    *crashSoak // model + history recorder, reused verbatim
	nodes []*failNode
	cl    *repl.Cluster

	staleReads atomic.Uint64 // replica reads that violated the RYW bound
	fenced     int           // deposed primaries proven to refuse writes
	promotions int           // observed primary handovers
}

// pickFreeAddr reserves a loopback port (tiny reuse race; the soak
// retries startup once if a bind collides).
func pickFreeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// startFailNode boots one cluster member. replicateFrom is the
// replication address to follow ("" = start as primary).
func (fs *failSoak) startFailNode(n *failNode, replicateFrom string) error {
	args := []string{
		"-addr", n.kvAddr, "-statsz", n.httpAddr, "-system", "nzstm",
		"-shards", fmt.Sprint(fs.cfg.shards), "-buckets", fmt.Sprint(fs.cfg.buckets),
		"-threads", "4", "-drain", "5s",
		"-data-dir", n.dir,
		"-fsync", "interval", "-fsync-interval", "10ms", "-snapshot-every", "100ms",
		"-repl-addr", n.replAddr,
		"-node-id", fmt.Sprint(n.id),
		"-repl-ack", "one",
		"-heartbeat-every", "20ms", "-lease-timeout", "120ms",
		"-max-read-wait", "2s",
		"-replicate-from", replicateFrom,
	}
	var peers []string
	for _, p := range fs.nodes {
		if p.id != n.id {
			peers = append(peers, p.replAddr)
		}
	}
	args = append(args, "-peers", joinComma(peers))
	c := &child{
		cmd:     exec.Command(fs.cfg.bin, args...),
		exitCh:  make(chan error, 1),
		readyCh: make(chan struct{}),
	}
	c.cmd.Stdout = &lineWriter{c: c}
	c.cmd.Stderr = &lineWriter{c: c}
	if err := c.cmd.Start(); err != nil {
		return fmt.Errorf("start node %d: %w", n.id, err)
	}
	go func() { c.exitCh <- c.cmd.Wait() }()
	select {
	case <-c.readyCh:
		n.c = c
		return nil
	case err := <-c.exitCh:
		return fmt.Errorf("node %d exited before ready (%v):\n%s", n.id, err, c.dumpTail())
	case <-time.After(20 * time.Second):
		c.kill()
		<-c.exitCh
		return fmt.Errorf("node %d not ready after 20s:\n%s", n.id, c.dumpTail())
	}
}

func joinComma(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}

// nodeByKVAddr maps a client address back to its node.
func (fs *failSoak) nodeByKVAddr(addr string) *failNode {
	for _, n := range fs.nodes {
		if n.kvAddr == addr {
			return n
		}
	}
	return nil
}

// waitPrimary blocks until the cluster client can complete a write,
// returning the primary's client address.
func (fs *failSoak) waitPrimary(timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		ops := []kv.Op{{Kind: kv.OpPut, Key: "probe-primary", Value: []byte("p")}}
		p := fs.cs.rec.Begin(fs.cfg.workers+1, ops)
		if res, clean, err := fs.cl.WriteChecked(ops); err == nil {
			if clean {
				p.Done(res)
			} else {
				p.Lost() // duplicate execution possible: results untrusted
			}
			fs.cs.ack(ops)
			if addr := fs.cl.Primary(); addr != "" {
				return addr, nil
			}
		} else {
			p.Lost()
			fs.cs.markLost(ops)
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("no primary emerged within %v", timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// loadRound drives cluster-client load (writes to the primary, RYW
// token reads on replicas) until stop closes. Severed writes are
// recorded as lost; replica reads are checked against the key model —
// a read-your-writes violation is counted, not just logged.
func (fs *failSoak) loadRound(iter int, stop <-chan struct{}) *sync.WaitGroup {
	var wg sync.WaitGroup
	for w := 0; w < fs.cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := newWorkloadRNG(fs.cfg.seed+uint64(iter)*131, w)
			key := func(i int) string { return fmt.Sprintf("w%d-k%02d", w, i) }
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				val := []byte(fmt.Sprintf("w%d.%d.%d", w, iter, seq))
				k := rng.intn(fs.cfg.keys)
				r := rng.intn(100)
				if r < 30 {
					// Replica read of an owned key under the client's token:
					// must never be older than the last acked write.
					ops := []kv.Op{{Kind: kv.OpGet, Key: key(k)}}
					res, err := fs.cl.Read(ops)
					if err != nil {
						continue // reads carry no durability obligation
					}
					fs.cs.mu.Lock()
					m := fs.cs.modelFor(key(k))
					if !m.admissible(res[0].Found, res[0].Value) {
						fs.staleReads.Add(1)
						fmt.Fprintf(os.Stderr, "nztm-soak: STALE replica read: key %s got %v; lastAcked=%v base=%v lost=%v\n",
							key(k), effect{del: !res[0].Found, val: string(res[0].Value)},
							m.lastAcked, m.base, m.lost)
					}
					fs.cs.mu.Unlock()
					continue
				}
				var ops []kv.Op
				switch {
				case r < 40:
					ops = []kv.Op{
						{Kind: kv.OpPut, Key: key(k &^ 1), Value: val},
						{Kind: kv.OpPut, Key: key(k | 1), Value: val},
					}
				case r < 55:
					ops = []kv.Op{{Kind: kv.OpDelete, Key: key(k)}}
				default:
					ops = []kv.Op{{Kind: kv.OpPut, Key: key(k), Value: val}}
				}
				p := fs.cs.rec.Begin(w, ops)
				res, clean, err := fs.cl.WriteChecked(ops)
				switch {
				case err == nil && clean:
					p.Done(res)
					fs.cs.ack(ops)
				case err == nil:
					// Acked, but an earlier attempt died mid-flight and may
					// have executed too: the effect is durable (the model
					// holds it as acked) but the results may observe the
					// duplicate, so the history records outcome-unknown.
					p.Lost()
					fs.cs.ack(ops)
				default:
					// Retries exhausted mid-failover: outcome unknown.
					p.Lost()
					fs.cs.markLost(ops)
				}
				time.Sleep(time.Millisecond)
			}
		}(w)
	}
	return &wg
}

// verifyThroughPrimary reads every key with outstanding obligations
// through the current primary and checks admissibility (then rebases),
// exactly like the crash soak's post-recovery verify.
func (fs *failSoak) verifyThroughPrimary() error {
	addr, err := fs.waitPrimary(15 * time.Second)
	if err != nil {
		return err
	}
	cl, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	verifier := fs.cfg.workers // history client id for verify reads
	for _, k := range fs.cs.touchedKeys() {
		ops := []kv.Op{{Kind: kv.OpGet, Key: k}}
		p := fs.cs.rec.Begin(verifier, ops)
		res, err := cl.Do(ops)
		if err != nil {
			p.Lost()
			return fmt.Errorf("verify read %s through %s: %w", k, addr, err)
		}
		p.Done(res)
		fs.cs.mu.Lock()
		m := fs.cs.modelFor(k)
		if !m.admissible(res[0].Found, res[0].Value) {
			got := effect{del: !res[0].Found, val: string(res[0].Value)}
			detail := fmt.Sprintf("key %s reads as %v after failover; admissible: lastAcked=%v base=%v lost=%v",
				k, got, m.lastAcked, m.base, m.lost)
			fs.cs.mu.Unlock()
			return fmt.Errorf("acknowledged write lost across failover: %s", detail)
		}
		m.rebase(res[0].Found, res[0].Value)
		fs.cs.mu.Unlock()
	}
	return nil
}

// proveFenced sends writes directly to the deposed old primary until it
// refuses with StatusNotPrimary — the deposed node must never
// acknowledge a write again. An OKVec ack fails immediately; any other
// status is transient (a lease-lapsed zombie answers StatusLagging
// until its stepdown probe discovers the higher epoch) and retries.
func (fs *failSoak) proveFenced(n *failNode) error {
	var last string
	for i := 0; i < 200; i++ {
		cl, err := server.Dial(n.kvAddr)
		if err != nil {
			last = err.Error()
			time.Sleep(25 * time.Millisecond)
			continue
		}
		_, _, status, msg, err := cl.DoVec(
			[]kv.Op{{Kind: kv.OpPut, Key: "fence-probe", Value: []byte("must-not-land")}},
			&server.Staleness{MaxLagMs: server.NoLagBudget})
		cl.Close()
		if err != nil {
			last = err.Error()
			time.Sleep(25 * time.Millisecond)
			continue
		}
		if status == server.StatusOKVec {
			return fmt.Errorf("deposed node %d ACCEPTED a direct write — fencing failed", n.id)
		}
		if status != server.StatusNotPrimary {
			last = fmt.Sprintf("status %d (%s)", status, msg)
			time.Sleep(25 * time.Millisecond)
			continue
		}
		fs.fenced++
		return nil
	}
	return fmt.Errorf("deposed node %d never refused with StatusNotPrimary: last %s", n.id, last)
}

// partitionCtl drives one node's /partitionz control endpoint.
func (fs *failSoak) partitionCtl(n *failNode, query string) error {
	if _, err := httpText("http://" + n.httpAddr + "/partitionz?" + query); err != nil {
		return fmt.Errorf("partitionz %q on node %d: %w", query, n.id, err)
	}
	return nil
}

// epochOf reads a node's current fencing epoch from its /metricsz
// nztm_repl_epoch gauge.
func (fs *failSoak) epochOf(n *failNode) (uint64, error) {
	ss, err := scrapeMetrics(n.httpAddr)
	if err != nil {
		return 0, fmt.Errorf("metricsz on node %d: %w", n.id, err)
	}
	v, ok := sampleValue(ss, "nztm_repl_epoch")
	if !ok {
		return 0, fmt.Errorf("node %d metricsz has no nztm_repl_epoch", n.id)
	}
	return uint64(v), nil
}

// assertNoZombieAck writes directly to the partitioned old primary and
// fails the soak if any write is ACKED — during a partition at most the
// majority-side epoch may acknowledge. Refusals (lease fence) and
// commit-gate errors are the expected outcomes; each probe is recorded
// as outcome-unknown because a gate-timeout write executed locally on
// the zombie before failing (that tail is discarded on resync).
func (fs *failSoak) assertNoZombieAck(victim *failNode) error {
	cl, err := server.Dial(victim.kvAddr)
	if err != nil {
		return nil // not reachable at all: certainly not acking
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		ops := []kv.Op{{Kind: kv.OpPut, Key: "zombie-probe", Value: []byte(fmt.Sprintf("z%d", i))}}
		p := fs.cs.rec.Begin(fs.cfg.workers+2, ops)
		_, _, status, _, err := cl.DoVec(ops, &server.Staleness{MaxLagMs: server.NoLagBudget})
		p.Lost()
		fs.cs.markLost(ops)
		if err != nil {
			return nil // connection died mid-probe: not acking
		}
		if status == server.StatusOKVec {
			return fmt.Errorf("partitioned primary node %d ACKED a direct write — split-brain", victim.id)
		}
	}
	return nil
}

// partitionEpisode blackholes the current primary from both followers,
// requires a majority-side promotion under a higher epoch, proves the
// isolated primary never acks, then heals and requires the deposed
// primary to fence itself via its stepdown probe (no restart).
func (fs *failSoak) partitionEpisode(ep int) error {
	primaryAddr, err := fs.waitPrimary(20 * time.Second)
	if err != nil {
		return err
	}
	victim := fs.nodeByKVAddr(primaryAddr)
	if victim == nil {
		return fmt.Errorf("unknown primary address %s", primaryAddr)
	}
	oldEpoch, err := fs.epochOf(victim)
	if err != nil {
		return err
	}

	stop := make(chan struct{})
	wg := fs.loadRound(1000+ep, stop)
	fail := func(err error) error {
		close(stop)
		wg.Wait()
		return err
	}
	time.Sleep(time.Duration(100+int(fs.cfg.seed+uint64(ep)*53)%150) * time.Millisecond)

	// Split-brain: blackhole the primary's replication traffic in both
	// directions, on the followers' dialers AND the primary's own (its
	// probe polls must fail too, so it zombies until heal).
	for _, n := range fs.nodes {
		if n == victim {
			continue
		}
		if err := fs.partitionCtl(n, "op=block&dir=both&peer="+url.QueryEscape(victim.replAddr)); err != nil {
			return fail(err)
		}
		if err := fs.partitionCtl(victim, "op=block&dir=both&peer="+url.QueryEscape(n.replAddr)); err != nil {
			return fail(err)
		}
	}

	// The majority side must elect a new primary under a higher epoch.
	newAddr, err := fs.waitPrimary(20 * time.Second)
	if err != nil {
		return fail(fmt.Errorf("no promotion while node %d is partitioned: %w", victim.id, err))
	}
	if newAddr == primaryAddr {
		return fail(fmt.Errorf("partitioned primary %s still acks cluster writes", primaryAddr))
	}
	fs.promotions++
	newPrimary := fs.nodeByKVAddr(newAddr)
	newEpoch, err := fs.epochOf(newPrimary)
	if err != nil {
		return fail(err)
	}
	if newEpoch <= oldEpoch {
		return fail(fmt.Errorf("promotion without epoch advance: %d -> %d", oldEpoch, newEpoch))
	}

	// At most one epoch acks during the partition: the isolated old
	// primary must refuse (or fail) every direct write.
	if err := fs.assertNoZombieAck(victim); err != nil {
		return fail(err)
	}

	// Heal. The deposed primary's stepdown probe must now reach a peer,
	// discover the higher epoch, and fence the node WITHOUT a restart.
	for _, n := range fs.nodes {
		if err := fs.partitionCtl(n, "op=healall"); err != nil {
			return fail(err)
		}
	}
	if err := fs.proveFenced(victim); err != nil {
		return fail(err)
	}

	close(stop)
	wg.Wait()
	// Cross-partition obligations: every write acked by either epoch
	// must read back through the current primary.
	return fs.verifyThroughPrimary()
}

// runFailover is the -failover entry point.
func runFailover(cfg failCfg) error {
	cleanups := []string{}
	if cfg.bin == "" {
		tmp, err := os.MkdirTemp("", "nztm-failover-bin-")
		if err != nil {
			return err
		}
		cleanups = append(cleanups, tmp)
		cfg.bin = filepath.Join(tmp, "nztm-server")
		out, err := exec.Command("go", "build", "-o", cfg.bin, "nztm/cmd/nztm-server").CombinedOutput()
		if err != nil {
			return fmt.Errorf("building nztm-server (pass -server-bin to skip): %v\n%s", err, out)
		}
	}

	fs := &failSoak{
		cfg: cfg,
		cs:  &crashSoak{cfg: crashCfg{workers: cfg.workers, keys: cfg.keys}, rec: histcheck.NewRecorder(), model: make(map[string]*keyModel)},
	}
	for i := 0; i < 3; i++ {
		kvAddr, err := pickFreeAddr()
		if err != nil {
			return err
		}
		replAddr, err := pickFreeAddr()
		if err != nil {
			return err
		}
		httpAddr, err := pickFreeAddr()
		if err != nil {
			return err
		}
		dir, err := os.MkdirTemp("", fmt.Sprintf("nztm-failover-n%d-", i))
		if err != nil {
			return err
		}
		cleanups = append(cleanups, dir)
		fs.nodes = append(fs.nodes, &failNode{id: i, kvAddr: kvAddr, replAddr: replAddr, httpAddr: httpAddr, dir: dir})
	}
	fmt.Printf("nztm-soak: failover mode: %d kills + %d partitions, seed=%d (%d shards, %d workers × %d keys)\n",
		cfg.kills, cfg.partitions, cfg.seed, cfg.shards, cfg.workers, cfg.keys)

	// Node 0 seeds the cluster as primary; 1 and 2 follow it.
	if err := fs.startFailNode(fs.nodes[0], ""); err != nil {
		return err
	}
	for i := 1; i < 3; i++ {
		if err := fs.startFailNode(fs.nodes[i], fs.nodes[0].replAddr); err != nil {
			return err
		}
	}
	defer func() {
		for _, n := range fs.nodes {
			if n.c != nil {
				n.c.kill()
				n.c.reap(2 * time.Second)
			}
		}
	}()

	var addrs []string
	for _, n := range fs.nodes {
		addrs = append(addrs, n.kvAddr)
	}
	cl, err := repl.DialCluster(repl.ClusterConfig{Addrs: addrs, MaxLagMs: server.NoLagBudget, RetryFor: 10 * time.Second})
	if err != nil {
		return err
	}
	fs.cl = cl
	defer cl.Close()

	start := time.Now()
	for kill := 0; kill < cfg.kills; kill++ {
		primaryAddr, err := fs.waitPrimary(20 * time.Second)
		if err != nil {
			return fmt.Errorf("kill %d: %w", kill, err)
		}
		victim := fs.nodeByKVAddr(primaryAddr)
		if victim == nil {
			return fmt.Errorf("kill %d: unknown primary address %s", kill, primaryAddr)
		}

		stop := make(chan struct{})
		wg := fs.loadRound(kill, stop)
		time.Sleep(time.Duration(150+int(fs.cfg.seed+uint64(kill)*37)%200) * time.Millisecond)

		// SIGKILL the primary mid-load.
		victim.c.kill()
		victim.c.reap(2 * time.Second)
		victim.c = nil

		// A follower must promote itself and take writes.
		newAddr, err := fs.waitPrimary(20 * time.Second)
		if err != nil {
			close(stop)
			wg.Wait()
			return fmt.Errorf("kill %d: no promotion after killing node %d: %w", kill, victim.id, err)
		}
		if newAddr == primaryAddr {
			close(stop)
			wg.Wait()
			return fmt.Errorf("kill %d: writes still acked by the killed primary %s", kill, primaryAddr)
		}
		fs.promotions++
		newPrimary := fs.nodeByKVAddr(newAddr)

		// Restart the victim as a follower of the new primary; it rejoins
		// via snapshot resync (its tail may have diverged).
		if err := fs.startFailNode(victim, newPrimary.replAddr); err != nil {
			close(stop)
			wg.Wait()
			return fmt.Errorf("kill %d: restart node %d: %w", kill, victim.id, err)
		}
		// Fencing: the deposed primary must refuse direct writes.
		if err := fs.proveFenced(victim); err != nil {
			close(stop)
			wg.Wait()
			return fmt.Errorf("kill %d: %w", kill, err)
		}

		close(stop)
		wg.Wait()

		if (kill+1)%10 == 0 || kill+1 == cfg.kills {
			if err := fs.verifyThroughPrimary(); err != nil {
				return fmt.Errorf("kill %d: %w", kill, err)
			}
			fmt.Printf("nztm-soak: kill %d/%d: %d acked, %d lost, %d fenced, %d stale reads, %v elapsed\n",
				kill+1, cfg.kills, fs.cs.acked.Load(), fs.cs.lost.Load(),
				fs.fenced, fs.staleReads.Load(), time.Since(start).Round(time.Millisecond))
		}
	}

	// Split-brain schedule: partition the primary away instead of
	// killing it. Both sides keep running the whole time.
	for ep := 0; ep < cfg.partitions; ep++ {
		if err := fs.partitionEpisode(ep); err != nil {
			return fmt.Errorf("partition %d: %w", ep, err)
		}
		fmt.Printf("nztm-soak: partition %d/%d healed: %d acked, %d lost, %d fenced, %d stale reads, %v elapsed\n",
			ep+1, cfg.partitions, fs.cs.acked.Load(), fs.cs.lost.Load(),
			fs.fenced, fs.staleReads.Load(), time.Since(start).Round(time.Millisecond))
	}

	if err := fs.verifyThroughPrimary(); err != nil {
		return err
	}
	if fs.staleReads.Load() != 0 {
		return fmt.Errorf("%d replica reads violated the read-your-writes bound", fs.staleReads.Load())
	}
	if want := cfg.kills + cfg.partitions; fs.fenced != want {
		return fmt.Errorf("only %d/%d deposed primaries proven fenced", fs.fenced, want)
	}

	hist := fs.cs.rec.History()
	ckStart := time.Now()
	res := histcheck.CheckWithLimit(hist, cfg.limit)
	fmt.Printf("nztm-soak: failover summary: %d kills, %d partitions, %d promotions, %d fence proofs, %d acked, %d lost, %v elapsed\n",
		cfg.kills, cfg.partitions, fs.promotions, fs.fenced, fs.cs.acked.Load(), fs.cs.lost.Load(),
		time.Since(start).Round(time.Millisecond))
	fmt.Printf("nztm-soak: checked %d ops in %d partitions (%d states visited) in %v\n",
		res.Ops, res.Partitions, res.Visited, time.Since(ckStart).Round(time.Millisecond))
	if !res.Ok {
		if res.Capped {
			return fmt.Errorf("linearizability check exhausted its %d-state budget: %v", cfg.limit, res.Violation)
		}
		return fmt.Errorf("cross-failover history is NOT linearizable: %v", res.Violation)
	}
	for _, d := range cleanups {
		os.RemoveAll(d)
	}
	return nil
}
