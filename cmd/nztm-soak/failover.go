// Failover soak (-leg failover): the replication analogue of the crash
// soak. The parent runs a 3-node cluster of nztm-server processes
// (one primary, two bounded-staleness read replicas) booted with the
// same role-free arguments, so the first election picks the primary.
// It drives load through the replica-aware cluster client and
// repeatedly SIGKILLs the current primary mid-load. After every kill it
// requires
//
//   - automatic promotion: a follower takes over (fresh epoch) and
//     writes flow again without operator action;
//   - no acked write lost: every write acknowledged before the kill
//     reads back through the new primary (or is superseded by a later
//     admissible write), verified with the ledger's key model and,
//     at the end, full cross-failover linearizability via histcheck;
//   - bounded-staleness reads hold: replica reads carrying the
//     client's read-your-writes token never return state older than
//     the client's last acknowledged write;
//   - the deposed primary is provably fenced: after it restarts with its
//     original arguments (it boots as a follower, finds the new primary
//     by election poll, and subscribes with its (LSN, epoch) pairs: it
//     resumes the stream where its log is on the new primary's, and is
//     re-seeded from snapshots where it holds a tail the new primary
//     never saw), a write sent directly to it must be refused with
//     StatusNotPrimary, never acknowledged;
//   - at most one primary per epoch: every running node's
//     nztm_repl_epoch and nztm_repl_is_primary are sampled from its
//     /metricsz for the whole leg, and two nodes primary at one epoch
//     fail it, naming the epoch and both nodes.
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
	"context"
	"errors"
	"fmt"
	"net"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nztm/internal/kv"
	"nztm/internal/repl"
	"nztm/internal/server"
)

// failNode is one cluster member's identity (stable across restarts).
type failNode struct {
	id       int
	kvAddr   string
	replAddr string
	dir      string
	c        *child // c.statsz serves /metricsz and /partitionz
}

// failLeg is the parent-side state.
type failLeg struct {
	cfg   soakCfg
	l     *ledger
	nodes []*failNode
	cl    *repl.Cluster

	staleReads atomic.Uint64 // replica reads that violated the RYW bound
	fenced     int           // deposed primaries proven to refuse writes
	promotions int           // observed primary handovers

	mu      sync.Mutex     // guards every node's c against watchPrimaries, and led
	led     map[uint64]int // epoch → the node seen primary at it
	twoLead error          // the first epoch seen with two primaries
}

// pickFreeAddrs reserves n loopback ports for node identities, which
// -peers needs before any node starts; all n stay open until the last
// is picked, so they differ. They are released before the children
// bind, so another process can take a port in between; that child then
// exits before its ready line and the leg fails loudly (no retry).
func pickFreeAddrs(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// start boots one cluster member, with the same arguments every time.
func (fs *failLeg) start(n *failNode) error {
	var peers []string
	for _, p := range fs.nodes {
		if p.id != n.id {
			peers = append(peers, p.replAddr)
		}
	}
	c, err := launch(fs.cfg.bin, append(fs.cfg.childArgs(n.dir),
		"-addr", n.kvAddr,
		"-fsync", "interval", "-snapshot-every", "100ms",
		"-repl-addr", n.replAddr,
		"-node-id", fmt.Sprint(n.id),
		"-heartbeat-every", "20ms", "-lease-timeout", "120ms",
		"-max-read-wait", "2s",
		"-peers", strings.Join(peers, ","),
	)...)
	if err != nil {
		return fmt.Errorf("node %d: %w", n.id, err)
	}
	fs.mu.Lock()
	n.c = c
	fs.mu.Unlock()
	return nil
}

// watchPrimaries runs samplePrimaries every 10 ms until stop closes.
func (fs *failLeg) watchPrimaries(stop <-chan struct{}) {
	for {
		fs.samplePrimaries()
		select {
		case <-stop:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// samplePrimaries reads every running node's epoch and primary flag
// from its /metricsz and records which node led at which epoch. A node
// is demoted before it takes a later epoch, and the two gauges are
// written in that order, so a scrape never shows a deposed node as
// primary at its new epoch.
func (fs *failLeg) samplePrimaries() {
	fs.mu.Lock()
	var nodes []*failNode
	var addrs []string
	for _, n := range fs.nodes {
		if n.c != nil {
			nodes, addrs = append(nodes, n), append(addrs, n.c.statsz)
		}
	}
	fs.mu.Unlock()
	for i, n := range nodes {
		vs, err := gauges(addrs[i], "nztm_repl_epoch", "nztm_repl_is_primary")
		if err != nil || vs[1] != 1 {
			continue // down, restarting, or a follower
		}
		e := uint64(vs[0])
		fs.mu.Lock()
		if id, ok := fs.led[e]; !ok {
			fs.led[e] = n.id
		} else if id != n.id && fs.twoLead == nil {
			fs.twoLead = fmt.Errorf("epoch %d has two primaries: nodes %d and %d", e, id, n.id)
		}
		fs.mu.Unlock()
	}
}

// onePrimary returns the first two-primary epoch sampled so far.
func (fs *failLeg) onePrimary() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.twoLead
}

// waitPrimary blocks until the cluster client can complete a write and
// returns the primary's node.
func (fs *failLeg) waitPrimary() (*failNode, error) {
	deadline := time.Now().Add(20 * time.Second)
	for {
		ops := []kv.Op{{Kind: kv.OpPut, Key: "probe-primary", Value: []byte("p")}}
		if fs.l.run(fs.cfg.workers+1, ops, fs.cl.WriteChecked) == nil {
			if addr := fs.cl.Primary(); addr != "" {
				for _, n := range fs.nodes {
					if n.kvAddr == addr {
						return n, nil
					}
				}
				return nil, fmt.Errorf("unknown primary address %s", addr)
			}
		}
		if time.Now().After(deadline) {
			return nil, errors.New("no primary emerged within 20s")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// load starts cluster-client load: writes to the primary (a write acked
// after a severed attempt is durable but its results untrusted) and
// read-your-writes token reads on replicas, checked against the ledger
// — a violation is counted, not just logged. halt stops it and waits.
func (fs *failLeg) load(iter int) (halt func()) {
	spec := loadSpec{
		iter: iter, reads: 30, pace: time.Millisecond,
		open: func(int) session { return session{do: fs.cl.WriteChecked} },
		read: func(key string) {
			res, err := fs.cl.Read([]kv.Op{{Kind: kv.OpGet, Key: key}})
			if err != nil {
				return // reads carry no durability obligation
			}
			if err := fs.l.settle(key, res[0].Found, res[0].Value, false); err != nil {
				fs.staleReads.Add(1)
				fmt.Fprintf(os.Stderr, "nztm-soak: STALE replica read: %v\n", err)
			}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { fs.l.load(ctx, fs.cfg, spec); close(done) }()
	return func() { cancel(); <-done }
}

// verify settles every outstanding obligation through the current
// primary.
func (fs *failLeg) verify() error {
	n, err := fs.waitPrimary()
	if err != nil {
		return err
	}
	cl, err := dial(n.kvAddr, time.Now().Add(time.Second))
	if err != nil {
		return err
	}
	defer cl.Close()
	if err := fs.l.verify(cl, fs.cfg.workers); err != nil {
		return fmt.Errorf("through node %d: %w", n.id, err)
	}
	return nil
}

// writeDirect sends ops straight to addr, bypassing the cluster client.
func writeDirect(addr string, ops []kv.Op) (status uint8, msg string, err error) {
	cl, err := server.Dial(addr)
	if err != nil {
		return 0, "", err
	}
	defer cl.Close()
	_, _, status, msg, err = cl.DoVec(ops, &server.Staleness{MaxLagMs: server.NoLagBudget})
	return status, msg, err
}

// proveFenced sends writes directly to the deposed old primary until it
// refuses with StatusNotPrimary — the deposed node must never
// acknowledge a write again. An OKVec ack fails immediately; any other
// status is transient (a lease-lapsed zombie answers StatusLagging
// until its stepdown probe discovers the higher epoch) and retries.
func (fs *failLeg) proveFenced(n *failNode) error {
	var last string
	for i := 0; i < 200; i++ {
		status, msg, err := writeDirect(n.kvAddr, []kv.Op{{Kind: kv.OpPut, Key: "fence-probe", Value: []byte("must-not-land")}})
		switch {
		case err != nil:
			last = err.Error()
		case status == server.StatusOKVec:
			return fmt.Errorf("deposed node %d ACCEPTED a direct write — fencing failed", n.id)
		case status == server.StatusNotPrimary:
			fs.fenced++
			return nil
		default:
			last = fmt.Sprintf("status %d (%s)", status, msg)
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("deposed node %d never refused with StatusNotPrimary: last %s", n.id, last)
}

// partitionCtl drives one node's /partitionz control endpoint.
func (fs *failLeg) partitionCtl(n *failNode, query string) error {
	if _, err := httpText("http://" + n.c.statsz + "/partitionz?" + query); err != nil {
		return fmt.Errorf("partitionz %q on node %d: %w", query, n.id, err)
	}
	return nil
}

// epochOf reads a node's current fencing epoch from its /metricsz.
func (fs *failLeg) epochOf(n *failNode) (uint64, error) {
	vs, err := gauges(n.c.statsz, "nztm_repl_epoch")
	if err != nil {
		return 0, fmt.Errorf("node %d: %w", n.id, err)
	}
	return uint64(vs[0]), nil
}

// assertNoZombieAck writes directly to the partitioned old primary and
// fails the soak if any write is ACKED — during a partition at most the
// majority-side epoch may acknowledge. Refusals (lease fence) and
// commit-gate errors are the expected outcomes; each probe is recorded
// as outcome-unknown because a gate-timeout write executed locally on
// the zombie before failing (a re-seed discards that tail).
func (fs *failLeg) assertNoZombieAck(victim *failNode) error {
	for i := 0; i < 3; i++ {
		ops := []kv.Op{{Kind: kv.OpPut, Key: "zombie-probe", Value: []byte(fmt.Sprintf("z%d", i))}}
		p := fs.l.rec.Begin(fs.cfg.workers+2, ops)
		status, _, err := writeDirect(victim.kvAddr, ops)
		p.Lost()
		fs.l.markLost(ops)
		if err != nil {
			return nil // unreachable, or died mid-probe: not acking
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
func (fs *failLeg) partitionEpisode(ep int) error {
	victim, err := fs.waitPrimary()
	if err != nil {
		return err
	}
	oldEpoch, err := fs.epochOf(victim)
	if err != nil {
		return err
	}

	defer fs.load(1000 + ep)()
	time.Sleep(time.Duration(100+int(fs.cfg.seed+uint64(ep)*53)%150) * time.Millisecond)

	// Split-brain: blackhole the primary's replication traffic in both
	// directions, on the followers' dialers AND the primary's own (its
	// probe polls must fail too, so it zombies until heal).
	for _, n := range fs.nodes {
		if n == victim {
			continue
		}
		if err := fs.partitionCtl(n, "op=block&dir=both&peer="+url.QueryEscape(victim.replAddr)); err != nil {
			return err
		}
		if err := fs.partitionCtl(victim, "op=block&dir=both&peer="+url.QueryEscape(n.replAddr)); err != nil {
			return err
		}
	}

	// The majority side must elect a new primary under a higher epoch.
	primary, err := fs.waitPrimary()
	if err != nil {
		return fmt.Errorf("no promotion while node %d is partitioned: %w", victim.id, err)
	}
	if primary == victim {
		return fmt.Errorf("partitioned primary node %d still acks cluster writes", victim.id)
	}
	fs.promotions++
	fs.samplePrimaries() // both sides are up: the isolated primary has not seen the new epoch
	if err := fs.onePrimary(); err != nil {
		return err
	}
	newEpoch, err := fs.epochOf(primary)
	if err != nil {
		return err
	}
	if newEpoch <= oldEpoch {
		return fmt.Errorf("promotion without epoch advance: %d -> %d", oldEpoch, newEpoch)
	}

	// At most one epoch acks during the partition: the isolated old
	// primary must refuse (or fail) every direct write.
	if err := fs.assertNoZombieAck(victim); err != nil {
		return err
	}

	// Heal. The deposed primary's stepdown probe must now reach a peer,
	// discover the higher epoch, and fence the node WITHOUT a restart.
	for _, n := range fs.nodes {
		if err := fs.partitionCtl(n, "op=healall"); err != nil {
			return err
		}
	}
	return fs.proveFenced(victim)
}

// kill SIGKILLs the primary mid-load, requires a follower to promote
// itself and take writes, restarts the victim with its original
// arguments (it rejoins where its log is on the new primary's, or is
// re-seeded if it holds a tail the new primary never saw) and proves it
// fenced.
func (fs *failLeg) kill(round int) error {
	victim, err := fs.waitPrimary()
	if err != nil {
		return err
	}

	defer fs.load(round)()
	time.Sleep(time.Duration(150+int(fs.cfg.seed+uint64(round)*37)%200) * time.Millisecond)

	victim.c.kill()
	victim.c.reap(2 * time.Second)
	fs.mu.Lock()
	victim.c = nil
	fs.mu.Unlock()

	primary, err := fs.waitPrimary()
	if err != nil {
		return fmt.Errorf("no promotion after killing node %d: %w", victim.id, err)
	}
	if primary == victim {
		return fmt.Errorf("writes still acked by the killed primary node %d", victim.id)
	}
	fs.promotions++
	if err := fs.start(victim); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	return fs.proveFenced(victim)
}

// runFailover is the failover leg's entry point.
func runFailover(cfg soakCfg) error {
	cleanup, err := prepare(&cfg)
	if err != nil {
		return err
	}
	addrs, err := pickFreeAddrs(6) // a KV and a replication address per node
	if err != nil {
		return err
	}
	fs := &failLeg{cfg: cfg, l: newLedger(), led: map[uint64]int{}}
	for i := 0; i < 3; i++ {
		fs.nodes = append(fs.nodes, &failNode{id: i, kvAddr: addrs[2*i], replAddr: addrs[2*i+1],
			dir: filepath.Join(cfg.dir, fmt.Sprintf("n%d", i))})
	}
	fmt.Printf("nztm-soak: failover mode: %d kills + %d partitions, seed=%d (%d shards, %d workers × %d keys)\n",
		cfg.kills, cfg.partitions, cfg.seed, cfg.shards, cfg.workers, cfg.keys)

	defer func() {
		for _, n := range fs.nodes {
			if n.c != nil {
				n.c.kill()
				n.c.reap(2 * time.Second)
			}
		}
	}()
	for _, n := range fs.nodes {
		if err := fs.start(n); err != nil {
			return err
		}
	}
	stopWatch, watched := make(chan struct{}), make(chan struct{})
	go func() { fs.watchPrimaries(stopWatch); close(watched) }()
	defer func() { close(stopWatch); <-watched }()

	cl, err := repl.DialCluster(repl.ClusterConfig{
		Addrs: []string{addrs[0], addrs[2], addrs[4]}, MaxLagMs: server.NoLagBudget, RetryFor: 10 * time.Second})
	if err != nil {
		return err
	}
	fs.cl = cl
	defer cl.Close()
	start := time.Now()
	for k := 0; k < cfg.kills; k++ {
		err := fs.kill(k)
		if err == nil {
			err = fs.onePrimary()
		}
		if err != nil {
			return fmt.Errorf("kill %d: %w", k, err)
		}
		if (k+1)%10 == 0 || k+1 == cfg.kills {
			if err := fs.verify(); err != nil {
				return fmt.Errorf("kill %d: %w", k, err)
			}
			fs.progress(fmt.Sprintf("kill %d/%d", k+1, cfg.kills), start)
		}
	}

	// Split-brain schedule: partition the primary away instead of
	// killing it. Both sides keep running the whole time. Afterwards every
	// write acked by either epoch must read back through the primary.
	for ep := 0; ep < cfg.partitions; ep++ {
		err := fs.partitionEpisode(ep)
		if err == nil {
			err = fs.onePrimary()
		}
		if err == nil {
			err = fs.verify()
		}
		if err != nil {
			return fmt.Errorf("partition %d: %w", ep, err)
		}
		fs.progress(fmt.Sprintf("partition %d/%d healed", ep+1, cfg.partitions), start)
	}

	if err := fs.verify(); err != nil {
		return err
	}
	if fs.staleReads.Load() != 0 {
		return fmt.Errorf("%d replica reads violated the read-your-writes bound", fs.staleReads.Load())
	}
	if want := cfg.kills + cfg.partitions; fs.fenced != want {
		return fmt.Errorf("only %d/%d deposed primaries proven fenced", fs.fenced, want)
	}

	fmt.Printf("nztm-soak: failover summary: %d kills, %d partitions, %d promotions, %d fence proofs, %d acked, %d lost, %v elapsed\n",
		cfg.kills, cfg.partitions, fs.promotions, fs.fenced, fs.l.acked.Load(), fs.l.lost.Load(),
		time.Since(start).Round(time.Millisecond))
	if err := checkHistory(fs.l.rec, cfg.limit, "cross-failover history"); err != nil {
		return err
	}
	cleanup()
	return nil
}

func (fs *failLeg) progress(what string, start time.Time) {
	fmt.Printf("nztm-soak: %s: %d acked, %d lost, %d fenced, %d stale reads, %v elapsed\n",
		what, fs.l.acked.Load(), fs.l.lost.Load(), fs.fenced, fs.staleReads.Load(),
		time.Since(start).Round(time.Millisecond))
}
