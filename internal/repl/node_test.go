package repl

// In-process cluster tests: real stores, real servers, real replication
// nodes over loopback TCP. These are the unit-level half of the
// replication acceptance story; cmd/nztm-soak -leg failover is the
// process-level half (SIGKILL, restart, linearizability check).

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nztm/internal/kv"
	"nztm/internal/metrics"
	"nztm/internal/server"
	"nztm/internal/wal"
)

// pickAddr reserves a loopback address (small reuse race, fine in tests).
func pickAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// testNode is one in-process cluster member.
type testNode struct {
	id    int
	b     *kv.Backend
	store *kv.Store
	node  *Node
	srv   *server.Server
	kvLn  net.Listener
}

type nodeOpts struct {
	shards      int
	primaryFrom string
	replAddr    string
	peers       []string
	ackPolicy   string
	maxReadWait time.Duration
}

func startNode(t *testing.T, id int, o nodeOpts) *testNode {
	t.Helper()
	if o.shards == 0 {
		o.shards = 4
	}
	b, err := kv.OpenBackend("nzstm", 8)
	if err != nil {
		t.Fatal(err)
	}
	store, _, err := kv.NewDurable(b.Sys, o.shards, 4, kv.Durability{
		Dir: t.TempDir(), Fsync: wal.FsyncNever, NewThread: b.NewThread,
	})
	if err != nil {
		t.Fatal(err)
	}
	kvLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node, err := Start(store, Config{
		NodeID:         id,
		KVAddr:         kvLn.Addr().String(),
		ReplAddr:       o.replAddr,
		Peers:          o.peers,
		PrimaryFrom:    o.primaryFrom,
		AckPolicy:      o.ackPolicy,
		HeartbeatEvery: 10 * time.Millisecond,
		LeaseTimeout:   120 * time.Millisecond,
		MaxReadWait:    o.maxReadWait,
		NewThread:      b.NewThread,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(store, b.Reg, server.Config{CheckRequest: node.CheckRequest})
	go srv.Serve(kvLn)
	tn := &testNode{id: id, b: b, store: store, node: node, srv: srv, kvLn: kvLn}
	t.Cleanup(func() { tn.kill(); store.Close() })
	return tn
}

// kill abruptly stops the node's serving surfaces (listener + repl),
// like a crash as far as the rest of the cluster can tell.
func (tn *testNode) kill() {
	tn.kvLn.Close()
	tn.node.Close()
}

func waitFor(t *testing.T, d time.Duration, what string, fn func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !fn() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterEndToEndFailover drives a 3-node cluster through its
// advertised life: replicate writes, serve read-your-writes reads from
// replicas, survive the primary's death with an automatic promotion
// that loses nothing, and keep serving.
func TestClusterEndToEndFailover(t *testing.T) {
	r0, r1, r2 := pickAddr(t), pickAddr(t), pickAddr(t)
	n0 := startNode(t, 0, nodeOpts{replAddr: r0, peers: []string{r1, r2}, ackPolicy: AckOne})
	n1 := startNode(t, 1, nodeOpts{replAddr: r1, peers: []string{r0, r2}, primaryFrom: r0, ackPolicy: AckOne})
	n2 := startNode(t, 2, nodeOpts{replAddr: r2, peers: []string{r0, r1}, primaryFrom: r0, ackPolicy: AckOne})

	cl, err := DialCluster(ClusterConfig{
		Addrs:    []string{n0.kvLn.Addr().String(), n1.kvLn.Addr().String(), n2.kvLn.Addr().String()},
		MaxLagMs: 0, // strictest bound: every replica read must prove freshness
		RetryFor: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 40; i++ {
		key, val := fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%d", i))
		if _, err := cl.Write([]kv.Op{{Kind: kv.OpPut, Key: key, Value: val}}); err != nil {
			t.Fatalf("write %s: %v", key, err)
		}
	}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("k%02d", i)
		rs, err := cl.Read([]kv.Op{{Kind: kv.OpGet, Key: key}})
		if err != nil {
			t.Fatalf("read %s: %v", key, err)
		}
		if !rs[0].Found || string(rs[0].Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("read %s: got %+v", key, rs[0])
		}
	}
	if n1.node.Stats().FramesApplied.Load() == 0 && n2.node.Stats().FramesApplied.Load() == 0 {
		t.Fatal("no follower applied any frames")
	}

	// Crash the primary. A follower must promote itself and the cluster
	// client must ride the failover without losing a single acked write.
	oldEpoch := n0.node.Epoch()
	n0.kill()
	waitFor(t, 5*time.Second, "promotion", func() bool {
		return n1.node.Role() == RolePrimary || n2.node.Role() == RolePrimary
	})
	newPrimary := n1
	if n2.node.Role() == RolePrimary {
		newPrimary = n2
	}
	if e := newPrimary.node.Epoch(); e <= oldEpoch {
		t.Fatalf("promotion did not advance the epoch: %d -> %d", oldEpoch, e)
	}
	if newPrimary.node.Stats().Promotions.Load() != 1 {
		t.Fatalf("promotions = %d", newPrimary.node.Stats().Promotions.Load())
	}

	for i := 40; i < 80; i++ {
		key, val := fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%d", i))
		if _, err := cl.Write([]kv.Op{{Kind: kv.OpPut, Key: key, Value: val}}); err != nil {
			t.Fatalf("post-failover write %s: %v", key, err)
		}
	}
	// Every write ever acknowledged — before and after the failover —
	// must still read back.
	for i := 0; i < 80; i++ {
		key := fmt.Sprintf("k%02d", i)
		rs, err := cl.Read([]kv.Op{{Kind: kv.OpGet, Key: key}})
		if err != nil {
			t.Fatalf("post-failover read %s: %v", key, err)
		}
		if !rs[0].Found || string(rs[0].Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("post-failover read %s: got %+v", key, rs[0])
		}
	}
}

// TestDeposedPrimaryIsFenced proves both fencing layers on the primary:
// a higher-epoch ack deposes it, after which the server layer redirects
// writes (StatusNotPrimary) and the commit gate fails any write still
// in flight.
func TestDeposedPrimaryIsFenced(t *testing.T) {
	r0 := pickAddr(t)
	n0 := startNode(t, 0, nodeOpts{replAddr: r0, peers: []string{pickAddr(t)}, ackPolicy: AckNone})

	c, err := server.Dial(n0.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st := &server.Staleness{MaxLagMs: server.NoLagBudget}
	_, _, status, _, err := c.DoVec([]kv.Op{{Kind: kv.OpPut, Key: "a", Value: []byte("1")}}, st)
	if err != nil || status != server.StatusOKVec {
		t.Fatalf("pre-deposition write: status=%d err=%v", status, err)
	}

	// Pose as a follower elected at a higher epoch: subscribe, then ack
	// with the higher epoch. The primary must step down.
	conn, err := net.Dial("tcp", r0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := server.NewBufWriter(conn)
	br := server.NewBufReader(conn)
	epoch := n0.node.Epoch()
	if err := writeMsg(bw, &Message{Type: MsgSubscribe, Epoch: epoch, NodeID: 9,
		Vector: make([]uint64, 4)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readMsg(br, nil); err != nil { // first heartbeat
		t.Fatal(err)
	}
	if err := writeMsg(bw, &Message{Type: MsgAck, Epoch: epoch + 5,
		Vector: make([]uint64, 4)}); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 3*time.Second, "deposition", func() bool { return n0.node.Role() == RoleFollower })
	if n0.node.Stats().Depositions.Load() != 1 {
		t.Fatalf("depositions = %d", n0.node.Stats().Depositions.Load())
	}
	if e := n0.node.Epoch(); e != epoch+5 {
		t.Fatalf("epoch after deposition = %d, want %d", e, epoch+5)
	}

	// Server layer: writes now redirect.
	_, _, status, msg, err := c.DoVec([]kv.Op{{Kind: kv.OpPut, Key: "b", Value: []byte("2")}}, st)
	if err != nil {
		t.Fatal(err)
	}
	if status != server.StatusNotPrimary {
		t.Fatalf("write on deposed primary: status=%d msg=%q", status, msg)
	}

	// Gate layer: a write that had already executed locally must fail its
	// acknowledgement outright.
	if err := n0.node.commitGate([]wal.ShardLSN{{Shard: 0, LSN: 1}}, true); err == nil {
		t.Fatal("commit gate passed a deposed primary's write")
	}
	// ... while a replica-local read passes the gate (its staleness
	// contract is CheckRequest's, not the gate's).
	if err := n0.node.commitGate(nil, false); err != nil {
		t.Fatalf("commit gate failed a read on a deposed node: %v", err)
	}
}

// TestFollowerFencesStaleEpochSender proves the follower-side fencing:
// once a follower has seen epoch E, a sender at epoch < E gets a
// RejectStaleEpoch and nothing it ships is applied.
func TestFollowerFencesStaleEpochSender(t *testing.T) {
	fakeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fakeLn.Close()
	fakeAddr := fakeLn.Addr().String()

	r1 := pickAddr(t)
	n1 := startNode(t, 1, nodeOpts{replAddr: r1, peers: []string{fakeAddr},
		primaryFrom: fakeAddr, ackPolicy: AckNone})

	var rejected atomic.Bool
	go func() {
		for {
			conn, err := fakeLn.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := server.NewBufReader(conn)
				bw := server.NewBufWriter(conn)
				m, _, err := readMsg(br, nil)
				if err != nil || m.Type != MsgSubscribe {
					return
				}
				// Establish epoch 7, then ship frames stamped epoch 3.
				hb := &Message{Type: MsgHeartbeat, Epoch: 7, Total: 0,
					KVAddr: "127.0.0.1:1", Vector: make([]uint64, 4)}
				if err := writeMsg(bw, hb); err != nil {
					return
				}
				if _, _, err := readMsg(br, nil); err != nil { // its ack
					return
				}
				frame := wal.EncodeFrame(nil, &wal.Frame{
					Shards: []wal.ShardLSN{{Shard: 0, LSN: 1}},
					Ops:    []wal.Op{{Shard: 0, Key: "poison", Val: []byte("x")}},
				})
				if err := writeMsg(bw, &Message{Type: MsgFrames, Epoch: 3,
					Frames: [][]byte{frame}}); err != nil {
					return
				}
				resp, _, err := readMsg(br, nil)
				if err == nil && resp.Type == MsgReject && resp.Code == RejectStaleEpoch && resp.Epoch == 7 {
					rejected.Store(true)
				}
			}(conn)
		}
	}()

	waitFor(t, 3*time.Second, "stale-epoch reject", func() bool { return rejected.Load() })
	if n1.node.Stats().FencingRejects.Load() == 0 {
		t.Fatal("no fencing reject counted")
	}
	if n1.node.Epoch() != 7 {
		t.Fatalf("follower epoch = %d, want 7", n1.node.Epoch())
	}
	if n1.node.Stats().FramesApplied.Load() != 0 {
		t.Fatal("follower applied a fenced frame")
	}
	for _, v := range n1.store.AppliedVector() {
		if v != 0 {
			t.Fatal("fenced frame reached the follower's WAL")
		}
	}
}

// TestBoundedStalenessReads pins the replica read contract: a
// read-your-writes token is never served from state older than the
// client's last acked write, and the freshness half (MaxLagMs) refuses
// service when the primary has gone silent.
func TestBoundedStalenessReads(t *testing.T) {
	r0, r1 := pickAddr(t), pickAddr(t)
	n0 := startNode(t, 0, nodeOpts{replAddr: r0, peers: []string{r1}, ackPolicy: AckOne})
	n1 := startNode(t, 1, nodeOpts{replAddr: r1, peers: []string{r0}, primaryFrom: r0,
		ackPolicy: AckOne, maxReadWait: 400 * time.Millisecond})

	c0, err := server.Dial(n0.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := server.Dial(n1.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	// Acked write on the primary; its commit vector is the client token.
	_, token, status, msg, err := c0.DoVec(
		[]kv.Op{{Kind: kv.OpPut, Key: "ryw", Value: []byte("v1")}},
		&server.Staleness{MaxLagMs: server.NoLagBudget})
	if err != nil || status != server.StatusOKVec {
		t.Fatalf("primary write: status=%d msg=%q err=%v", status, msg, err)
	}
	if len(token) == 0 {
		t.Fatal("write returned no commit vector")
	}

	// RYW read on the replica: must see v1 (never older state).
	rs, _, status, msg, err := c1.DoVec([]kv.Op{{Kind: kv.OpGet, Key: "ryw"}},
		&server.Staleness{MaxLagMs: server.NoLagBudget, Vector: token})
	if err != nil || status != server.StatusOKVec {
		t.Fatalf("replica RYW read: status=%d msg=%q err=%v", status, msg, err)
	}
	if !rs[0].Found || string(rs[0].Value) != "v1" {
		t.Fatalf("replica RYW read returned older state: %+v", rs[0])
	}

	// Strict freshness (budget 0) with a live primary: heartbeats flow,
	// so the read serves.
	_, _, status, msg, err = c1.DoVec([]kv.Op{{Kind: kv.OpGet, Key: "ryw"}},
		&server.Staleness{MaxLagMs: 0, Vector: token})
	if err != nil || status != server.StatusOKVec {
		t.Fatalf("strict fresh read with live primary: status=%d msg=%q err=%v", status, msg, err)
	}

	// A token from the future: the replica cannot cover it and must
	// refuse rather than serve stale.
	future := append([]wal.ShardLSN(nil), token...)
	future[0].LSN += 1000
	_, _, status, _, err = c1.DoVec([]kv.Op{{Kind: kv.OpGet, Key: "ryw"}},
		&server.Staleness{MaxLagMs: server.NoLagBudget, Vector: future})
	if err != nil {
		t.Fatal(err)
	}
	if status != server.StatusLagging {
		t.Fatalf("uncoverable token: status=%d, want StatusLagging", status)
	}

	// Writes on the replica always redirect.
	_, _, status, msg, err = c1.DoVec([]kv.Op{{Kind: kv.OpPut, Key: "w", Value: []byte("x")}},
		&server.Staleness{MaxLagMs: server.NoLagBudget})
	if err != nil {
		t.Fatal(err)
	}
	if status != server.StatusNotPrimary || !strings.Contains(msg, "primary=") {
		t.Fatalf("replica write: status=%d msg=%q", status, msg)
	}

	// Primary goes silent: strict-freshness reads must start refusing
	// (the replica can no longer prove it isn't stale), while
	// freshness-waived token reads still serve — the two halves of the
	// bound are independent.
	n0.kill()
	time.Sleep(150 * time.Millisecond) // let the lease lapse
	_, _, status, _, err = c1.DoVec([]kv.Op{{Kind: kv.OpGet, Key: "ryw"}},
		&server.Staleness{MaxLagMs: 0, Vector: token})
	if err != nil {
		t.Fatal(err)
	}
	if status != server.StatusLagging {
		t.Fatalf("strict fresh read with dead primary: status=%d, want StatusLagging", status)
	}
	rs, _, status, _, err = c1.DoVec([]kv.Op{{Kind: kv.OpGet, Key: "ryw"}},
		&server.Staleness{MaxLagMs: server.NoLagBudget, Vector: token})
	if err != nil || status != server.StatusOKVec || string(rs[0].Value) != "v1" {
		t.Fatalf("freshness-waived read with dead primary: status=%d err=%v", status, err)
	}
}

// TestStatsCoverage: a live node's /metricsz carries every Stats family
// metrics.WriteFields names, the node's identity and applied position,
// and lints clean.
func TestStatsCoverage(t *testing.T) {
	n := startNode(t, 3, nodeOpts{replAddr: pickAddr(t), ackPolicy: AckNone})
	var mb, want strings.Builder
	n.node.WriteMetricsz(&mb)
	out := mb.String()
	if problems := metrics.LintProm(strings.NewReader(out)); len(problems) != 0 {
		t.Fatalf("node metricsz exposition violations: %v\n%s", problems, out)
	}
	metrics.WriteFields(&want, "nztm_repl", "gauge", &Stats{})
	got := metrics.Families(strings.NewReader(out))
	fams := metrics.Families(strings.NewReader(want.String()))
	if len(fams) == 0 {
		t.Fatal("Stats has no fields")
	}
	fams["nztm_repl_info"] = "gauge"
	fams["nztm_repl_applied_lsn_sum"] = "gauge"
	for name, typ := range fams {
		if got[name] != typ {
			t.Errorf("family %s %s missing (have %q)", name, typ, got[name])
		}
	}
	if !strings.Contains(out, `nztm_repl_info{node_id="3",role="primary",primary="`) {
		t.Errorf("node info missing id or role:\n%s", out)
	}
}

// TestNodeLatencyMetrics drives a live primary/follower pair and asserts
// that the commit gate's counters and the per-follower ack-latency
// histogram reach the export, and that the node's exposition lints clean.
// The gate's wall time is the request span's repl_gate stage (server).
func TestNodeLatencyMetrics(t *testing.T) {
	r0, r1 := pickAddr(t), pickAddr(t)
	n0 := startNode(t, 0, nodeOpts{replAddr: r0, peers: []string{r1}, ackPolicy: AckOne})
	n1 := startNode(t, 1, nodeOpts{replAddr: r1, peers: []string{r0}, primaryFrom: r0, ackPolicy: AckOne})

	cl, err := DialCluster(ClusterConfig{
		Addrs:    []string{n0.kvLn.Addr().String(), n1.kvLn.Addr().String()},
		RetryFor: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 20; i++ {
		if _, err := cl.Write([]kv.Op{{Kind: kv.OpPut, Key: fmt.Sprintf("g%02d", i), Value: []byte("v")}}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	waitFor(t, 5*time.Second, "follower acks measured", func() bool {
		var b strings.Builder
		n0.node.WriteMetricsz(&b)
		return strings.Contains(b.String(), "nztm_repl_follower_ack_seconds_count")
	})

	var mb strings.Builder
	n0.node.WriteMetricsz(&mb)
	out := mb.String()
	for _, want := range []string{
		"nztm_repl_gate_timeouts 0\n",
		`nztm_repl_follower_lag_lsn{follower="1"}`,
		`nztm_repl_follower_since_ack_ms{follower="1"}`,
		`nztm_repl_follower_ack_seconds_count{follower="1"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("primary metricsz missing %q:\n%s", want, out)
		}
	}
	// Every write waited for its follower ack at most once.
	if w := n0.node.stats.GateWaits.Load(); w == 0 || w > 20 {
		t.Errorf("gate waits = %d, want 1..20", w)
	}
	if strings.Contains(out, "_quantile") {
		t.Errorf("primary metricsz exports quantile gauges:\n%s", out)
	}
	if problems := metrics.LintProm(strings.NewReader(out)); len(problems) != 0 {
		t.Errorf("primary metricsz exposition violations: %v", problems)
	}
	// The follower has no subscribers: its exposition must still lint
	// (no sampleless family heads).
	var fb strings.Builder
	n1.node.WriteMetricsz(&fb)
	if problems := metrics.LintProm(strings.NewReader(fb.String())); len(problems) != 0 {
		t.Errorf("follower metricsz exposition violations: %v", problems)
	}
}
