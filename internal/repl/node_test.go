package repl

// In-process cluster tests: real stores, real servers, real replication
// nodes over loopback TCP. These are the unit-level half of the
// replication acceptance story; cmd/nztm-soak -leg failover is the
// process-level half (SIGKILL, restart, linearizability check).

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nztm/internal/fault"
	"nztm/internal/kv"
	"nztm/internal/metrics"
	"nztm/internal/server"
	"nztm/internal/wal"
)

// pickAddr reserves a loopback address (small reuse race, fine in tests).
func pickAddr(t testing.TB) string {
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
	opts  nodeOpts
	b     *kv.Backend
	store *kv.Store
	node  *Node
	srv   *server.Server
	kvLn  net.Listener
}

type nodeOpts struct {
	shards       int
	dir          string // data dir; default a fresh temp dir
	kvAddr       string // KV listen address; default any loopback port
	replAddr     string
	peers        []string
	leaseTimeout time.Duration // default 120ms
	maxReadWait  time.Duration
	dial         func(network, addr string, timeout time.Duration) (net.Conn, error)
	fs           wal.FS       // the WAL's filesystem; default the real one
	replLn       net.Listener // when set, holds replAddr until just before Start listens on it
}

func startNode(t testing.TB, id int, o nodeOpts) *testNode {
	t.Helper()
	if o.shards == 0 {
		o.shards = 4
	}
	if o.dir == "" {
		o.dir = t.TempDir()
	}
	if o.kvAddr == "" {
		o.kvAddr = "127.0.0.1:0"
	}
	if o.leaseTimeout == 0 {
		o.leaseTimeout = 120 * time.Millisecond
	}
	logf := t.Logf
	if _, ok := t.(*testing.B); ok {
		logf = nil // a benchmark prints every log line; keep its output to the rows
	}
	b, err := kv.OpenBackend("nzstm", 8)
	if err != nil {
		t.Fatal(err)
	}
	store, _, err := kv.NewDurable(b.Sys, o.shards, 4, kv.Durability{
		Dir: o.dir, Fsync: wal.FsyncNever, NewThread: b.NewThread, FS: o.fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	kvLn, err := net.Listen("tcp", o.kvAddr)
	if err != nil {
		t.Fatal(err)
	}
	if o.replLn != nil {
		// Closed only now: the KV listener above, bound to any free port,
		// could otherwise have taken this one.
		o.replLn.Close()
		o.replLn = nil
	}
	node, err := Start(store, Config{
		NodeID:         id,
		KVAddr:         kvLn.Addr().String(),
		ReplAddr:       o.replAddr,
		Peers:          o.peers,
		HeartbeatEvery: 10 * time.Millisecond,
		LeaseTimeout:   o.leaseTimeout,
		MaxReadWait:    o.maxReadWait,
		NewThread:      b.NewThread,
		Dial:           o.dial,
		Logf:           logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(store, b.Reg, server.Config{CheckRequest: node.CheckRequest})
	go srv.Serve(kvLn)
	tn := &testNode{id: id, opts: o, b: b, store: store, node: node, srv: srv, kvLn: kvLn}
	t.Cleanup(func() { tn.kill(); store.Close() })
	return tn
}

// kill abruptly stops the node's serving surfaces (listener + repl),
// like a crash as far as the rest of the cluster can tell.
func (tn *testNode) kill() {
	tn.kvLn.Close()
	tn.node.Close()
}

// crash kills the node and closes its server and store, so that reboot
// can open its data dir again.
func (tn *testNode) crash() {
	tn.kill()
	tn.srv.Shutdown(time.Second)
	tn.store.Close()
}

// reboot boots a crashed node again with its original options, on the
// same data dir and KV address.
func (tn *testNode) reboot(t testing.TB) *testNode {
	t.Helper()
	o := tn.opts
	o.kvAddr = tn.kvLn.Addr().String()
	return startNode(t, tn.id, o)
}

// peerOpts configures member i of the cluster whose replication
// addresses are addrs: every other address is a peer.
func peerOpts(addrs []string, i int) nodeOpts {
	o := nodeOpts{replAddr: addrs[i]}
	for j, a := range addrs {
		if j != i {
			o.peers = append(o.peers, a)
		}
	}
	return o
}

// startCluster boots a size-node cluster whose first primary is node
// 0. Each node dials through its own fault.Partitions, returned with the
// nodes and their replication addresses. Nodes 1..size-1 boot first
// with every peer blocked on their dialers, so none of them can gather a
// quorum; node 0 then wins its boot election before Start returns, and
// the others are let loose. opt, when non-nil, adjusts node i's options.
func startCluster(t testing.TB, size int, opt func(i int, o *nodeOpts)) ([]*testNode, []string, []*fault.Partitions) {
	t.Helper()
	addrs := make([]string, size)
	lns := make([]net.Listener, size)
	parts := make([]*fault.Partitions, size)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i], parts[i] = ln, ln.Addr().String(), fault.NewPartitions()
	}
	nodes := make([]*testNode, size)
	for k := 1; k <= size; k++ {
		i := k % size // node 0 boots last
		o := peerOpts(addrs, i)
		o.dial = parts[i].Dial
		if opt != nil {
			opt(i, &o)
		}
		for _, a := range o.peers {
			if i != 0 {
				if err := parts[i].Block(a, "both"); err != nil {
					t.Fatal(err)
				}
			}
		}
		o.replLn = lns[i] // held until Start, so that no other socket takes the port
		nodes[i] = startNode(t, i, o)
	}
	if nodes[0].node.Role() != RolePrimary {
		t.Fatal("node 0 lost its boot election")
	}
	for _, p := range parts {
		p.HealAll()
	}
	return nodes, addrs, parts
}

// kvAddrs lists the nodes' client addresses.
func kvAddrs(nodes []*testNode) []string {
	addrs := make([]string, len(nodes))
	for i, tn := range nodes {
		addrs[i] = tn.kvLn.Addr().String()
	}
	return addrs
}

// state reads the node's role and epoch together.
func (tn *testNode) state() (Role, uint64) {
	if tn == nil {
		return RoleFollower, 0 // down
	}
	tn.node.mu.Lock()
	defer tn.node.mu.Unlock()
	return tn.node.role, tn.node.epoch
}

func waitFor(t testing.TB, d time.Duration, what string, fn func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !fn() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitPrimary blocks until tn has won an election.
func waitPrimary(t testing.TB, tn *testNode) {
	t.Helper()
	waitFor(t, 5*time.Second, fmt.Sprintf("node %d's promotion", tn.id), func() bool {
		return tn.node.Role() == RolePrimary
	})
}

// waitLease blocks until tn is the primary and its lease holds: a
// quorum of its followers has acked a fresh stamp, so it accepts
// writes.
func waitLease(t testing.TB, tn *testNode) {
	t.Helper()
	waitFor(t, 5*time.Second, "primary lease", func() bool {
		tn.node.mu.Lock()
		defer tn.node.mu.Unlock()
		return tn.node.role == RolePrimary && tn.node.leaseHeldLocked()
	})
}

// losingPeer listens on a fresh loopback address and grants every
// election poll and vote request, as a node that has applied nothing
// and voted for no one, so a node it answers wins its election. It
// speaks only the election half of the protocol.
func losingPeer(t *testing.T) string {
	return electionPeer(t, func(m *Message) *Message {
		return &Message{Type: MsgPollResp, Epoch: m.Epoch, Granted: true}
	})
}

// electionPeer listens on a fresh loopback address and answers every
// election poll and vote request with answer's reply.
func electionPeer(t *testing.T, answer func(*Message) *Message) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if m, _, err := readMsg(server.NewBufReader(conn), nil); err == nil && (m.Type == MsgPoll || m.Type == MsgVote) {
					writeMsg(server.NewBufWriter(conn), answer(m))
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// fakeFollower speaks the replication protocol by hand: it subscribes
// to a primary and acks only when the test tells it to.
type fakeFollower struct {
	br *bufio.Reader
	bw *bufio.Writer
}

// subscribeFake subscribes a fake follower (node id 9, 4 empty shards)
// to the primary at addr.
func subscribeFake(t *testing.T, addr string, epoch uint64) *fakeFollower {
	return subscribeFakeAs(t, addr, epoch, 9)
}

// subscribeFakeAs subscribes a fake follower with node id id.
func subscribeFakeAs(t *testing.T, addr string, epoch uint64, id uint16) *fakeFollower {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	f := &fakeFollower{br: server.NewBufReader(conn), bw: server.NewBufWriter(conn)}
	if err := writeMsg(f.bw, &Message{Type: MsgSubscribe, Epoch: epoch, NodeID: id,
		Vector: make([]uint64, 4)}); err != nil {
		t.Fatal(err)
	}
	return f
}

// next reads the next stream message; every one carries a stamp.
func (f *fakeFollower) next() (*Message, error) {
	m, _, err := readMsg(f.br, nil)
	return m, err
}

// ack acks m: it echoes m's send stamp and claims m's stable vector
// applied.
func (f *fakeFollower) ack(epoch uint64, m *Message) error {
	return writeMsg(f.bw, &Message{Type: MsgAck, Epoch: epoch, Stamp: m.Stamp, Vector: m.Vector})
}

// echo acks every stream message until stop closes; the returned
// channel closes when it has stopped.
func (f *fakeFollower) echo(epoch uint64, stop <-chan struct{}) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			m, err := f.next()
			if err != nil || f.ack(epoch, m) != nil {
				return
			}
		}
	}()
	return done
}

// TestClusterEndToEndFailover drives a 3-node cluster through its
// advertised life: replicate writes, serve read-your-writes reads from
// replicas, survive the primary's death with an automatic promotion
// that loses nothing, and keep serving.
func TestClusterEndToEndFailover(t *testing.T) {
	nodes, _, _ := startCluster(t, 3, nil)
	n0, n1, n2 := nodes[0], nodes[1], nodes[2]

	cl, err := DialCluster(ClusterConfig{
		Addrs:    kvAddrs(nodes),
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
// in flight, and any read until a primary has matched the node's log.
func TestDeposedPrimaryIsFenced(t *testing.T) {
	r0 := pickAddr(t)
	var later atomic.Uint64 // once set, the peer follows a live primary at this epoch
	peer := electionPeer(t, func(m *Message) *Message {
		if e := later.Load(); e != 0 {
			return &Message{Type: MsgPollResp, Epoch: e, PrimaryLive: true,
				KVAddr: "127.0.0.1:1", ReplAddr: "127.0.0.1:1"}
		}
		return &Message{Type: MsgPollResp, Epoch: m.Epoch, Granted: true}
	})
	n0 := startNode(t, 0, nodeOpts{replAddr: r0, peers: []string{peer}})
	waitPrimary(t, n0)

	// One peer makes a quorum of one: its grant won node 0 the boot
	// election, and a fake follower acks every message, so the primary
	// holds its lease and the write below passes the commit gate.
	epoch := n0.node.Epoch()
	f := subscribeFake(t, r0, epoch)
	stop := make(chan struct{})
	echoing := f.echo(epoch, stop)
	waitLease(t, n0)

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

	// Pose as a follower elected at a higher epoch: ack with the higher
	// epoch. The primary must step down.
	close(stop)
	<-echoing
	later.Store(epoch + 5)
	if err := writeMsg(f.bw, &Message{Type: MsgAck, Epoch: epoch + 5,
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
	// So does a read until a primary's handshake matches the node's log:
	// one it ran as primary may have observed a commit the cluster never
	// made.
	if err := n0.node.commitGate(nil, false); err == nil {
		t.Fatal("commit gate passed a read on a deposed node no primary has matched")
	}
	// Once matched, a replica-local read passes the gate (its staleness
	// contract is CheckRequest's, not the gate's).
	n0.node.mu.Lock()
	n0.node.matched = true
	n0.node.mu.Unlock()
	if err := n0.node.commitGate(nil, false); err != nil {
		t.Fatalf("commit gate failed a read on a matched follower: %v", err)
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
	n1 := startNode(t, 1, nodeOpts{replAddr: r1, peers: []string{fakeAddr}})

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
				if err == nil && m.Type == MsgPoll {
					// Name itself the live primary at epoch 0 (and grant
					// nothing, so node 1 never wins): node 1's boot
					// election follows it.
					writeMsg(bw, &Message{Type: MsgPollResp, PrimaryLive: true,
						KVAddr: "127.0.0.1:1", ReplAddr: fakeAddr})
					return
				}
				if err != nil || m.Type != MsgSubscribe {
					return
				}
				// Establish epoch 7, then ship frames stamped epoch 3.
				hb := &Message{Type: MsgAppend, Epoch: 7, Vector: make([]uint64, 4)}
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
				if err := writeMsg(bw, &Message{Type: MsgAppend, Epoch: 3, Data: frame}); err != nil {
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
	nodes, _, _ := startCluster(t, 2, func(i int, o *nodeOpts) {
		if i == 1 {
			o.maxReadWait = 400 * time.Millisecond
		}
	})
	n0, n1 := nodes[0], nodes[1]
	waitLease(t, n0)

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
	n := startNode(t, 3, nodeOpts{replAddr: pickAddr(t)})
	waitPrimary(t, n) // a lone node wins its boot election unopposed
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
	nodes, _, _ := startCluster(t, 2, nil)
	n0, n1 := nodes[0], nodes[1]

	cl, err := DialCluster(ClusterConfig{
		Addrs:    kvAddrs(nodes),
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

// TestQuorumLeaseFencesMinorityPrimary splits a 5-node cluster
// {P, F1} | {F2, F3, F4}. The majority side elects a new primary; P
// still hears F1, but one follower is not a quorum, so its lease has
// lapsed and it refuses writes and tokened reads before executing them.
// The cluster client rides the refusals to the new primary.
func TestQuorumLeaseFencesMinorityPrimary(t *testing.T) {
	nodes, addrs, parts := startCluster(t, 5, nil)
	p := nodes[0]
	waitLease(t, p)
	c, err := server.Dial(p.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st := &server.Staleness{MaxLagMs: server.NoLagBudget}
	_, token, status, msg, err := c.DoVec([]kv.Op{{Kind: kv.OpPut, Key: "pre", Value: []byte("v")}}, st)
	if err != nil || status != server.StatusOKVec {
		t.Fatalf("pre-split write: status=%d msg=%q err=%v", status, msg, err)
	}
	epoch := p.node.Epoch()

	minority, majority := []int{0, 1}, []int{2, 3, 4}
	for _, i := range minority {
		for _, j := range majority {
			if err := parts[i].Block(addrs[j], "both"); err != nil {
				t.Fatal(err)
			}
			if err := parts[j].Block(addrs[i], "both"); err != nil {
				t.Fatal(err)
			}
		}
	}
	var np *testNode
	waitFor(t, 10*time.Second, "a majority-side promotion", func() bool {
		for _, j := range majority {
			if nodes[j].node.Role() == RolePrimary {
				np = nodes[j]
				return true
			}
		}
		return false
	})
	if e := np.node.Epoch(); e <= epoch {
		t.Fatalf("promotion did not advance the epoch: %d -> %d", epoch, e)
	}

	// P hears F1 but no quorum: writes and tokened reads are refused
	// before they execute, not acked and not left to time out in the
	// commit gate.
	refusals := p.node.Stats().LeaseRefusals.Load()
	applied := p.node.AppliedTotal()
	start := time.Now()
	_, _, status, msg, err = c.DoVec([]kv.Op{{Kind: kv.OpPut, Key: "split", Value: []byte("minority")}}, st)
	if err != nil || status != server.StatusLagging {
		t.Fatalf("write to the minority primary: status=%d msg=%q err=%v, want StatusLagging", status, msg, err)
	}
	_, _, status, msg, err = c.DoVec([]kv.Op{{Kind: kv.OpGet, Key: "pre"}},
		&server.Staleness{MaxLagMs: server.NoLagBudget, Vector: token})
	if err != nil || status != server.StatusLagging {
		t.Fatalf("tokened read on the minority primary: status=%d msg=%q err=%v, want StatusLagging", status, msg, err)
	}
	if d := time.Since(start); d >= ackTimeout {
		t.Fatalf("refusals took %v: they waited out the commit gate", d)
	}
	if got := p.node.AppliedTotal(); got != applied {
		t.Fatalf("the refused write executed: applied total %d -> %d", applied, got)
	}
	if p.node.Stats().LeaseRefusals.Load() <= refusals {
		t.Fatal("LeaseRefusals did not rise")
	}

	cl, err := DialCluster(ClusterConfig{Addrs: kvAddrs(nodes), RetryFor: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Write([]kv.Op{{Kind: kv.OpPut, Key: "after", Value: []byte("majority")}}); err != nil {
		t.Fatalf("cluster write after the split: %v", err)
	}
	if got, want := cl.Primary(), np.kvLn.Addr().String(); got != want {
		t.Fatalf("cluster write landed on %s, want the new primary %s", got, want)
	}
}

// TestLeaseCountsFromHeartbeatSend pins the lease's clock: it runs from
// the send stamp of the message an ack echoes, not from the ack's
// arrival. A fake follower acks its first message half a lease late
// and never again; a lease counted from the ack would still hold at
// 1.25 leases after that message was sent.
func TestLeaseCountsFromHeartbeatSend(t *testing.T) {
	const lease = 400 * time.Millisecond
	r0 := pickAddr(t)
	// Two peers make a quorum of one. They only answer polls, so node 0
	// wins its boot election and its stepdown probes never depose it;
	// the fake follower dials in on its own.
	n0 := startNode(t, 0, nodeOpts{replAddr: r0, peers: []string{losingPeer(t), losingPeer(t)},
		leaseTimeout: lease})
	waitPrimary(t, n0)
	epoch := n0.node.Epoch()
	f := subscribeFake(t, r0, epoch)
	hb, err := f.next()
	if err != nil {
		t.Fatal(err)
	}
	received := time.Now()
	time.Sleep(lease / 2)
	if err := f.ack(epoch, hb); err != nil {
		t.Fatal(err)
	}
	go func() { // drain the stream without acking
		for {
			if _, err := f.next(); err != nil {
				return
			}
		}
	}()

	c, err := server.Dial(n0.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	time.Sleep(time.Until(received.Add(lease * 5 / 4)))
	_, _, status, msg, err := c.DoVec([]kv.Op{{Kind: kv.OpGet, Key: "a"}},
		&server.Staleness{MaxLagMs: server.NoLagBudget})
	if err != nil || status != server.StatusLagging {
		t.Fatalf("tokened read 1.25 leases after the only acked stamp: status=%d msg=%q err=%v, want StatusLagging",
			status, msg, err)
	}
	if n0.node.Stats().LeaseRefusals.Load() == 0 {
		t.Fatal("no lease refusal counted")
	}
}

// TestGateWaitsForTheEpochsFrame: a new primary's first frame is an
// empty one at its own epoch, and the gate releases nothing, not even a
// read whose vector a quorum covers, until a quorum holds that frame.
func TestGateWaitsForTheEpochsFrame(t *testing.T) {
	r0 := pickAddr(t)
	n0 := startNode(t, 0, nodeOpts{replAddr: r0, peers: []string{losingPeer(t)}})
	waitPrimary(t, n0)
	epoch := n0.node.Epoch()
	f := subscribeFake(t, r0, epoch)
	m, err := f.next()
	if err != nil {
		t.Fatal(err)
	}
	start := m.Vector[0]
	if e, ok := n0.store.WAL().EpochAt(0, start); start == 0 || !ok || e != epoch {
		t.Fatalf("shard 0's newest frame, at %d, is of epoch %d (known %v), want the promotion's %d", start, e, ok, epoch)
	}

	read := []wal.ShardLSN{{Shard: 1, LSN: 3}}
	behind := slices.Clone(m.Vector)
	behind[0], behind[1] = start-1, 3
	if err := writeMsg(f.bw, &Message{Type: MsgAck, Epoch: epoch, Stamp: m.Stamp, Vector: behind}); err != nil {
		t.Fatal(err)
	}
	gated := make(chan error, 1)
	go func() { gated <- n0.node.commitGate(read, false) }()
	select {
	case err := <-gated:
		t.Fatalf("the gate answered %v before the follower held the epoch's frame", err)
	case <-time.After(200 * time.Millisecond):
	}
	behind[0] = start
	if err := writeMsg(f.bw, &Message{Type: MsgAck, Epoch: epoch, Stamp: m.Stamp, Vector: behind}); err != nil {
		t.Fatal(err)
	}
	if err := <-gated; err != nil {
		t.Fatalf("the gate failed a read the follower covers: %v", err)
	}
}

// TestStreamKeepsTwoChunksInFlight: a primary sends a message with data
// only once the follower has acked the one two before it, so a stamp
// never queues behind more than one chunk. A follower that acks nothing
// gets two such messages, and one more per ack. While its pass waits, a
// write commits through a second follower: the held message must carry
// it in its stable vector, which is read as the message is stamped, for
// the follower takes a stamp whose vector it holds for proof that its
// state is complete as of the stamp's arrival.
func TestStreamKeepsTwoChunksInFlight(t *testing.T) {
	r0 := pickAddr(t)
	n0 := startNode(t, 0, nodeOpts{replAddr: r0, peers: []string{losingPeer(t), losingPeer(t)}})
	waitPrimary(t, n0)
	epoch := n0.node.Epoch()
	stop := make(chan struct{})
	defer close(stop)
	subscribeFakeAs(t, r0, epoch, 8).echo(epoch, stop) // the quorum of one
	waitLease(t, n0)
	c, err := server.Dial(n0.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Put(fmt.Sprint("big", i), bytes.Repeat([]byte{'b'}, chunkBytes)); err != nil {
			t.Fatal(err)
		}
	}
	f := subscribeFake(t, r0, epoch)
	got := make(chan *Message, 16)
	go func() {
		for {
			m, err := f.next()
			if err != nil {
				return
			}
			if len(m.Data) > 0 {
				got <- m
			}
		}
	}()
	var sent []*Message
	for len(sent) < 2 {
		select {
		case m := <-got:
			sent = append(sent, m)
		case <-time.After(5 * time.Second):
			t.Fatalf("%d messages with data arrived, want 2", len(sent))
		}
	}
	select {
	case <-got:
		t.Fatal("a third message with data arrived before the first was acked")
	case <-time.After(200 * time.Millisecond):
	}
	if _, err := c.Put("w", []byte("new")); err != nil {
		t.Fatal(err)
	}
	want := n0.store.WAL().StableVector()
	if err := f.ack(epoch, sent[0]); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if sumVec(m.Vector) < sumVec(want) {
			t.Errorf("a message sent after a write committed carries the stable vector %v, which lacks the write's %v", m.Vector, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no third message with data after the first was acked")
	}
}

// TestFollowerCountsOnceTowardsQuorum: two subscriptions from one node
// id are one follower. With three peers the quorum is two, so a single
// follower acking on two streams must not give the primary its lease.
func TestFollowerCountsOnceTowardsQuorum(t *testing.T) {
	r0 := pickAddr(t)
	n0 := startNode(t, 0, nodeOpts{replAddr: r0,
		peers: []string{losingPeer(t), losingPeer(t), losingPeer(t)}})
	waitPrimary(t, n0)
	epoch := n0.node.Epoch()
	stop := make(chan struct{})
	defer close(stop)
	subscribeFake(t, r0, epoch).echo(epoch, stop)
	subscribeFake(t, r0, epoch).echo(epoch, stop)
	waitFor(t, 5*time.Second, "acks on both streams", func() bool {
		return n0.node.Stats().AcksReceived.Load() >= 10
	})
	n0.node.mu.Lock()
	held, subs := n0.node.leaseHeldLocked(), len(n0.node.subs)
	n0.node.mu.Unlock()
	if held || subs != 1 {
		t.Fatalf("one follower on two streams: lease held=%v with %d subscriptions counted, want false and 1", held, subs)
	}
}

// TestRestartedPrimaryRejoinsAsFollower is the restart a failover
// leaves behind: the old primary comes back with its original
// configuration while the new primary serves. It must boot as a
// follower and resync, never as a second primary at the new primary's
// epoch, and once the new primary dies too, every acknowledged write
// must read back on the surviving follower.
func TestRestartedPrimaryRejoinsAsFollower(t *testing.T) {
	var mu sync.Mutex                      // guards nodes and primaries
	nodes, _, _ := startCluster(t, 3, nil) // an entry is nil while its node is down
	primaries := map[uint64][]int{}        // epoch → the nodes seen primary at it
	// Sample every live node's role and epoch until the test ends.
	var rounds atomic.Int64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for ; ; rounds.Add(1) {
			mu.Lock()
			for _, tn := range nodes {
				if role, e := tn.state(); role == RolePrimary && !slices.Contains(primaries[e], tn.id) {
					primaries[e] = append(primaries[e], tn.id)
				}
			}
			mu.Unlock()
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	defer func() {
		close(stop)
		<-sampled
		for e, ids := range primaries {
			if len(ids) > 1 {
				t.Errorf("epoch %d has %d primaries: nodes %v", e, len(ids), ids)
			}
		}
	}()
	down := func(i int) *testNode {
		mu.Lock()
		defer mu.Unlock()
		tn := nodes[i]
		nodes[i] = nil
		tn.crash()
		return tn
	}
	primaryOf := func(ids ...int) *testNode {
		var p *testNode
		waitFor(t, 10*time.Second, fmt.Sprintf("a primary among nodes %v", ids), func() bool {
			mu.Lock()
			defer mu.Unlock()
			for _, i := range ids {
				if nodes[i].node.Role() == RolePrimary {
					p = nodes[i]
					return true
				}
			}
			return false
		})
		return p
	}

	waitPrimary(t, nodes[0])
	cl, err := DialCluster(ClusterConfig{Addrs: kvAddrs(nodes), RetryFor: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	write := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			key := fmt.Sprintf("k%02d", i)
			if _, err := cl.Write([]kv.Op{{Kind: kv.OpPut, Key: key, Value: []byte("v" + key)}}); err != nil {
				t.Fatalf("write %s: %v", key, err)
			}
		}
	}
	write(0, 10)

	old := down(0)
	np := primaryOf(1, 2)
	write(10, 30)

	mu.Lock()
	nodes[0] = old.reboot(t)
	mu.Unlock()
	waitFor(t, 5*time.Second, "the restarted node to learn the new epoch", func() bool {
		_, e := nodes[0].state()
		return e >= np.node.Epoch()
	})
	r := rounds.Load()
	waitFor(t, 5*time.Second, "the sampler to see the restarted node", func() bool { return rounds.Load() >= r+2 })

	down(np.id)
	survivor := nodes[3-np.id]
	p := primaryOf(0, survivor.id)
	write(30, 31) // through the last primary: the survivor has caught up once it has applied this
	waitFor(t, 10*time.Second, "the survivor to catch up", func() bool {
		survivor.node.mu.Lock()
		matched := survivor.node.matched
		survivor.node.mu.Unlock()
		return matched && survivor.node.AppliedTotal() >= p.node.AppliedTotal()
	})

	c, err := server.Dial(survivor.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var missing []string
	for i := 0; i < 31; i++ {
		key := fmt.Sprintf("k%02d", i)
		rs, err := c.Do([]kv.Op{{Kind: kv.OpGet, Key: key}})
		if err != nil {
			t.Fatalf("read %s on survivor node %d: %v", key, survivor.id, err)
		}
		if !rs[0].Found || string(rs[0].Value) != "v"+key {
			missing = append(missing, key)
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d of 31 acked keys missing on survivor node %d: %v", len(missing), survivor.id, missing)
	}
}

// TestRestartedPrimaryLeadsWithItsLog is the restart no failover
// precedes: the primary and its one acking follower die, and the
// primary comes back beside the follower that missed those writes,
// which boots first. The primary's log holds every acknowledged write
// and no later epoch exists, so it must win with that log rather than
// stand aside and reload the lagging node's snapshots.
func TestRestartedPrimaryLeadsWithItsLog(t *testing.T) {
	nodes, _, _ := startCluster(t, 3, nil)
	waitFor(t, 5*time.Second, "both followers acking node 0", func() bool {
		p := nodes[0].node
		p.mu.Lock()
		defer p.mu.Unlock()
		acking := 0
		for sub := range p.subs {
			if sub.stamp != 0 {
				acking++
			}
		}
		return p.role == RolePrimary && acking == 2
	})
	c, err := server.Dial(nodes[0].kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	write := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			key := fmt.Sprintf("k%02d", i)
			if _, err := c.Put(key, []byte("v"+key)); err != nil {
				t.Fatalf("write %s: %v", key, err)
			}
		}
	}
	write(0, 10)
	nodes[1].crash()
	write(10, 30) // node 2 alone makes the quorum
	epoch := nodes[0].node.Epoch()
	nodes[0].crash()
	nodes[2].crash()

	n1 := nodes[1].reboot(t)
	n0 := nodes[0].reboot(t)
	waitFor(t, 5*time.Second, "a primary among nodes 0 and 1", func() bool {
		return n0.node.Role() == RolePrimary || n1.node.Role() == RolePrimary
	})
	if n1.node.Role() == RolePrimary {
		t.Errorf("the lagging node 1 won epoch %d", n1.node.Epoch())
	}
	if e := n0.node.Epoch(); e != epoch+1 {
		t.Errorf("node 0's epoch after restart = %d, want %d", e, epoch+1)
	}
	if got := n0.node.Stats().SnapshotsLoaded.Load(); got != 0 {
		t.Errorf("the restarted primary reloaded %d snapshots", got)
	}
	r0, err := server.Dial(n0.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer r0.Close()
	var missing []string
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("k%02d", i)
		r, err := r0.Get(key)
		if err != nil {
			t.Fatalf("read %s: %v", key, err)
		}
		if !r.Found || string(r.Value) != "v"+key {
			missing = append(missing, key)
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d of 30 acked keys missing on node 0: %v", len(missing), missing)
	}
}

// TestLoneNodeRestartsAsPrimary: a node with no peers needs no vote but
// its own, so it is primary when Start returns, having persisted that
// vote, and again after a restart, at the next epoch, with its data.
func TestLoneNodeRestartsAsPrimary(t *testing.T) {
	n := startNode(t, 0, nodeOpts{replAddr: pickAddr(t)})
	if n.node.Role() != RolePrimary {
		t.Fatal("a lone node is not primary when Start returns")
	}
	if raw, err := os.ReadFile(filepath.Join(n.store.WAL().Dir(), epochFile)); err != nil || string(raw) != "1 0\n" {
		t.Fatalf("%s after the first election = %q, %v; want epoch 1 with its own vote", epochFile, raw, err)
	}
	c, err := server.Dial(n.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("lone", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	epoch := n.node.Epoch()

	n.crash()
	n = n.reboot(t)
	if n.node.Role() != RolePrimary {
		t.Fatal("the restarted lone node is not primary when Start returns")
	}
	if e := n.node.Epoch(); e != epoch+1 {
		t.Fatalf("epoch after restart = %d, want %d", e, epoch+1)
	}
	c, err = server.Dial(n.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Get("lone")
	if err != nil || !r.Found || string(r.Value) != "v1" {
		t.Fatalf("read after restart: %+v %v", r, err)
	}
}

// BenchmarkReplicatedPut is the replication row of the per-layer
// budget: a 1-PUT write through server.Client.DoVec to a primary whose
// commit gate waits for its one follower's ack, over loopback at
// FsyncNever.
func BenchmarkReplicatedPut(b *testing.B) {
	nodes, _, _ := startCluster(b, 2, nil)
	n0 := nodes[0]
	waitLease(b, n0)
	c, err := server.Dial(n0.kvLn.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	batches := make([][]kv.Op, 16)
	for i := range batches {
		batches[i] = []kv.Op{{Kind: kv.OpPut, Key: fmt.Sprintf("k%02d", i), Value: make([]byte, 128)}}
	}
	st := &server.Staleness{MaxLagMs: server.NoLagBudget}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, status, msg, err := c.DoVec(batches[i%len(batches)], st)
		if err != nil || status != server.StatusOKVec {
			b.Fatalf("write %d: status=%d msg=%q err=%v", i, status, msg, err)
		}
	}
}
