package repl

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"nztm/internal/kv"
	"nztm/internal/metrics"
	"nztm/internal/server"
	"nztm/internal/tm"
	"nztm/internal/trace"
	"nztm/internal/wal"
)

// Role is a node's current station in the replication topology.
type Role int

// Roles.
const (
	RoleFollower Role = iota
	RolePrimary
)

func (r Role) String() string {
	if r == RolePrimary {
		return "primary"
	}
	return "follower"
}

// Config configures a replication node.
type Config struct {
	// NodeID identifies this node in the cluster (unique, ≥ 0; the id a
	// vote names).
	NodeID int
	// KVAddr is the advertised client (KV protocol) address.
	KVAddr string
	// ReplAddr is the replication listen address (subscriptions, acks,
	// election polls and votes).
	ReplAddr string
	// Advertise, when non-empty, overrides the replication address told
	// to peers (e.g. when ReplAddr binds a wildcard or :0).
	Advertise string
	// Peers lists every OTHER node's replication address (for the
	// quorum and discovery).
	Peers []string
	// HeartbeatEvery is how long an idle stream goes before the primary
	// sends an empty, stamped message (default 50ms).
	HeartbeatEvery time.Duration
	// LeaseTimeout is how long a follower waits after its newest stamp
	// before it stands for election (default 5 × HeartbeatEvery).
	LeaseTimeout time.Duration
	// MaxReadWait bounds how long a bounded-staleness read may block
	// waiting for the replica to catch up before StatusLagging (default
	// 1s).
	MaxReadWait time.Duration
	// NewThread mints TM thread contexts for the apply path and for
	// snapshot serving (kv.Backend.NewThread fits). Required.
	NewThread func() *tm.Thread
	// Dial, when non-nil, replaces net.DialTimeout for every outbound
	// replication connection (subscriptions, election polls, stepdown
	// probes). The partition fault plane injects here
	// (fault.Partitions.Dial fits).
	Dial func(network, addr string, timeout time.Duration) (net.Conn, error)
	// Recorder, when non-nil, receives replication trace events —
	// typically FlightRecorder.ForSource(trace.ReplSource).
	Recorder *trace.Recorder
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Node is one replication participant: a primary streaming its WAL to
// subscribers, or a follower applying the stream, serving
// bounded-staleness reads, and standing for election when the lease
// lapses. Wire CheckRequest into server.Config.CheckRequest; the node
// installs the store's commit gate itself at Start.
type Node struct {
	cfg   Config
	store *kv.Store
	log   *wal.Log
	stats Stats
	rec   *trace.Recorder
	// quorum is the number of followers that make a majority with this
	// node: the commit gate, the primary's lease and an election each
	// need this many (0 on a lone node).
	quorum int

	applyTh *tm.Thread // follower apply path's registry slot

	ln        net.Listener
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	mu         sync.Mutex
	waitCh     chan struct{} // closed + replaced on any state change
	epoch      uint64
	votedFor   int       // the node this one voted for at epoch; -1 = none (EPOCH holds both)
	grantedAt  time.Time // when this node last granted its vote to another candidate
	role       Role
	primaryKV  string // current primary's client address ("" unknown)
	primaryRpl string // current primary's replication address
	// reseeding is set while a re-seed is incomplete (its file exists):
	// the log no longer proves every write this node acked, so votes
	// judge candidates by reseedFrom, the history (newest frame's epoch,
	// applied total) recorded in the file before the chain was dropped.
	reseeding  bool
	reseedFrom [2]uint64
	// matched is set once a subscribe handshake proved this node's state
	// a prefix of the primary's history, or a re-seed made it one; it is
	// clear at boot and on deposition, and follower reads wait for it.
	matched bool
	stopped bool
	subs    map[*subState]struct{}
	ackLat  map[int]*metrics.Histogram // per-follower stamp→ack round trip, by node id

	// startLSN is shard 0's LSN of the frame promote wrote at this
	// node's epoch: the gate releases nothing until quorum followers
	// hold it.
	startLSN uint64

	// Follower staleness accounting.
	stampAt   time.Time // when the newest stamp arrived: until LeaseTimeout after it, this node neither stands nor calls the primary dead
	freshAsOf time.Time // arrival of the newest stamp whose stable vector we have applied
}

// subState is the primary's view of one subscribed follower.
type subState struct {
	nodeID      int
	remote      string
	ackedVec    []uint64
	ackedTotal  uint64
	stamp       uint64    // newest send stamp (trace.Now()) it acked; 0 = none
	behindSince time.Time // zero while caught up
}

// ackTimeout bounds a commit-gate wait; on expiry the request fails with
// its outcome unknown.
const ackTimeout = 3 * time.Second

// leaseDrift sets the clock-drift margin of the primary's lease: the
// lease ends LeaseTimeout/leaseDrift before a follower's own timer can
// run out (DESIGN §13.3).
const leaseDrift = 8

// epochFile holds, inside the data dir, the node's epoch and the node
// it voted for at that epoch ("epoch vote", vote -1 for none).
const epochFile = "EPOCH"

// reseedFile exists, inside the data dir, from before a re-seed's first
// install drops the segment chain until its last install is done. It
// holds the node's history from before the drop ("last-epoch total").
const reseedFile = "RESEED"

// Start brings the node up as a follower with no known primary: loads
// the persisted epoch and vote, notes an incomplete re-seed, opens the
// replication listener, runs a first election round — the only road to
// primary (DESIGN §13.3) — and starts the role loop. A node with no
// peers is therefore primary when Start returns. store must be durable
// (it has a WAL — the log is the stream).
func Start(store *kv.Store, cfg Config) (*Node, error) {
	log := store.WAL()
	if log == nil {
		return nil, errors.New("repl: store has no WAL (replication streams the log)")
	}
	if cfg.NewThread == nil {
		return nil, errors.New("repl: Config.NewThread is required")
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 50 * time.Millisecond
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 5 * cfg.HeartbeatEvery
	}
	if cfg.MaxReadWait <= 0 {
		cfg.MaxReadWait = time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Dial == nil {
		cfg.Dial = net.DialTimeout
	}

	n := &Node{
		cfg:     cfg,
		store:   store,
		log:     log,
		rec:     cfg.Recorder,
		quorum:  (len(cfg.Peers) + 1) / 2,
		stop:    make(chan struct{}),
		waitCh:  make(chan struct{}),
		subs:    make(map[*subState]struct{}),
		ackLat:  make(map[int]*metrics.Histogram),
		applyTh: cfg.NewThread(),
	}
	var err error
	if n.epoch, n.votedFor, err = n.loadEpoch(); err != nil {
		n.applyTh.Close()
		return nil, err
	}
	if n.reseeding, err = n.loadReseed(); err != nil {
		n.applyTh.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.ReplAddr)
	if err != nil {
		n.applyTh.Close()
		return nil, err
	}
	n.ln = ln
	if cfg.Advertise == "" {
		n.cfg.Advertise = ln.Addr().String()
	}
	n.stats.Epoch.Store(n.epoch)
	store.SetCommitGate(n.commitGate)
	n.cfg.Logf("repl: node %d up: epoch=%d reseeding=%v advertise=%s peers=%v",
		cfg.NodeID, n.epoch, n.reseeding, n.cfg.Advertise, cfg.Peers)
	n.wg.Add(2)
	go n.acceptLoop()
	n.runElection()
	go n.run()
	return n, nil
}

// Close stops the node: listener, loops, gate (released), threads.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		n.mu.Lock()
		n.stopped = true
		n.broadcastLocked()
		n.mu.Unlock()
		close(n.stop)
		n.ln.Close()
		n.store.SetCommitGate(nil)
		n.wg.Wait()
		n.applyTh.Close()
	})
	return nil
}

// ReplAddr returns the advertised replication address.
func (n *Node) ReplAddr() string { return n.cfg.Advertise }

// Quorum returns the number of followers that make a majority with
// this node.
func (n *Node) Quorum() int { return n.quorum }

// Stats returns the node's counter block.
func (n *Node) Stats() *Stats { return &n.stats }

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Epoch returns the node's current fencing epoch.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// loadEpoch reads the persisted epoch and vote (0 and none when absent).
func (n *Node) loadEpoch() (uint64, int, error) {
	raw, err := os.ReadFile(filepath.Join(n.log.Dir(), epochFile))
	if errors.Is(err, os.ErrNotExist) {
		return 0, -1, nil
	}
	if err != nil {
		return 0, -1, err
	}
	var e uint64
	var vote int
	if _, err := fmt.Sscanf(string(raw), "%d %d\n", &e, &vote); err != nil || vote < -1 {
		return 0, -1, fmt.Errorf("repl: corrupt %s file %q (want \"epoch vote\")", epochFile, raw)
	}
	return e, vote, nil
}

// loadReseed reports whether a re-seed is incomplete and, if so, loads
// the history its file recorded.
func (n *Node) loadReseed() (bool, error) {
	raw, err := os.ReadFile(filepath.Join(n.log.Dir(), reseedFile))
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if _, err := fmt.Sscanf(string(raw), "%d %d\n", &n.reseedFrom[0], &n.reseedFrom[1]); err != nil {
		return false, fmt.Errorf("repl: corrupt %s file %q (want \"last-epoch total\")", reseedFile, raw)
	}
	return true, nil
}

// persistEpoch durably records the epoch and this node's vote at it,
// before anything acts on either.
func (n *Node) persistEpoch(e uint64, vote int) error {
	return writeDurable(n.log.Dir(), epochFile, fmt.Sprintf("%d %d\n", e, vote))
}

// writeDurable replaces dir/name with data (temp + rename) and syncs
// the file and the directory, so a crash after it returns keeps it.
func writeDurable(dir, name, data string) error {
	tmp, err := os.CreateTemp(dir, "tmp-"+name+"-*")
	if err != nil {
		return err
	}
	if _, err = tmp.WriteString(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// beginReseed durably marks a re-seed incomplete, with the history the
// node's votes keep judging by, before its first install drops the
// segment chain, and fences reads until it is done. A re-seed that
// resumes one left incomplete keeps the file it found: the chain is
// already gone, so only the file still knows the history.
func (n *Node) beginReseed() error {
	n.stats.Resyncs.Add(1)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.reseeding {
		return nil
	}
	last, total := n.historyLocked()
	if err := writeDurable(n.log.Dir(), reseedFile, fmt.Sprintf("%d %d\n", last, total)); err != nil {
		return fmt.Errorf("repl: create %s: %w", reseedFile, err)
	}
	n.reseeding, n.matched, n.reseedFrom = true, false, [2]uint64{last, total}
	return nil
}

// endReseed marks the re-seed done once its last install landed: every
// shard is the primary's again.
func (n *Node) endReseed() {
	if err := os.Remove(filepath.Join(n.log.Dir(), reseedFile)); err != nil && !errors.Is(err, os.ErrNotExist) {
		n.cfg.Logf("repl: node %d: remove %s: %v", n.cfg.NodeID, reseedFile, err)
	}
	n.mu.Lock()
	n.reseeding, n.matched = false, true
	n.broadcastLocked()
	n.mu.Unlock()
}

// broadcastLocked wakes every waiter (gate, bounded reads, role loop).
// Callers hold n.mu.
func (n *Node) broadcastLocked() {
	close(n.waitCh)
	n.waitCh = make(chan struct{})
}

// adoptEpochLocked raises the local epoch to e (persisting it) and, if
// this node was the primary, steps it down — it has been deposed.
// Callers hold n.mu. Reports whether anything changed.
func (n *Node) adoptEpochLocked(e uint64, primaryKV, primaryRpl string) bool {
	if e <= n.epoch && primaryRpl == "" {
		return false
	}
	changed := false
	if e > n.epoch {
		if n.role == RolePrimary {
			// Demoted before the epoch moves: no reader of the two gauges
			// sees this node primary at e.
			n.stepDownLocked(fmt.Sprintf("DEPOSED at epoch %d", e))
		}
		n.epoch, n.votedFor = e, -1
		n.stats.Epoch.Store(e)
		if err := n.persistEpoch(e, -1); err != nil {
			n.cfg.Logf("repl: node %d: persist epoch %d: %v", n.cfg.NodeID, e, err)
		}
		changed = true
	}
	if primaryRpl != "" && primaryRpl != n.cfg.Advertise {
		if n.primaryRpl != primaryRpl || n.primaryKV != primaryKV {
			n.primaryKV, n.primaryRpl = primaryKV, primaryRpl
			changed = true
		}
	}
	if changed {
		n.broadcastLocked()
	}
	return changed
}

// stepDownLocked makes the primary a follower at its epoch: its streams
// end at their next look at the role, and so does its lease. Callers
// hold n.mu and broadcast.
func (n *Node) stepDownLocked(why string) {
	n.role = RoleFollower
	n.matched = false // until a primary's handshake places our log
	n.stats.IsPrimary.Store(0)
	n.stats.Depositions.Add(1)
	n.primaryKV, n.primaryRpl = "", ""
	n.cfg.Logf("repl: node %d %s", n.cfg.NodeID, why)
}

// promote makes this node the primary at epoch e, whose vote it won: it
// stood at e (stand), and the epoch has not moved since. It first
// commits one frame at e, empty, on shard 0 (Raft's no-op entry, USENIX
// ATC 2014, §5.4.2): the gate releases nothing until quorum followers
// hold it, so no read is acknowledged on an older epoch's frame that a
// later primary could still overwrite (DESIGN §13.3). The store is
// fenced first, so no write admitted while this node led before races it.
// Whether e still stands is asked before the frame and again after, so
// only an epoch that moves during the write leaves the frame behind.
func (n *Node) promote(e uint64) {
	standing := func() bool { return !n.stopped && n.epoch == e && n.role != RolePrimary } // under n.mu
	n.mu.Lock()
	ok := standing()
	n.mu.Unlock()
	if !ok {
		return
	}
	err := n.store.Fence(n.stop)
	lsn := n.store.AppliedVector()[0] + 1
	if err == nil {
		err = n.store.ApplyFrame(n.applyTh, &wal.Frame{Epoch: e, Shards: []wal.ShardLSN{{Shard: 0, LSN: lsn}}})
	}
	if err != nil {
		n.cfg.Logf("repl: node %d: commit the frame of epoch %d: %v", n.cfg.NodeID, e, err)
		return
	}
	n.mu.Lock()
	if !standing() {
		n.mu.Unlock()
		return
	}
	n.store.SetEpoch(e) // before any write is admitted: every frame from here on is e's
	n.startLSN = lsn
	n.role = RolePrimary
	n.primaryKV, n.primaryRpl = n.cfg.KVAddr, n.cfg.Advertise
	n.stats.IsPrimary.Store(1)
	n.stats.Promotions.Add(1)
	n.stats.LagFrames.Store(0)
	n.stats.LagMs.Store(0)
	total := n.appliedTotalLocked()
	n.broadcastLocked()
	n.mu.Unlock()
	n.rec.Record(tm.Monotime(), trace.KindReplPromote, 0, e, total)
	n.cfg.Logf("repl: node %d PROMOTED: epoch=%d applied_total=%d", n.cfg.NodeID, e, total)
}

// appliedTotalLocked sums the store's applied vector. (The store read
// takes no node lock; "Locked" marks the call sites' convention.)
func (n *Node) appliedTotalLocked() uint64 {
	return sumVec(n.store.AppliedVector())
}

// AppliedTotal returns the node's applied LSN total.
func (n *Node) AppliedTotal() uint64 {
	return n.appliedTotalLocked()
}

// run is the role loop: follow (subscribe or elect) while a follower,
// park while primary.
func (n *Node) run() {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		if n.stopped {
			n.mu.Unlock()
			return
		}
		role := n.role
		ch := n.waitCh
		if err := n.log.Degraded(); role == RolePrimary && err != nil {
			// A primary whose log stopped can commit nothing more: step
			// down at this epoch so a follower with a working log is
			// elected. Followers ack every message, so this runs within
			// one heartbeat of the stop.
			n.stepDownLocked(fmt.Sprintf("stepped down at epoch %d: its log stopped: %v", n.epoch, err))
			n.broadcastLocked()
			n.mu.Unlock()
			continue
		}
		n.mu.Unlock()
		if role == RolePrimary {
			// Primary duties live in the accept loop; park until deposed,
			// waking periodically to check the lease. A primary nobody
			// dials cannot otherwise learn it has been deposed across a
			// partition (the zombie-primary gap). The probe polls peers
			// once the lease has lapsed and adopts any higher epoch it
			// hears — stepping itself down.
			select {
			case <-ch:
			case <-time.After(n.cfg.LeaseTimeout):
				n.primaryProbe()
			case <-n.stop:
				return
			}
			continue
		}
		n.followOnce()
		// Pace reconnect/election attempts; stagger by node id so two
		// followers don't poll in lockstep forever.
		d := 15*time.Millisecond + time.Duration(n.cfg.NodeID%7)*5*time.Millisecond
		select {
		case <-time.After(d):
		case <-n.stop:
			return
		}
	}
}

// primaryProbe is the primary's deposition detector. When its lease
// has lapsed, the primary polls its peers; a higher epoch in any answer
// means the rest of the cluster elected past us while a partition hid
// it — adopt it (which deposes this node) instead of refusing writes
// forever.
func (n *Node) primaryProbe() {
	n.mu.Lock()
	if n.stopped || n.role != RolePrimary {
		n.mu.Unlock()
		return
	}
	epoch := n.epoch
	held := n.leaseHeldLocked()
	n.mu.Unlock()
	if held {
		return // a quorum is acking our stamps; nobody can elect past us
	}
	n.stats.StepdownProbes.Add(1)

	maxEpoch := epoch
	liveKV, liveRpl := "", ""
	for _, m := range n.pollPeers(&Message{Type: MsgPoll, Epoch: epoch, NodeID: uint16(n.cfg.NodeID)}) {
		if m.Epoch > maxEpoch {
			maxEpoch = m.Epoch
			liveKV, liveRpl = "", ""
		}
		if m.PrimaryLive && m.Epoch == maxEpoch && m.ReplAddr != n.cfg.Advertise {
			liveKV, liveRpl = m.KVAddr, m.ReplAddr
		}
	}
	if maxEpoch > epoch {
		n.cfg.Logf("repl: node %d: stepdown probe found epoch %d > %d", n.cfg.NodeID, maxEpoch, epoch)
		n.mu.Lock()
		n.adoptEpochLocked(maxEpoch, liveKV, liveRpl)
		n.mu.Unlock()
	}
}

// leaseHeldLocked reports whether the primary's lease holds: at least
// quorum followers have acked a stream message this node stamped less
// than LeaseTimeout minus the drift margin ago, by its own monotonic
// clock. A follower stands for election, or tells a candidate the
// primary is dead, only once LeaseTimeout has passed since its newest
// stamp arrived (stand, handleElection), however its stream ended, so
// while the lease holds no majority can elect past this node. Followers
// ack every message and an idle stream still carries heartbeats, so a
// lapse means isolation, a dead quorum or a link too slow for one chunk
// per lease, never idleness. Callers hold n.mu.
func (n *Node) leaseHeldLocked() bool {
	window := uint64(n.cfg.LeaseTimeout - n.cfg.LeaseTimeout/leaseDrift)
	now := trace.Now()
	fresh := 0
	for sub := range n.subs {
		if sub.stamp != 0 && now-sub.stamp < window {
			fresh++
		}
	}
	return fresh >= n.quorum
}

// followOnce makes one attempt at being a follower: subscribe to the
// known primary if there is one, otherwise poll the cluster (adopting a
// discovered primary or promoting if this node should lead). A node
// whose log has stopped does neither: it could apply no stream and
// commit nothing as primary, so until it is restarted it only answers
// polls and votes.
func (n *Node) followOnce() {
	if n.log.Degraded() != nil {
		return
	}
	n.mu.Lock()
	addr := n.primaryRpl
	n.mu.Unlock()
	if addr != "" && addr != n.cfg.Advertise {
		err := n.subscribe(addr)
		if err != nil {
			n.cfg.Logf("repl: node %d: stream from %s ended: %v", n.cfg.NodeID, addr, err)
			// The stream died; forget this primary unless something newer
			// already replaced it.
			n.mu.Lock()
			if n.primaryRpl == addr {
				n.primaryKV, n.primaryRpl = "", ""
			}
			n.mu.Unlock()
		}
		return
	}
	n.runElection()
}

// CheckRequest is the server's replication interposition (wire it into
// server.Config.CheckRequest). It runs on the connection's reader
// goroutine in the listener plane, before admission to the scheduler
// queue — so a follower read parked here waiting for replica catch-up
// stalls only its own connection, never one of the shared executor-pool
// workers. On the primary everything passes while its lease holds;
// once it lapses, writes and tokened reads are refused with
// StatusLagging. On a follower, writes are redirected (StatusNotPrimary names the primary's
// client address) and reads are served at a bounded-staleness cut:
// un-tokened reads serve immediately from local state; a staleness
// token blocks — up to MaxReadWait — until the applied vector covers
// the token's read-your-writes vector AND the replica has confirmed
// (via a primary stamp no older than the lag budget) that its applied
// state was complete at that moment. A lag budget of 0 ms therefore
// forces a post-read-arrival stamp: the strictest bound a
// replica can offer. On expiry the read is refused with StatusLagging
// and the client falls back to the primary.
func (n *Node) CheckRequest(ops []kv.Op, st *server.Staleness) (uint8, string) {
	hasWrite := false
	for i := range ops {
		if ops[i].Kind != kv.OpGet {
			hasWrite = true
			break
		}
	}
	start := time.Now()
	deadline := start.Add(n.cfg.MaxReadWait)
	for {
		n.mu.Lock()
		if n.stopped {
			n.mu.Unlock()
			return server.StatusShutdown, "replication node closed"
		}
		if n.role == RolePrimary {
			if (hasWrite || st != nil) && !n.leaseHeldLocked() {
				// Zombie-primary fence: a primary without a quorum of fresh
				// stamp acks may already be deposed on the other side of
				// a partition. Acking a write here could be split-brain;
				// serving a tokened read could violate read-your-writes
				// against the new epoch's history. Refuse both before they
				// execute (clients fall back to the real primary); untokened
				// reads keep serving local state, like any replica.
				n.mu.Unlock()
				n.stats.LeaseRefusals.Add(1)
				return server.StatusLagging, fmt.Sprintf(
					"primary lease lapsed: fewer than %d followers acked a stamp within the lease interval (partitioned?)", n.quorum)
			}
			n.mu.Unlock()
			return server.StatusOK, ""
		}
		if hasWrite {
			pk := n.primaryKV
			n.mu.Unlock()
			return server.StatusNotPrimary, "primary=" + pk
		}
		if !n.matched {
			// Until a primary has placed this node's log on its own, the
			// state may hold a tail no primary shares (it booted, led once,
			// or is mid-re-seed); refusing reads until then keeps even
			// unbounded replica reads inside the shared history.
			ch := n.waitCh
			n.mu.Unlock()
			now := time.Now()
			if !now.Before(deadline) {
				return server.StatusLagging, "replica has not matched the primary's history yet"
			}
			n.park(ch, deadline.Sub(now))
			continue
		}
		if st == nil {
			n.mu.Unlock()
			return server.StatusOK, ""
		}
		fresh := true
		if st.MaxLagMs != server.NoLagBudget {
			budget := time.Duration(st.MaxLagMs) * time.Millisecond
			fresh = !n.freshAsOf.IsZero() && !n.freshAsOf.Before(start.Add(-budget))
		}
		ch := n.waitCh
		n.mu.Unlock()

		covered := len(st.Vector) == 0 || coversSparse(n.store.AppliedVector(), st.Vector)
		if covered && fresh {
			return server.StatusOK, ""
		}
		now := time.Now()
		if !now.Before(deadline) {
			return server.StatusLagging, fmt.Sprintf(
				"replica lagging: covered=%v fresh=%v lag_frames=%d after %v",
				covered, fresh, n.stats.LagFrames.Load(), now.Sub(start).Round(time.Millisecond))
		}
		n.park(ch, deadline.Sub(now))
	}
}

// commitGate is the store's acknowledgement gate (installed at Start).
// Requests on the primary wait until quorum followers report the commit
// vector applied, and with it the frame promote wrote at this node's
// epoch; a node that is no longer primary fails writes
// outright (the fencing half of failover safety) and releases a read
// only while a primary's handshake has matched its log; the read's
// staleness contract is CheckRequest's job. A read admitted while this
// node led may have observed a commit that was still on its way to
// disk when the node was deposed; deposition clears matched, so that
// read fails with its outcome unknown. Its wall time is the request
// span's repl_gate stage; a gate that passes at once reads no clock.
func (n *Node) commitGate(vec []wal.ShardLSN, wrote bool) error {
	var deadline time.Time // set when the gate first has to wait
	for {
		n.mu.Lock()
		if n.stopped {
			n.mu.Unlock()
			return errors.New("repl: node closed")
		}
		if n.role != RolePrimary {
			matched := n.matched
			n.mu.Unlock()
			if wrote {
				return errors.New("repl: not primary (deposed before the write was replicated)")
			}
			if !matched {
				return errors.New("repl: not primary, and no primary has matched this node's log")
			}
			return nil
		}
		acked := 0
		for sub := range n.subs {
			if len(sub.ackedVec) > 0 && sub.ackedVec[0] >= n.startLSN && coversSparse(sub.ackedVec, vec) {
				acked++
			}
		}
		ch := n.waitCh
		n.mu.Unlock()
		if acked >= n.quorum {
			return nil
		}
		now := time.Now()
		if deadline.IsZero() {
			deadline = now.Add(ackTimeout)
			n.stats.GateWaits.Add(1)
		}
		if !now.Before(deadline) {
			n.stats.GateTimeouts.Add(1)
			return fmt.Errorf("repl: %d/%d follower acks after %v", acked, n.quorum, ackTimeout)
		}
		n.park(ch, deadline.Sub(now))
	}
}

// park blocks until the node's state changes (ch, a waitCh snapshot), the
// node stops, or wait — capped at 25 ms — passes; the caller re-checks
// its condition after.
func (n *Node) park(ch chan struct{}, wait time.Duration) {
	if wait > 25*time.Millisecond {
		wait = 25 * time.Millisecond
	}
	select {
	case <-ch:
	case <-time.After(wait):
	case <-n.stop:
	}
}

// sumVec sums a dense per-shard LSN vector: the total the lag and
// ack-latency accounting compare.
func sumVec(v []uint64) uint64 {
	var t uint64
	for _, x := range v {
		t += x
	}
	return t
}

// coversSparse reports whether the dense applied vector covers every
// entry of the sparse commit vector.
func coversSparse(applied []uint64, vec []wal.ShardLSN) bool {
	for _, sl := range vec {
		if sl.Shard < 0 || sl.Shard >= len(applied) || applied[sl.Shard] < sl.LSN {
			return false
		}
	}
	return true
}

// WriteMetricsz appends the replication Prometheus series: the node's
// identity and role, the counter block (commit-gate waits and timeouts
// among it), and — on the primary — the per-follower lag gauges and
// stamp→ack round-trip histograms.
func (n *Node) WriteMetricsz(w io.Writer) {
	type followerRow struct {
		id         int
		lag        uint64
		lagMs      int64
		sinceAckMs int64
		h          *metrics.Histogram
	}
	var rows []followerRow
	n.mu.Lock()
	role, pk := n.role, n.primaryKV
	if role == RolePrimary {
		stableTotal := sumVec(n.log.StableVector())
		now, stamp := time.Now(), trace.Now()
		for sub := range n.subs {
			r := followerRow{id: sub.nodeID, h: n.ackLat[sub.nodeID]}
			if stableTotal > sub.ackedTotal {
				r.lag = stableTotal - sub.ackedTotal
			}
			if !sub.behindSince.IsZero() {
				r.lagMs = now.Sub(sub.behindSince).Milliseconds()
			}
			if sub.stamp != 0 {
				r.sinceAckMs = time.Duration(stamp - sub.stamp).Milliseconds()
			}
			rows = append(rows, r)
		}
	}
	n.mu.Unlock()
	metrics.Info(w, "nztm_repl_info", "replication node id, role and the primary's client address",
		"node_id", strconv.Itoa(n.cfg.NodeID), "role", role.String(), "primary", pk)
	metrics.GaugeFam(w, "nztm_repl_applied_lsn_sum", "sum over shards of the applied LSN", float64(n.AppliedTotal()))
	n.stats.WriteMetricsz(w)
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	metrics.Head(w, "nztm_repl_follower_lag_lsn", "gauge", "stable LSNs the follower has not acked")
	for _, r := range rows {
		metrics.Gauge(w, "nztm_repl_follower_lag_lsn", float64(r.lag), "follower", strconv.Itoa(r.id))
	}
	metrics.Head(w, "nztm_repl_follower_lag_ms", "gauge", "how long the follower has been behind")
	for _, r := range rows {
		metrics.Gauge(w, "nztm_repl_follower_lag_ms", float64(r.lagMs), "follower", strconv.Itoa(r.id))
	}
	metrics.Head(w, "nztm_repl_follower_since_ack_ms", "gauge", "age of the newest send stamp the follower acked (the lease counts these)")
	for _, r := range rows {
		metrics.Gauge(w, "nztm_repl_follower_since_ack_ms", float64(r.sinceAckMs), "follower", strconv.Itoa(r.id))
	}
	hasAck := false
	for _, r := range rows {
		if r.h != nil {
			hasAck = true
		}
	}
	if !hasAck {
		return
	}
	metrics.Head(w, "nztm_repl_follower_ack_seconds", "histogram", "round trip from a stream message's send stamp to the follower's ack echoing it")
	for _, r := range rows {
		if r.h != nil {
			r.h.WriteHistSamples(w, "nztm_repl_follower_ack_seconds", 1e-9, "follower", strconv.Itoa(r.id))
		}
	}
}
