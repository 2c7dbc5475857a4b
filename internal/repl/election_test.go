package repl

// Election and log-matching tests: one primary per epoch across the
// partitions a poll election got wrong, and the subscribe handshake
// that tells a lagging follower from a diverged one.

import (
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nztm/internal/kv"
	"nztm/internal/server"
	"nztm/internal/tm"
	"nztm/internal/wal"
)

// primaryWatch samples, every millisecond, which nodes are primary at
// which epoch, and fails the test if one epoch ever has two.
type primaryWatch struct {
	mu    sync.Mutex
	nodes []*testNode // nil while a node is down
	seen  map[uint64][]int
}

func watchPrimaries(t *testing.T, nodes []*testNode) *primaryWatch {
	w := &primaryWatch{nodes: slices.Clone(nodes), seen: map[uint64][]int{}}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			w.mu.Lock()
			for _, tn := range w.nodes {
				if role, e := tn.state(); role == RolePrimary && !slices.Contains(w.seen[e], tn.id) {
					w.seen[e] = append(w.seen[e], tn.id)
				}
			}
			w.mu.Unlock()
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	t.Cleanup(func() {
		close(stop)
		<-done
		for e, ids := range w.seen {
			if len(ids) > 1 {
				t.Errorf("epoch %d has %d primaries: nodes %v", e, len(ids), ids)
			}
		}
	})
	return w
}

// set replaces node i's entry (nil: down).
func (w *primaryWatch) set(i int, tn *testNode) {
	w.mu.Lock()
	w.nodes[i] = tn
	w.mu.Unlock()
}

// leasedPrimary waits until one of nodes is primary with its lease held
// and returns it.
func leasedPrimary(t *testing.T, nodes ...*testNode) *testNode {
	t.Helper()
	var p *testNode
	waitFor(t, 10*time.Second, "a leased primary", func() bool {
		for _, tn := range nodes {
			tn.node.mu.Lock()
			ok := tn.node.role == RolePrimary && tn.node.leaseHeldLocked()
			tn.node.mu.Unlock()
			if ok {
				p = tn
				return true
			}
		}
		return false
	})
	return p
}

// putKeys writes k<from>..k<to-1> = v<key> through c and fails the test
// on any write that is not acknowledged.
func putKeys(t *testing.T, c *server.Client, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		key := fmt.Sprintf("k%02d", i)
		_, _, status, msg, err := c.DoVec([]kv.Op{{Kind: kv.OpPut, Key: key, Value: []byte("v" + key)}},
			&server.Staleness{MaxLagMs: server.NoLagBudget})
		if err != nil || status != server.StatusOKVec {
			t.Fatalf("write %s: status=%d msg=%q err=%v", key, status, msg, err)
		}
	}
}

// missingKeys reads k00..k<n-1> on tn and lists those that do not read
// back as written by putKeys.
func missingKeys(t *testing.T, tn *testNode, n int) []string {
	t.Helper()
	c, err := server.Dial(tn.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var missing []string
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%02d", i)
		r, err := c.Get(key)
		if err != nil {
			t.Fatalf("read %s on node %d: %v", key, tn.id, err)
		}
		if !r.Found || string(r.Value) != "v"+key {
			missing = append(missing, key)
		}
	}
	return missing
}

// caughtUp waits until every node has applied what p has.
func caughtUp(t *testing.T, p *testNode, nodes ...*testNode) {
	t.Helper()
	waitFor(t, 5*time.Second, "every follower caught up", func() bool {
		for _, tn := range nodes {
			if tn.node.AppliedTotal() != p.node.AppliedTotal() {
				return false
			}
		}
		return true
	})
}

// offline opens the crashed node tn's data dir as a bare store, runs fn
// on it and closes it again.
func offline(t *testing.T, tn *testNode, fn func(st *kv.Store, th *tm.Thread)) {
	t.Helper()
	b, err := kv.OpenBackend("nzstm", 2)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := kv.NewDurable(b.Sys, tn.opts.shards, 4, kv.Durability{Dir: tn.opts.dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	th := b.NewThread()
	fn(st, th)
	th.Close()
	st.Close()
}

// cutMidReseed leaves the crashed node tn as a kill mid-re-seed would:
// its re-seed file written with the history from before the drop, then
// every shard's re-seed install done (the first dropped the segment
// chain), the file not yet removed. It returns the file's path.
func cutMidReseed(t *testing.T, tn *testNode) string {
	t.Helper()
	path := filepath.Join(tn.opts.dir, reseedFile)
	offline(t, tn, func(st *kv.Store, th *tm.Thread) {
		lsns, epochs := st.WAL().StableEpochs()
		var last, total uint64
		for s, lsn := range lsns {
			last, total = max(last, epochs[s]), total+lsn
		}
		if err := os.WriteFile(path, fmt.Appendf(nil, "%d %d\n", last, total), 0o644); err != nil {
			t.Fatal(err)
		}
		for s := range lsns {
			lsn, keys, err := st.SnapshotShard(th, s)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.LoadShardSnapshot(th, s, lsn, epochs[s], keys, true); err != nil {
				t.Fatal(err)
			}
		}
	})
	return path
}

// matched reads the node's matched bit.
func (tn *testNode) matched() bool {
	tn.node.mu.Lock()
	defer tn.node.mu.Unlock()
	return tn.node.matched
}

// TestOnePrimaryPerEpochAcrossABridge is the partition a poll election
// gets wrong: on 5 nodes, nodes 1 and 2 are cut off from each other
// while both still reach 3 and 4, and the primary dies. Each of 1 and 2
// sees a majority with no live primary, and their dials take 10 ms, so
// their elections overlap and both stand at the same epoch; one vote
// per voter per epoch lets at most one of them win it. Every write the
// winner acks must then survive its death too.
func TestOnePrimaryPerEpochAcrossABridge(t *testing.T) {
	var slow atomic.Bool
	nodes, addrs, parts := startCluster(t, 5, func(i int, o *nodeOpts) {
		if i == 1 || i == 2 {
			dial := o.dial
			o.dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
				if slow.Load() {
					time.Sleep(10 * time.Millisecond)
				}
				return dial(network, addr, timeout)
			}
		}
	})
	w := watchPrimaries(t, nodes)
	p := nodes[0]
	waitLease(t, p)
	c, err := server.Dial(p.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	putKeys(t, c, 0, 10)
	caughtUp(t, p, nodes...)

	if err := parts[1].Block(addrs[2], "both"); err != nil {
		t.Fatal(err)
	}
	if err := parts[2].Block(addrs[1], "both"); err != nil {
		t.Fatal(err)
	}
	slow.Store(true)
	w.set(0, nil)
	p.kill()
	p = leasedPrimary(t, nodes[1:]...)
	cl, err := DialCluster(ClusterConfig{Addrs: kvAddrs(nodes[1:]), RetryFor: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 10; i < 30; i++ {
		key := fmt.Sprintf("k%02d", i)
		if _, err := cl.Write([]kv.Op{{Kind: kv.OpPut, Key: key, Value: []byte("v" + key)}}); err != nil {
			t.Fatalf("write %s: %v", key, err)
		}
	}

	// The winner dies too; the bridge heals so that any two of the three
	// left can make a majority.
	parts[1].HealAll()
	parts[2].HealAll()
	w.set(p.id, nil)
	p.kill()
	var rest []*testNode
	for _, tn := range nodes[1:] {
		if tn != p {
			rest = append(rest, tn)
		}
	}
	p = leasedPrimary(t, rest...)
	if missing := missingKeys(t, p, 30); len(missing) > 0 {
		t.Errorf("%d of 30 acked keys missing on node %d: %v", len(missing), p.id, missing)
	}
}

// TestDeposedPrimaryRejoinsWithoutSnapshots: a primary cut off from both
// followers is deposed after every frame it wrote reached them. Once
// healed, its (LSN, epoch) pairs are all on the winner's log, so it
// resumes the stream where it stands: no snapshot and no re-seed.
func TestDeposedPrimaryRejoinsWithoutSnapshots(t *testing.T) {
	nodes, addrs, parts := startCluster(t, 3, nil)
	p := nodes[0]
	waitLease(t, p)
	c, err := server.Dial(p.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	putKeys(t, c, 0, 10)
	caughtUp(t, p, nodes...)

	for j := 1; j < 3; j++ {
		if err := parts[0].Block(addrs[j], "both"); err != nil {
			t.Fatal(err)
		}
		if err := parts[j].Block(addrs[0], "both"); err != nil {
			t.Fatal(err)
		}
	}
	np := leasedPrimary(t, nodes[1:]...)
	for _, pt := range parts {
		pt.HealAll()
	}
	waitFor(t, 5*time.Second, "the deposed primary to match the winner's log", func() bool {
		return p.node.Role() == RoleFollower && p.matched()
	})
	nc, err := server.Dial(np.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	putKeys(t, nc, 10, 11)
	caughtUp(t, np, p)
	if got := p.node.Stats().SnapshotsLoaded.Load(); got != 0 {
		t.Errorf("the deposed primary loaded %d snapshots, want 0", got)
	}
	if got := np.node.Stats().Resyncs.Load(); got != 0 {
		t.Errorf("the winner re-seeded %d followers, want 0", got)
	}
	if missing := missingKeys(t, p, 11); len(missing) > 0 {
		t.Errorf("%d of 11 keys missing on the deposed primary: %v", len(missing), missing)
	}
}

// TestDivergedFollowerIsReseeded: on 5 nodes, a follower applied a
// frame the winner never saw (here appended to its log while it was
// down, as the old primary would have shipped it to that follower
// alone), and the winner then wrote the same LSN at its own epoch. The
// follower's pair for that shard is off the winner's log, so it is
// re-seeded on subscribe, and it never serves the lost value.
func TestDivergedFollowerIsReseeded(t *testing.T) {
	nodes, _, _ := startCluster(t, 5, nil)
	p, f := nodes[0], nodes[1]
	waitLease(t, p)
	c, err := server.Dial(p.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	putKeys(t, c, 0, 10)
	caughtUp(t, p, nodes...)

	f.crash()
	offline(t, f, func(st *kv.Store, th *tm.Thread) {
		st.SetEpoch(p.node.Epoch())
		if _, err := st.Do(th, []kv.Op{{Kind: kv.OpPut, Key: "x", Value: []byte("lost")}}, kv.Budget{}); err != nil {
			t.Fatal(err)
		}
	})

	p.kill()
	np := leasedPrimary(t, nodes[2:]...)
	nc, err := server.Dial(np.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Put("x", []byte("kept")); err != nil {
		t.Fatal(err)
	}

	f = f.reboot(t)
	fc, err := server.Dial(f.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	var served []string
	waitFor(t, 10*time.Second, "the follower's re-seed", func() bool {
		if r, err := fc.Get("x"); err == nil {
			served = append(served, string(r.Value))
		}
		return f.matched() && f.node.AppliedTotal() >= np.node.AppliedTotal()
	})
	if slices.Contains(served, "lost") {
		t.Errorf("the diverged follower served the lost value: %q", served)
	}
	if r, err := fc.Get("x"); err != nil || string(r.Value) != "kept" {
		t.Errorf("x on the re-seeded follower = %q, %v; want %q", r.Value, err, "kept")
	}
	if got := f.node.Stats().SnapshotsLoaded.Load(); got != uint64(f.opts.shards) {
		t.Errorf("the follower loaded %d snapshots, want a re-seed of all %d shards", got, f.opts.shards)
	}
	if missing := missingKeys(t, f, 10); len(missing) > 0 {
		t.Errorf("%d of 10 keys missing on the re-seeded follower: %v", len(missing), missing)
	}
}

// TestReseedRestartStandsAside: a node killed mid-re-seed — after the
// installs that dropped its segment chain, before its re-seed file came
// off (built here on its data dir while it is down) — restarts with the
// file. Its log holds every write, so only the file keeps it from
// standing: it must win no election while the file exists, then finish
// the re-seed from the winner.
func TestReseedRestartStandsAside(t *testing.T) {
	nodes, _, _ := startCluster(t, 5, nil)
	w := watchPrimaries(t, nodes)
	p, f := nodes[0], nodes[1]
	waitLease(t, p)
	c, err := server.Dial(p.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	putKeys(t, c, 0, 10)
	caughtUp(t, p, nodes...)

	w.set(f.id, nil)
	f.crash()
	reseed := cutMidReseed(t, f)

	w.set(p.id, nil)
	p.kill()
	f = f.reboot(t)
	w.set(f.id, f)
	var mu sync.Mutex
	var stood []uint64 // epochs at which f was primary with its file in place
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			role, e := f.state()
			if _, err := os.Stat(reseed); err == nil && role == RolePrimary {
				mu.Lock()
				stood = append(stood, e)
				mu.Unlock()
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	np := leasedPrimary(t, nodes[2:]...)
	waitFor(t, 10*time.Second, "the restarted node to finish its re-seed", func() bool {
		_, err := os.Stat(reseed)
		return os.IsNotExist(err) && f.matched() && f.node.AppliedTotal() >= np.node.AppliedTotal()
	})
	close(stop)
	<-done
	if len(stood) > 0 {
		t.Errorf("the node mid-re-seed was primary with its re-seed file at epochs %v", stood)
	}
	if got := f.node.Stats().SnapshotsLoaded.Load(); got != uint64(f.opts.shards) {
		t.Errorf("the restarted node loaded %d snapshots, want all %d shards", got, f.opts.shards)
	}
	if missing := missingKeys(t, f, 10); len(missing) > 0 {
		t.Errorf("%d of 10 keys missing after the re-seed: %v", len(missing), missing)
	}
}

// TestReseedingNodeVotes: on 3 nodes, the primary dies while a follower
// is mid-re-seed (as TestReseedRestartStandsAside leaves it). That node
// never stands, but it judges the last node's candidacy by the history
// its re-seed file recorded, so the last node wins with its vote and
// the re-seed then finishes from it.
func TestReseedingNodeVotes(t *testing.T) {
	nodes, _, _ := startCluster(t, 3, nil)
	w := watchPrimaries(t, nodes)
	p, f := nodes[0], nodes[1]
	waitLease(t, p)
	c, err := server.Dial(p.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	putKeys(t, c, 0, 10)
	caughtUp(t, p, nodes...)

	w.set(f.id, nil)
	f.crash()
	reseed := cutMidReseed(t, f)
	w.set(p.id, nil)
	p.kill()
	f = f.reboot(t)
	w.set(f.id, f)
	np := leasedPrimary(t, nodes[2])
	waitFor(t, 10*time.Second, "the restarted node to finish its re-seed", func() bool {
		_, err := os.Stat(reseed)
		return os.IsNotExist(err) && f.matched() && f.node.AppliedTotal() >= np.node.AppliedTotal()
	})
	if f.node.Stats().Promotions.Load() != 0 {
		t.Error("the node mid-re-seed stood and won")
	}
	if missing := missingKeys(t, f, 10); len(missing) > 0 {
		t.Errorf("%d of 10 keys missing after the re-seed: %v", len(missing), missing)
	}
}

// TestLaggingFollowerCatchesUpPerShard: the whole cluster restarts after
// snapshots, so the primary's log knows no epoch below each shard's
// snapshot. A follower that was down while one shard moved on offers a
// pair below that shard's snapshot: it is caught up with that shard's
// snapshot alone, keeps its log and is never re-seeded.
func TestLaggingFollowerCatchesUpPerShard(t *testing.T) {
	nodes, _, _ := startCluster(t, 3, nil)
	p, f := nodes[0], nodes[2]
	waitLease(t, p)
	c, err := server.Dial(p.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	putKeys(t, c, 0, 10)
	caughtUp(t, p, nodes...)
	f.crash()
	for i := 0; i < 5; i++ { // one key: one shard moves on
		if _, err := c.Put("y", []byte(fmt.Sprint("y", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	caughtUp(t, p, nodes[1])

	for _, tn := range nodes[:2] {
		tn.crash()
		offline(t, tn, func(st *kv.Store, th *tm.Thread) {
			for s := 0; s < st.Shards(); s++ {
				lsn, keys, err := st.SnapshotShard(th, s)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.WAL().Snapshot(s, lsn, keys); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	n0, n1 := nodes[0].reboot(t), nodes[1].reboot(t)
	np := leasedPrimary(t, n0, n1)
	f = f.reboot(t)
	waitFor(t, 10*time.Second, "the lagging follower to catch up", func() bool {
		return f.matched() && f.node.AppliedTotal() >= np.node.AppliedTotal()
	})
	if got := f.node.Stats().SnapshotsLoaded.Load(); got != 1 {
		t.Errorf("the lagging follower loaded %d snapshots, want 1 (the shard that moved on)", got)
	}
	if got := f.node.Stats().Resyncs.Load() + np.node.Stats().Resyncs.Load(); got != 0 {
		t.Errorf("%d re-seeds, want 0", got)
	}
	if _, err := os.Stat(filepath.Join(f.opts.dir, reseedFile)); !os.IsNotExist(err) {
		t.Errorf("the lagging follower has a %s file (%v)", reseedFile, err)
	}
	if missing := missingKeys(t, f, 10); len(missing) > 0 {
		t.Errorf("%d of 10 keys missing on the follower: %v", len(missing), missing)
	}
	fc, err := server.Dial(f.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if r, err := fc.Get("y"); err != nil || string(r.Value) != "y4" {
		t.Errorf("y on the follower = %q, %v; want %q", r.Value, err, "y4")
	}
}

// holdFS is the real filesystem with one armed write held before it
// starts: the first write after arming closes held and waits for
// release.
type holdFS struct {
	wal.FS
	armed         *atomic.Bool
	held, release chan struct{}
}

func (f holdFS) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return holdFile{file, f}, nil
}

type holdFile struct {
	wal.File
	fs holdFS
}

func (f holdFile) Write(p []byte) (int, error) {
	if f.fs.armed.CompareAndSwap(true, false) {
		close(f.fs.held)
		<-f.fs.release
	}
	return f.File.Write(p)
}

// TestDeposedPrimaryInFlightWriteIsNotServed: a primary's write commits
// in memory and is held on its way to disk, so its stable vector stays
// behind what the store holds; the primary is cut off and deposed, and
// the winner writes the same key. The deposed node's subscribe waits
// for the held write, so its pairs name it, are off the winner's log,
// and the node is re-seeded: it never serves the write the cluster did
// not commit.
func TestDeposedPrimaryInFlightWriteIsNotServed(t *testing.T) {
	var armed atomic.Bool
	held, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unhold := func() { releaseOnce.Do(func() { close(release) }) }
	defer unhold()
	nodes, addrs, parts := startCluster(t, 3, func(i int, o *nodeOpts) {
		if i == 0 {
			o.fs = holdFS{FS: wal.OSFS(), armed: &armed, held: held, release: release}
		}
	})
	p := nodes[0]
	waitLease(t, p)
	c, err := server.Dial(p.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	putKeys(t, c, 0, 10)
	caughtUp(t, p, nodes...)

	armed.Store(true)
	go c.Put("x", []byte("lost")) // fails: the node is deposed before it is replicated
	<-held
	for j := 1; j < 3; j++ {
		if err := parts[0].Block(addrs[j], "both"); err != nil {
			t.Fatal(err)
		}
		if err := parts[j].Block(addrs[0], "both"); err != nil {
			t.Fatal(err)
		}
	}
	np := leasedPrimary(t, nodes[1:]...)
	nc, err := server.Dial(np.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Put("x", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	for _, pt := range parts {
		pt.HealAll()
	}
	waitFor(t, 5*time.Second, "the old primary's deposition", func() bool {
		return p.node.Role() == RoleFollower
	})
	time.Sleep(100 * time.Millisecond) // time enough to subscribe, were it not waiting for the write
	unhold()

	fc, err := server.Dial(p.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	var served []string
	waitFor(t, 10*time.Second, "the deposed primary to rejoin", func() bool {
		if r, err := fc.Get("x"); err == nil {
			served = append(served, string(r.Value))
		}
		return p.matched() && p.node.AppliedTotal() >= np.node.AppliedTotal()
	})
	if slices.Contains(served, "lost") {
		t.Errorf("the deposed primary served its uncommitted write: %q", served)
	}
	if r, err := fc.Get("x"); err != nil || string(r.Value) != "kept" {
		t.Errorf("x on the deposed primary = %q, %v; want %q", r.Value, err, "kept")
	}
}
