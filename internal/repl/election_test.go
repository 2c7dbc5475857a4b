package repl

// Election and log-matching tests: one primary per epoch across the
// partitions a poll election got wrong, and the subscribe handshake
// that tells a lagging follower from a diverged one.

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"nztm/internal/fault"
	"nztm/internal/kv"
	"nztm/internal/server"
	"nztm/internal/tm"
	"nztm/internal/trace"
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
			container, err := st.WAL().SnapshotContainer(s, lsn, keys)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := st.LoadShardSnapshot(th, container, true); err != nil {
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

// pause stops the first goroutine that passes it once armed, until let.
type pause struct {
	armed      atomic.Bool
	at, resume chan struct{}
	once       sync.Once
}

func newPause(t *testing.T) *pause {
	p := &pause{at: make(chan struct{}), resume: make(chan struct{})}
	t.Cleanup(p.let)
	return p
}

func (p *pause) pass() {
	if p.armed.CompareAndSwap(true, false) {
		close(p.at)
		<-p.resume
	}
}

func (p *pause) let() { p.once.Do(func() { close(p.resume) }) }

func (p *pause) reached(t *testing.T, what string) {
	t.Helper()
	select {
	case <-p.at:
	case <-time.After(5 * time.Second):
		t.Fatalf("never reached %s", what)
	}
}

// renamePauseFS pauses the rename that publishes the record name.
type renamePauseFS struct {
	wal.FS
	name string
	p    *pause
}

func (f renamePauseFS) Rename(oldpath, newpath string) error {
	if filepath.Base(newpath) == f.name {
		f.p.pass()
	}
	return f.FS.Rename(oldpath, newpath)
}

// holdFS is the real filesystem with one armed write held before it
// starts, at p.
type holdFS struct {
	wal.FS
	p *pause
}

func (f holdFS) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return holdFile{file, f.p}, nil
}

type holdFile struct {
	wal.File
	p *pause
}

func (f holdFile) Write(p []byte) (int, error) {
	f.p.pass()
	return f.File.Write(p)
}

// deposeWithWriteHeld boots 3 nodes whose first primary, node 0, holds
// its next WAL write, and writes x = "lost" through it: that write
// commits in memory and is held on its way to disk, so the primary's
// stable vector stays behind what its store holds. Once the write is
// held it runs whileHeld, cuts the primary off until the others elect a
// primary that writes x = "kept", heals the cut, waits for the old
// primary's deposition, and lets the held write go. It returns the old
// and the new primary. node0, when set, adjusts node 0's options.
func deposeWithWriteHeld(t *testing.T, node0 func(o *nodeOpts), whileHeld func(p *testNode)) (*testNode, *testNode) {
	t.Helper()
	hold := newPause(t)
	nodes, addrs, parts := startCluster(t, 3, func(i int, o *nodeOpts) {
		if i == 0 {
			o.fs = holdFS{FS: wal.OSFS(), p: hold}
			if node0 != nil {
				node0(o)
			}
		}
	})
	p := nodes[0]
	waitLease(t, p)
	c, err := server.Dial(p.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	putKeys(t, c, 0, 10)
	caughtUp(t, p, nodes...)

	hold.armed.Store(true)
	go c.Put("x", []byte("lost")) // fails: the node is deposed before it is replicated
	hold.reached(t, "the write's hold")
	whileHeld(p)
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
	hold.let()
	return p, np
}

// TestDeposedPrimaryInFlightWriteIsNotServed: the deposed node's
// subscribe waits for the held write (deposeWithWriteHeld), so its
// pairs name it, are off the winner's log, and the node is re-seeded:
// it never serves the write the cluster did not commit.
func TestDeposedPrimaryInFlightWriteIsNotServed(t *testing.T) {
	p, np := deposeWithWriteHeld(t, nil, func(*testNode) {})
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

// TestDeposedPrimaryInFlightReadIsNotServed: a read of x that the
// primary admits while its write of x is held (deposeWithWriteHeld)
// observes that write and waits for it to be stable. That wait ends on
// a node that has been deposed and that no primary has matched, so the
// commit gate fails the read: it never returns the write the cluster
// did not commit.
func TestDeposedPrimaryInFlightReadIsNotServed(t *testing.T) {
	type answer struct {
		r   kv.Result
		err error
	}
	read := make(chan answer, 1)
	deposeWithWriteHeld(t, nil, func(p *testNode) {
		rc, err := server.Dial(p.kvLn.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rc.Close() })
		dispatched := p.srv.SchedStats().Dispatched.Load()
		go func() {
			r, err := rc.Get("x")
			read <- answer{r, err}
		}()
		waitFor(t, 5*time.Second, "the read past admission while the node leads", func() bool {
			return p.srv.SchedStats().Dispatched.Load() > dispatched
		})
	})
	select {
	case a := <-read:
		if a.err == nil && string(a.r.Value) == "lost" {
			t.Errorf("the deposed primary served a read of its uncommitted write: x = %q", a.r.Value)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the read never answered")
	}
}

// TestReadHeldPastAReseedIsNotServed: a read of x that the primary
// passes while its write of x is held (deposeWithWriteHeld) is held
// again just before the commit gate, as a descheduled goroutine would
// be, until the deposed node has been re-seeded and matched again. Were
// it released then, it would pass the gate with the value the cluster
// never committed; the re-seed's installs fail it instead.
//   - "at the gate": the read is admitted while the node leads, so it
//     observes the held write and waits for it to be stable.
//   - "before admission": the read is held after CheckRequest passed it,
//     and admitted only after the subscribe's fence, while the re-seed
//     writes its mark. Its transaction then reads the uncommitted write
//     from memory, and the stability wait passes, the fence having put
//     that write's frame in the log.
func TestReadHeldPastAReseedIsNotServed(t *testing.T) {
	type answer struct {
		r   kv.Result
		err error
	}
	for _, beforeAdmission := range []bool{false, true} {
		name := map[bool]string{false: "at the gate", true: "before admission"}[beforeAdmission]
		t.Run(name, func(t *testing.T) {
			read := make(chan answer, 1)
			gate, admit, reseed := newPause(t), newPause(t), newPause(t)
			var node0 func(o *nodeOpts)
			if beforeAdmission {
				node0 = func(o *nodeOpts) {
					o.fs = renamePauseFS{FS: o.fs, name: reseedFile, p: reseed}
					o.admitted = func(ops []kv.Op) {
						if len(ops) == 1 && ops[0].Kind == kv.OpGet {
							admit.pass()
						}
					}
				}
			}
			p, _ := deposeWithWriteHeld(t, node0, func(p *testNode) {
				gate.armed.Store(true)
				p.store.SetCommitGate(func(vec []wal.ShardLSN, wrote bool) error {
					if !wrote {
						gate.pass()
					}
					return p.node.commitGate(vec, wrote)
				})
				rc, err := server.Dial(p.kvLn.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { rc.Close() })
				admit.armed.Store(beforeAdmission)
				dispatched := p.srv.SchedStats().Dispatched.Load()
				go func() {
					r, err := rc.Get("x")
					read <- answer{r, err}
				}()
				if beforeAdmission {
					admit.reached(t, "the read's hold after CheckRequest")
					reseed.armed.Store(true)
					return
				}
				waitFor(t, 5*time.Second, "the read past admission while the node leads", func() bool {
					return p.srv.SchedStats().Dispatched.Load() > dispatched
				})
			})
			if beforeAdmission {
				reseed.reached(t, "the re-seed mark's rename")
				admit.let()
				gate.reached(t, "the commit gate")
				reseed.let()
				waitFor(t, 10*time.Second, "the re-seed to match the node", p.matched)
			} else {
				gate.reached(t, "the commit gate")
				deadline := time.Now().Add(2 * time.Second)
				for !p.matched() && time.Now().Before(deadline) {
					time.Sleep(5 * time.Millisecond)
				}
			}
			gate.let()
			select {
			case a := <-read:
				if a.err == nil && string(a.r.Value) == "lost" {
					t.Errorf("a read held past the re-seed served the uncommitted write: x = %q", a.r.Value)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the read never answered")
			}
			waitFor(t, 10*time.Second, "the deposed node to rejoin once the read answered", p.matched)
		})
	}
}

// TestStoppedPrimaryIsFailedOver: the primary's disk starts failing
// every write, so its log stops and it can commit nothing more. It steps
// down at its epoch, which ends its streams and its lease, and never
// stands again; a follower is elected, and a cluster client's write
// succeeds there.
func TestStoppedPrimaryIsFailedOver(t *testing.T) {
	var probs [fault.DiskSiteCount]float64
	probs[fault.DiskWriteEIO] = 1
	disk := fault.NewDisk(fault.DiskConfig{Probs: probs, Output: io.Discard})
	nodes, _, _ := startCluster(t, 3, func(i int, o *nodeOpts) {
		if i == 0 {
			o.fs = disk
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

	disk.Arm()
	if _, err := c.Put("x", []byte("never")); err == nil {
		t.Fatal("a write was acknowledged by a primary whose disk fails every write")
	}
	if p.store.WAL().Degraded() == nil {
		t.Fatal("the primary's log did not stop")
	}
	np := leasedPrimary(t, nodes[1:]...)
	if role, _ := p.state(); role == RolePrimary {
		t.Fatal("the stopped node is primary again")
	}
	cl, err := DialCluster(ClusterConfig{Addrs: kvAddrs(nodes), RetryFor: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Write([]kv.Op{{Kind: kv.OpPut, Key: "y", Value: []byte("after")}}); err != nil {
		t.Fatalf("write after the failover: %v", err)
	}
	if got := cl.Primary(); got != np.kvLn.Addr().String() {
		t.Errorf("the cluster client wrote through %s, want the new primary %s", got, np.kvLn.Addr())
	}
	if missing := missingKeys(t, np, 10); len(missing) > 0 {
		t.Errorf("%d of 10 keys missing on the new primary: %v", len(missing), missing)
	}
}

// TestCatchUpInstallsThePrimarysContainer: a follower the primary's log
// no longer reaches back to is caught up with snapshots, and the file
// each install leaves is byte for byte the container the primary's WAL
// built. One shard holds a value over a chunk, so its container crossed
// the wire in several chunks.
func TestCatchUpInstallsThePrimarysContainer(t *testing.T) {
	nodes, _, _ := startCluster(t, 3, nil)
	p, f := nodes[0], nodes[2]
	waitLease(t, p)
	c, err := server.Dial(p.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	putKeys(t, c, 0, 10)
	caughtUp(t, p, nodes...)

	f.crash()
	// The big frame crosses in stamped chunks, so the lease holds while it
	// does and the writes after it are acked at once.
	if _, err := c.Put("big", bytes.Repeat([]byte("b"), chunkBytes+1<<10)); err != nil {
		t.Fatal(err)
	}
	putKeys(t, c, 10, 20)
	seal(t, p) // the log drops every frame f lacks
	th := p.b.NewThread()
	defer th.Close()
	f = f.reboot(t)
	waitFor(t, 10*time.Second, "the follower to catch up", func() bool {
		return f.matched() && f.node.AppliedTotal() >= p.node.AppliedTotal()
	})
	files, err := filepath.Glob(filepath.Join(f.opts.dir, "snap-*.snap"))
	if err != nil || len(files) == 0 {
		t.Fatalf("the follower caught up with no snapshot file (%v)", err)
	}
	chunked := false
	for _, path := range files {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		shard, lsn, _, _, err := wal.DecodeSnapshot(got)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		plsn, keys, err := p.store.SnapshotShard(th, shard)
		if err != nil || plsn != lsn {
			t.Fatalf("shard %d: the primary is at %d (%v), the install at %d", shard, plsn, err, lsn)
		}
		want, err := p.store.WAL().SnapshotContainer(shard, lsn, keys)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes differ from the primary's %d-byte container", filepath.Base(path), len(got), len(want))
		}
		chunked = chunked || len(got) > chunkBytes
	}
	if !chunked {
		t.Error("no container crossed in more than one chunk")
	}
}

// seal snapshots every shard of tn into its log, which drops the frames
// the snapshots cover.
func seal(t *testing.T, tn *testNode) {
	t.Helper()
	th := tn.b.NewThread()
	defer th.Close()
	for s := 0; s < tn.store.Shards(); s++ {
		lsn, keys, err := tn.store.SnapshotShard(th, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := tn.store.WAL().Snapshot(s, lsn, keys); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCatchUpReadsWaitForTheInstall: a follower's one shard ends in a
// frame no primary holds, at an LSN below what the primary's log
// reaches back to, so the primary cannot tell the frame from its own:
// it catches the shard up with a snapshot, which replaces the frame.
// Until that snapshot is installed the follower serves no read, or it
// could return the frame's value. The snapshot crosses a slow link in
// chunks; the follower reads the frame's key all the while.
func TestCatchUpReadsWaitForTheInstall(t *testing.T) {
	var slow atomic.Bool
	nodes, _, _ := startCluster(t, 3, func(i int, o *nodeOpts) {
		o.shards = 1
		o.leaseTimeout = time.Second // a chunk crosses the slow link inside it
		if i == 2 {
			throttle(o, 4<<20, &slow)
		}
	})
	p, f := nodes[0], nodes[2]
	waitLease(t, p)
	c, err := server.Dial(p.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	putKeys(t, c, 0, 5)
	caughtUp(t, p, nodes...)

	f.crash()
	offline(t, f, func(st *kv.Store, th *tm.Thread) {
		st.SetEpoch(p.node.Epoch())
		if _, err := st.Do(th, []kv.Op{{Kind: kv.OpPut, Key: "x", Value: []byte("lost")}}, kv.Budget{}); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := c.Put("big", bytes.Repeat([]byte("b"), 4*chunkBytes)); err != nil {
		t.Fatal(err)
	}
	putKeys(t, c, 5, 10)
	caughtUp(t, p, nodes[1])
	// Sealed and restarted, neither log knows the epoch at the
	// follower's LSN any more.
	for i := range 2 {
		seal(t, nodes[i])
		nodes[i].crash()
	}
	for i := range 2 {
		nodes[i] = nodes[i].reboot(t)
	}
	leasedPrimary(t, nodes[:2]...)

	slow.Store(true)
	f = f.reboot(t)
	cf, err := server.Dial(f.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	reads := 0
	for f.node.Stats().SnapshotsLoaded.Load() == 0 {
		// A read the follower cannot serve yet waits out MaxReadWait and
		// fails.
		r, err := cf.Get("x")
		if err == nil && r.Found {
			t.Fatalf("the follower served x = %q before its catch-up snapshot was installed", r.Value)
		}
		reads++
	}
	if reads < 2 {
		t.Fatalf("the snapshot was installed after %d reads: the link is too fast to test anything", reads)
	}
	waitFor(t, 10*time.Second, "the follower's reads", f.matched)
	if r, err := cf.Get("x"); err != nil || r.Found {
		t.Errorf("after the catch-up, x reads found=%v %q (%v), want not found", r.Found, r.Value, err)
	}
}

// slowConn reads at rate bytes a second while it has bytes to read,
// and saves up no credit while it has none.
type slowConn struct {
	net.Conn
	rate int
	next time.Time // when the bytes read so far are paid for
}

func (c *slowConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b[:min(len(b), 64<<10)])
	if now := time.Now(); c.next.Before(now) {
		c.next = now
	}
	c.next = c.next.Add(time.Duration(n) * time.Second / time.Duration(c.rate))
	time.Sleep(time.Until(c.next))
	return n, err
}

// throttle makes the connections o dials while slow is set read at rate
// bytes a second.
func throttle(o *nodeOpts, rate int, slow *atomic.Bool) {
	dial := o.dial
	o.dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
		c, err := dial(network, addr, timeout)
		if err != nil || !slow.Load() {
			return c, err
		}
		return &slowConn{Conn: c, rate: rate}, nil
	}
}

// split blocks traffic both ways between every node of a and every node
// of b.
func split(t *testing.T, parts []*fault.Partitions, addrs []string, a, b []int) {
	t.Helper()
	for _, i := range a {
		for _, j := range b {
			if err := parts[i].Block(addrs[j], "both"); err != nil {
				t.Fatal(err)
			}
			if err := parts[j].Block(addrs[i], "both"); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestBigFrameCrossesUnderTheLease: the one follower reads through a
// link that needs longer than LeaseTimeout to carry one frame, a value
// of 15 chunks. The frame crosses in stamped chunks, each acked as it
// lands, so the follower's stream never breaks and the primary's lease,
// which rests on that follower alone, never lapses. (The write itself
// may outlast the commit gate's wait; the commit stands either way.)
func TestBigFrameCrossesUnderTheLease(t *testing.T) {
	const lease = 2 * time.Second
	var slow atomic.Bool
	slow.Store(true)
	nodes, _, _ := startCluster(t, 2, func(i int, o *nodeOpts) {
		o.leaseTimeout = lease
		if i == 1 {
			throttle(o, 6<<20, &slow) // the value takes 2.5 s
		}
	})
	p, f := nodes[0], nodes[1]
	waitLease(t, p)
	subs := p.node.Stats().Subscribes.Load()
	c, err := server.Dial(p.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var samples, lapses int
	var oldest time.Duration // the oldest acked stamp the lease rested on
	start, before := time.Now(), p.node.AppliedTotal()
	go c.Put("big", bytes.Repeat([]byte("b"), 15*chunkBytes))
	waitFor(t, 30*time.Second, "the follower to apply the big write", func() bool {
		p.node.mu.Lock()
		defer p.node.mu.Unlock()
		samples++
		if !p.node.leaseHeldLocked() {
			lapses++
		}
		for sub := range p.node.subs {
			oldest = max(oldest, time.Duration(trace.Now()-sub.stamp))
		}
		return p.node.AppliedTotal() > before && f.node.AppliedTotal() == p.node.AppliedTotal()
	})
	took := time.Since(start)
	if took < lease {
		t.Fatalf("the follower applied the big write in %v, under the lease (%v): the link is too fast to test anything", took, lease)
	}
	if lapses > 0 {
		t.Errorf("the primary's lease lapsed in %d of %d samples while the frame crossed in %v (oldest acked stamp %v)",
			lapses, samples, took, oldest)
	}
	if got := p.node.Stats().Subscribes.Load() - subs; got != 0 {
		t.Errorf("the follower subscribed %d more times while the frame crossed", got)
	}
	t.Logf("the frame crossed in %v; oldest acked stamp %v", took, oldest)
}

// TestCatchUpPastMaxFrame: a follower that missed two writes of 9 MiB
// catches up on one subscription. Together the two frames are over the
// transport's server.MaxFrame, so they must not cross as one message.
// The primary reads a whole frame off its log before it sends a chunk of
// it, which under the race detector takes longer than the tests' usual
// 120 ms lease: the lease here is 1 s.
func TestCatchUpPastMaxFrame(t *testing.T) {
	nodes, _, _ := startCluster(t, 3, func(i int, o *nodeOpts) { o.leaseTimeout = time.Second })
	p, f := nodes[0], nodes[2]
	waitLease(t, p)
	c, err := server.Dial(p.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f.crash()
	for _, key := range []string{"bigA", "bigB"} {
		// The write may outlast the commit gate's wait (under the race
		// detector); the commit stands either way.
		c.Put(key, bytes.Repeat([]byte(key[3:]), 9<<20))
	}
	subs := p.node.Stats().Subscribes.Load()
	f = f.reboot(t)
	waitFor(t, 30*time.Second, "the follower to catch up", func() bool {
		return f.matched() && f.node.AppliedTotal() >= p.node.AppliedTotal()
	})
	if got := p.node.Stats().Subscribes.Load() - subs; got != 1 {
		t.Errorf("the follower caught up after %d subscriptions, want 1", got)
	}
}

// resetConn is a connection whose reads fail with ECONNRESET once reset
// is set, and whose Close then leaves the socket open for a while, as
// if the peer's FIN were lost in a partition.
type resetConn struct {
	net.Conn
	reset *atomic.Bool
}

func (c resetConn) Read(b []byte) (int, error) {
	reset := &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
	if c.reset.Load() {
		return 0, reset
	}
	n, err := c.Conn.Read(b)
	if c.reset.Load() { // the reset came while the read was in flight
		return 0, reset
	}
	return n, err
}

func (c resetConn) Close() error {
	if c.reset.Load() {
		time.AfterFunc(3*time.Second, func() { c.Conn.Close() })
		return nil
	}
	return c.Conn.Close()
}

// TestStandingWaitsOutTheLease is the schedule that elected a second
// primary under a live lease: on 5 nodes with a 1 s lease, nodes 3 and
// 4 are cut off from the primary, node 0, long enough that its lease
// rests on nodes 1 and 2. Then node 1 is cut off from nodes 0 and 2,
// and its stream ends with a reset while its socket stays open, so node
// 0 keeps counting node 1's last ack. Node 1 must not stand until the
// lease it renewed has run out: once it has won with nodes 3 and 4 and
// acked a write, a tokened read on node 0 must not return the old value.
func TestStandingWaitsOutTheLease(t *testing.T) {
	const lease = time.Second
	var cut atomic.Bool // node 1 is cut off from nodes 0 and 2
	nodes, addrs, parts := startCluster(t, 5, func(i int, o *nodeOpts) {
		o.leaseTimeout = lease
		if i == 1 {
			dial, from := o.dial, o.peers[:2] // nodes 0 and 2
			o.dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
				if cut.Load() {
					if slices.Contains(from, addr) {
						return nil, &net.OpError{Op: "dial", Net: network, Err: fault.ErrPartitioned}
					}
					return dial(network, addr, timeout)
				}
				c, err := dial(network, addr, timeout)
				if err != nil {
					return nil, err
				}
				return resetConn{c, &cut}, nil
			}
		}
	})
	p := nodes[0]
	waitLease(t, p)
	c0, err := server.Dial(p.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	if _, err := c0.Put("k00", []byte("old")); err != nil {
		t.Fatal(err)
	}
	caughtUp(t, p, nodes...)

	split(t, parts, addrs, []int{3, 4}, []int{0})
	time.Sleep(3 * lease / 2)
	waitLease(t, p) // on nodes 1 and 2
	// Node 1's own dials and its open stream are cut by its dialer: a
	// partition on its side would only silence the stream.
	for _, i := range []int{0, 2} {
		if err := parts[i].Block(addrs[1], "both"); err != nil {
			t.Fatal(err)
		}
	}
	cut.Store(true)

	np := nodes[1]
	waitFor(t, 10*time.Second, "node 1's lease", func() bool {
		np.node.mu.Lock()
		defer np.node.mu.Unlock()
		return np.node.role == RolePrimary && np.node.leaseHeldLocked()
	})
	c1, err := server.Dial(np.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	st := &server.Staleness{MaxLagMs: server.NoLagBudget}
	if _, _, status, msg, err := c1.DoVec([]kv.Op{{Kind: kv.OpPut, Key: "k00", Value: []byte("new")}}, st); err != nil || status != server.StatusOKVec {
		t.Fatalf("write on node 1: status=%d msg=%q err=%v", status, msg, err)
	}
	rs, _, status, msg, err := c0.DoVec([]kv.Op{{Kind: kv.OpGet, Key: "k00"}}, st)
	if err == nil && status == server.StatusOKVec && string(rs[0].Value) == "old" {
		role, e := p.state()
		t.Errorf("node 0 (%v at epoch %d) served k00 = old after node 1 acked k00 = new at epoch %d (%s)",
			role, e, np.node.Epoch(), msg)
	}
}

// TestReadOfAnOlderEpochsFrameIsKept is Raft's Figure 8 (USENIX ATC
// 2014, §5.4.2) on 5 nodes with one shard. A frame of epoch 1, kF = F,
// reaches node 1 alone; a primary of epoch 2 writes kG at the same LSN
// on its own log and dies. Node 1 then leads (at the parent, with the
// newest history), streams kF to a majority and reads it back. If that
// read is acknowledged, kF must survive what follows: its primary dies,
// and the epoch 2 primary returns.
func TestReadOfAnOlderEpochsFrameIsKept(t *testing.T) {
	nodes, addrs, parts := startCluster(t, 5, func(i int, o *nodeOpts) { o.shards = 1 })
	heal := func() {
		for _, pt := range parts {
			pt.HealAll()
		}
	}
	// writeOn sends a PUT to tn that is admitted under its lease but can
	// reach no quorum, and waits until tn has committed it.
	writeOn := func(tn *testNode, key string) {
		t.Helper()
		c, err := server.Dial(tn.kvLn.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		applied := tn.node.AppliedTotal()
		go c.Put(key, []byte(key[1:]))
		waitFor(t, 5*time.Second, "the write "+key+" committed on node "+fmt.Sprint(tn.id), func() bool {
			return tn.node.AppliedTotal() > applied
		})
	}
	others := func(skip ...*testNode) []*testNode {
		var rest []*testNode
		for _, tn := range nodes {
			if !slices.Contains(skip, tn) {
				rest = append(rest, tn)
			}
		}
		return rest
	}

	p := nodes[0]
	waitLease(t, p)
	c, err := server.Dial(p.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	putKeys(t, c, 0, 5)
	caughtUp(t, p, nodes...)

	// kF = F reaches node 1 alone.
	split(t, parts, addrs, []int{0, 1}, []int{2, 3, 4})
	writeOn(p, "kF")
	caughtUp(t, p, nodes[1])
	p.crash()

	// A primary of epoch 2 among nodes 2, 3 and 4 commits kG alone.
	p2 := leasedPrimary(t, nodes[2:]...)
	rest := others(nodes[0], nodes[1], p2)
	caughtUp(t, p2, rest...)
	ids := []int{rest[0].id, rest[1].id}
	split(t, parts, addrs, []int{p2.id}, ids)
	writeOn(p2, "kG")
	p2.crash()

	// Healed, the other three elect a primary; read kF there.
	heal()
	live := others(nodes[0], p2)
	p3 := leasedPrimary(t, live...)
	c3, err := server.Dial(p3.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	r, err := c3.Get("kF")
	readF := err == nil && r.Found && string(r.Value) == "F"
	epoch3 := p3.node.Epoch()

	// Its primary dies and the epoch 2 primary returns.
	p3.crash()
	nodes[p2.id] = p2.reboot(t)
	last := leasedPrimary(t, others(nodes[0], p3)...)
	cl, err := server.Dial(last.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	r, err = cl.Get("kF")
	if err != nil {
		t.Fatal(err)
	}
	if readF && (!r.Found || string(r.Value) != "F") {
		t.Errorf("node %d acked a read of kF = F at epoch %d; node %d, primary at epoch %d, holds kF = %q (found %v)",
			p3.id, epoch3, last.id, last.node.Epoch(), r.Value, r.Found)
	}
}

// TestReseedAcksRenewTheLeaseAlone: a diverged follower is re-seeded
// over a slow link, one stamped chunk at a time. Each chunk's ack renews
// the primary's lease, but until the re-seed is done the acks carry no
// applied vector: the diverged state must never count towards a commit.
func TestReseedAcksRenewTheLeaseAlone(t *testing.T) {
	var slow atomic.Bool
	nodes, _, _ := startCluster(t, 5, func(i int, o *nodeOpts) {
		o.leaseTimeout = time.Second // three chunks cross the slow link inside it
		if i == 1 {
			throttle(o, 4<<20, &slow)
		}
	})
	p, f := nodes[0], nodes[1]
	waitLease(t, p)
	c, err := server.Dial(p.kvLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for s := 0; s < 4; s++ { // about 2 MiB of snapshots to cross
		if _, err := c.Put(fmt.Sprint("big", s), bytes.Repeat([]byte{'b'}, chunkBytes/2)); err != nil {
			t.Fatal(err)
		}
	}
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
	slow.Store(true)
	f = f.reboot(t)
	stamps := map[uint64]bool{}
	waitFor(t, 20*time.Second, "the follower's re-seed", func() bool {
		var counted []uint64
		np.node.mu.Lock()
		for sub := range np.node.subs {
			if sub.nodeID == f.id && sub.stamp != 0 {
				counted = slices.Clone(sub.ackedVec)
				if len(counted) == 0 {
					stamps[sub.stamp] = true
				}
			}
		}
		np.node.mu.Unlock()
		if !f.matched() { // read after the primary's view: the re-seed's last ack follows matched
			if len(counted) > 0 {
				t.Fatalf("the primary counts the applied vector %v of a follower mid-re-seed", counted)
			}
			return false
		}
		return f.node.AppliedTotal() >= np.node.AppliedTotal()
	})
	if got := f.node.Stats().SnapshotsLoaded.Load(); got != uint64(f.opts.shards) {
		t.Errorf("the follower loaded %d snapshots, want a re-seed of all %d shards", got, f.opts.shards)
	}
	if len(stamps) < 2 {
		t.Errorf("the primary saw %d stamps acked during the re-seed, want one a chunk", len(stamps))
	}
}
