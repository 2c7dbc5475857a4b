package repl

// The node's two records, the epoch vote (EPOCH) and the re-seed mark
// (RESEED), are kept by its log through the log's FS: a fault there
// stops the log, and the node acts on nothing the record does not hold.

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"nztm/internal/kv"
	"nztm/internal/server"
	"nztm/internal/tm"
	"nztm/internal/wal"
)

// recordFS passes every operation to the real filesystem until, once
// armed, one operation on one record trips: a write to its temp file
// ("write") or the rename that publishes it ("rename"). The trip fails
// with EIO; with freeze set, every later mutating operation fails too,
// as a crash at that point would leave the directory.
type recordFS struct {
	wal.FS
	record string // "EPOCH" or "RESEED"
	op     string // "write" or "rename"
	freeze bool
	armed  atomic.Bool
	frozen atomic.Bool
	trips  atomic.Int64
}

func (r *recordFS) check(op, path string) error {
	if r.frozen.Load() {
		return &fs.PathError{Op: op, Path: path, Err: syscall.EIO}
	}
	name := filepath.Base(path)
	hit := op == r.op && (op == "write" && strings.HasPrefix(name, "tmp-"+r.record+"-") || op == "rename" && name == r.record)
	if !hit || !r.armed.Load() {
		return nil
	}
	r.trips.Add(1)
	r.frozen.Store(r.freeze)
	return &fs.PathError{Op: op, Path: path, Err: syscall.EIO}
}

func (r *recordFS) wrap(f wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return recordFile{f, r}, nil
}

func (r *recordFS) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	if err := r.check("open", name); err != nil {
		return nil, err
	}
	return r.wrap(r.FS.OpenFile(name, flag, perm))
}

func (r *recordFS) CreateTemp(dir, pattern string) (wal.File, error) {
	if err := r.check("create", dir); err != nil {
		return nil, err
	}
	return r.wrap(r.FS.CreateTemp(dir, pattern))
}

func (r *recordFS) Rename(oldpath, newpath string) error {
	if err := r.check("rename", newpath); err != nil {
		return err
	}
	return r.FS.Rename(oldpath, newpath)
}

func (r *recordFS) Remove(name string) error {
	if err := r.check("remove", name); err != nil {
		return err
	}
	return r.FS.Remove(name)
}

type recordFile struct {
	wal.File
	fs *recordFS
}

func (f recordFile) Write(p []byte) (int, error) {
	if err := f.fs.check("write", f.Name()); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f recordFile) Sync() error {
	if err := f.fs.check("sync", f.Name()); err != nil {
		return err
	}
	return f.File.Sync()
}

// loneFollower boots node 1 on dir, whose EPOCH file is set to epoch,
// with one peer that refuses every dial: it can win no election, so it
// stays a follower at that epoch and writes no record of its own.
func loneFollower(t *testing.T, dir, epoch string, fsys wal.FS) *testNode {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, epochFile), []byte(epoch), 0o644); err != nil {
		t.Fatal(err)
	}
	return startNode(t, 1, nodeOpts{dir: dir, fs: fsys, replAddr: pickAddr(t), peers: []string{pickAddr(t)}})
}

// askVote sends tn a vote request from candidate at epoch, with an
// empty history, and returns the answer.
func askVote(t *testing.T, tn *testNode, epoch uint64, candidate int) *Message {
	t.Helper()
	m, err := tn.node.pollPeer(tn.node.ReplAddr(), &Message{Type: MsgVote, Epoch: epoch, NodeID: uint16(candidate)})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// readEpochFile returns the node's EPOCH file.
func readEpochFile(t *testing.T, tn *testNode) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(tn.opts.dir, epochFile))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// halt crashes a node that may not have served yet: as crash, but its
// server is left to end with its listener, since a Shutdown racing the
// server's start trips the race detector.
func halt(tn *testNode) {
	tn.kill()
	tn.store.Close()
}

// vote reads the node's epoch and the vote it recorded at it.
func (tn *testNode) vote() (uint64, int) {
	tn.node.mu.Lock()
	defer tn.node.mu.Unlock()
	return tn.node.epoch, tn.node.votedFor
}

// TestVoteWriteErrorStopsTheLog: the write of a vote fails with EIO. The
// vote is not granted, the log stops, and the stopped log refuses the
// next candidate's vote too: the node grants nothing EPOCH does not
// hold.
func TestVoteWriteErrorStopsTheLog(t *testing.T) {
	rfs := &recordFS{FS: wal.OSFS(), record: epochFile, op: "write"}
	rfs.armed.Store(true)
	tn := loneFollower(t, t.TempDir(), "1 -1\n", rfs)
	if m := askVote(t, tn, 1, 7); m.Granted || m.Epoch != 1 {
		t.Fatalf("vote through a failed write: granted=%v epoch=%d; want refused at epoch 1", m.Granted, m.Epoch)
	}
	if rfs.trips.Load() != 1 {
		t.Fatalf("%d writes of the vote failed, want 1", rfs.trips.Load())
	}
	if tn.store.WAL().Degraded() == nil {
		t.Fatal("a failed vote write left the log running")
	}
	if m := askVote(t, tn, 1, 8); m.Granted {
		t.Fatal("a node whose vote write failed granted the next candidate its vote")
	}
	if rfs.trips.Load() != 1 {
		t.Fatal("the stopped log wrote a record again")
	}
	if e, v := tn.vote(); e != 1 || v != -1 {
		t.Errorf("node at epoch %d with vote %d, want epoch 1 and no vote", e, v)
	}
	if got := readEpochFile(t, tn); got != "1 -1\n" {
		t.Errorf("%s = %q, want %q", epochFile, got, "1 -1\n")
	}
}

// TestCrashBeforeVoteRenameKeepsNoVote: the node dies at the rename
// that would publish its vote (the filesystem freezes there). It
// reboots at its old epoch with no vote recorded, and is then free to
// grant its vote at that epoch.
func TestCrashBeforeVoteRenameKeepsNoVote(t *testing.T) {
	rfs := &recordFS{FS: wal.OSFS(), record: epochFile, op: "rename", freeze: true}
	rfs.armed.Store(true)
	tn := loneFollower(t, t.TempDir(), "1 -1\n", rfs)
	if m := askVote(t, tn, 1, 7); m.Granted {
		t.Fatal("the vote was granted though its rename never happened")
	}
	if rfs.trips.Load() != 1 {
		t.Fatalf("%d renames of the vote tripped, want 1", rfs.trips.Load())
	}
	halt(tn)
	tn.opts.fs = nil
	tn = tn.reboot(t)
	if e, v := tn.vote(); e != 1 || v != -1 {
		t.Fatalf("rebooted at epoch %d with vote %d, want epoch 1 and no vote", e, v)
	}
	if tmps, _ := filepath.Glob(filepath.Join(tn.opts.dir, "tmp-*")); len(tmps) > 0 {
		t.Errorf("the vote's temp file outlived the reboot: %v", tmps)
	}
	if m := askVote(t, tn, 1, 8); !m.Granted {
		t.Fatal("the rebooted node refused its first vote at epoch 1")
	}
	if got := readEpochFile(t, tn); got != "1 8\n" {
		t.Errorf("%s = %q, want %q", epochFile, got, "1 8\n")
	}
}

// TestEpochAdoptionFailureKeepsTheEpoch: a lone primary at epoch 1 hears
// a vote request at epoch 3 and cannot persist the adoption. It steps
// down, which needs no write, but stays at the epoch its EPOCH file
// holds; its log stops, so it never stands again.
func TestEpochAdoptionFailureKeepsTheEpoch(t *testing.T) {
	rfs := &recordFS{FS: wal.OSFS(), record: epochFile, op: "write"}
	tn := startNode(t, 0, nodeOpts{replAddr: pickAddr(t), fs: rfs})
	if role, e := tn.state(); role != RolePrimary || e != 1 {
		t.Fatalf("lone node is %v at epoch %d, want primary at 1", role, e)
	}
	rfs.armed.Store(true)
	if m := askVote(t, tn, 3, 9); m.Granted || m.Epoch != 1 {
		t.Fatalf("answer granted=%v epoch=%d, want refused at epoch 1", m.Granted, m.Epoch)
	}
	if tn.store.WAL().Degraded() == nil {
		t.Fatal("a failed epoch write left the log running")
	}
	time.Sleep(3 * tn.opts.leaseTimeout)
	if role, e := tn.state(); role != RoleFollower || e != 1 {
		t.Errorf("node is %v at epoch %d, want a follower at epoch 1", role, e)
	}
	if got := tn.node.Stats().Epoch.Load(); got != 1 {
		t.Errorf("epoch gauge = %d, want 1", got)
	}
	if got := readEpochFile(t, tn); got != "1 0\n" {
		t.Errorf("%s = %q, want %q", epochFile, got, "1 0\n")
	}
}

// TestReseedWriteErrorRefusesTheReseed: a diverged follower (as in
// TestDivergedFollowerIsReseeded) is to be re-seeded, but the write of
// its re-seed mark fails. The log stops before any install, so the
// chain, which still holds the node's history, is intact: no snapshot
// is loaded, no mark exists, and the diverged value is still in the log.
func TestReseedWriteErrorRefusesTheReseed(t *testing.T) {
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

	rfs := &recordFS{FS: wal.OSFS(), record: reseedFile, op: "write"}
	rfs.armed.Store(true)
	f.opts.fs = rfs
	f = f.reboot(t)
	waitFor(t, 10*time.Second, "the failed re-seed mark to stop the log", func() bool {
		return f.store.WAL().Degraded() != nil
	})
	if rfs.trips.Load() != 1 {
		t.Errorf("%d writes of the re-seed mark failed, want 1", rfs.trips.Load())
	}
	if got := f.node.Stats().SnapshotsLoaded.Load(); got != 0 {
		t.Errorf("the follower loaded %d snapshots after its re-seed mark failed", got)
	}
	if _, err := os.Stat(filepath.Join(f.opts.dir, reseedFile)); !os.IsNotExist(err) {
		t.Errorf("a %s file exists after its write failed (%v)", reseedFile, err)
	}
	f.crash()
	offline(t, f, func(st *kv.Store, th *tm.Thread) {
		res, err := st.Do(th, []kv.Op{{Kind: kv.OpGet, Key: "x"}}, kv.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if got := string(res[0].Value); got != "lost" {
			t.Errorf("x in the refused node's log = %q, want its own %q (the chain kept)", got, "lost")
		}
	})
}

// TestParentDataDirBoots: testdata/parent-datadir was written by the
// build before the records moved into the log: a MANIFEST, snapshots
// and a segment holding k00..k14, and EPOCH "2 3" and RESEED "1 19"
// written by that build's own writer. It boots here: the records read
// back as written and stay byte for byte, and every key is there.
func TestParentDataDirBoots(t *testing.T) {
	src := filepath.Join("testdata", "parent-datadir")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	want := make(map[string]string)
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		want[e.Name()] = string(raw)
	}
	tn := startNode(t, 1, nodeOpts{dir: dir, replAddr: pickAddr(t), peers: []string{pickAddr(t)}})
	if e, v := tn.vote(); e != 2 || v != 3 {
		t.Errorf("booted at epoch %d with vote %d, want epoch 2 and a vote for node 3", e, v)
	}
	tn.node.mu.Lock()
	reseeding, from := tn.node.reseeding, tn.node.reseedFrom
	tn.node.mu.Unlock()
	if !reseeding || from != [2]uint64{1, 19} {
		t.Errorf("re-seed state %v %v, want incomplete with history [1 19]", reseeding, from)
	}
	halt(tn)
	for _, name := range []string{"MANIFEST", epochFile, reseedFile} {
		if raw, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(raw) != want[name] {
			t.Errorf("%s after the boot = %q, %v; want %q", name, raw, err, want[name])
		}
	}
	offline(t, tn, func(st *kv.Store, th *tm.Thread) {
		for i := 0; i < 15; i++ {
			key := fmt.Sprintf("k%02d", i)
			res, err := st.Do(th, []kv.Op{{Kind: kv.OpGet, Key: key}}, kv.Budget{})
			if err != nil {
				t.Fatal(err)
			}
			if got := string(res[0].Value); got != "v"+key {
				t.Errorf("%s = %q, want %q", key, got, "v"+key)
			}
		}
	})
}
