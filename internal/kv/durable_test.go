package kv

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nztm/internal/tm"
	"nztm/internal/wal"
)

// newDurableStore opens a durable store over a fresh nzstm backend.
func newDurableStore(t *testing.T, dir string, shards, buckets int, d Durability) (*Store, *Backend) {
	t.Helper()
	b, err := OpenBackend("nzstm", 4)
	if err != nil {
		t.Fatal(err)
	}
	d.Dir = dir
	if d.NewThread == nil {
		d.NewThread = b.NewThread
	}
	s, _, err := NewDurable(b.Sys, shards, buckets, d)
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	return s, b
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, b := newDurableStore(t, dir, 4, 2, Durability{Fsync: wal.FsyncNever})
	th := b.NewThread()
	budget := Budget{MaxAttempts: 100}
	if _, err := s.Put(th, "alpha", []byte("1"), budget); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(th, "beta", []byte("2"), budget); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CAS(th, "alpha", []byte("1"), []byte("3"), budget); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete(th, "beta", budget); err != nil {
		t.Fatal(err)
	}
	// Multi-key batch: lands in several shards as one frame.
	if _, err := s.Do(th, []Op{
		{Kind: OpPut, Key: "gamma", Value: []byte("4")},
		{Kind: OpPut, Key: "delta", Value: []byte("5")},
		{Kind: OpGet, Key: "alpha"},
	}, budget); err != nil {
		t.Fatal(err)
	}
	th.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: the recovered store must serve the exact committed state.
	s2, b2 := newDurableStore(t, dir, 4, 2, Durability{Fsync: wal.FsyncNever})
	defer s2.Close()
	th2 := b2.NewThread()
	defer th2.Close()
	want := map[string]string{"alpha": "3", "gamma": "4", "delta": "5"}
	for k, v := range want {
		r, err := s2.Get(th2, k, budget)
		if err != nil || !r.Found || !bytes.Equal(r.Value, []byte(v)) {
			t.Fatalf("Get(%s) = %+v, %v; want %q", k, r, err, v)
		}
	}
	if r, _ := s2.Get(th2, "beta", budget); r.Found {
		t.Fatal("deleted key survived recovery")
	}
	// The sequencer must resume past the recovered LSNs: new writes
	// after recovery must themselves recover.
	if _, err := s2.Put(th2, "epsilon", []byte("6"), budget); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	st, err := wal.Recover(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, m := range st.Keys {
		total += len(m)
	}
	if total != 4 {
		t.Fatalf("recovered %d keys, want 4 (%v)", total, st.Keys)
	}
}

func TestDurableGeometryMismatch(t *testing.T) {
	dir := t.TempDir()
	s, _ := newDurableStore(t, dir, 4, 2, Durability{Fsync: wal.FsyncNever})
	s.Close()
	b, err := OpenBackend("nzstm", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewDurable(b.Sys, 8, 2, Durability{Dir: dir, Fsync: wal.FsyncNever}); err == nil {
		t.Fatal("NewDurable accepted a shard-count change")
	}
}

func TestDurableCASMissDoesNotLog(t *testing.T) {
	dir := t.TempDir()
	s, b := newDurableStore(t, dir, 2, 2, Durability{Fsync: wal.FsyncNever})
	th := b.NewThread()
	defer th.Close()
	budget := Budget{MaxAttempts: 100}
	if _, err := s.Put(th, "k", []byte("v"), budget); err != nil {
		t.Fatal(err)
	}
	before := s.WAL().Stats().AppendedFrames.Load()
	// Single-op CAS miss: commits, but resolves to no effect — no frame.
	r, err := s.CAS(th, "k", []byte("wrong"), []byte("x"), budget)
	if err != nil || r.Found {
		t.Fatalf("CAS = %+v, %v", r, err)
	}
	// Multi-op batch aborted by a CAS miss: no effects at all.
	rs, err := s.Do(th, []Op{
		{Kind: OpCAS, Key: "k", Expect: []byte("wrong"), Value: []byte("x")},
		{Kind: OpPut, Key: "other", Value: []byte("y")},
	}, budget)
	if err != nil || rs[0].Found {
		t.Fatalf("batch = %+v, %v", rs, err)
	}
	// The same abort with the write first: the PUT took an LSN inside the
	// aborted attempt, which nothing will ever log — the acknowledgement
	// must rest on the observed prefixes only, not wait for that LSN.
	type reply struct {
		rs  []Result
		vec []wal.ShardLSN
		err error
	}
	done := make(chan reply, 1)
	go func() {
		rs, vec, err := s.DoSpan(th, []Op{
			{Kind: OpPut, Key: "other", Value: []byte("y")},
			{Kind: OpCAS, Key: "k", Expect: []byte("wrong"), Value: []byte("x")},
		}, budget, nil)
		done <- reply{rs, vec, err}
	}()
	select {
	case r := <-done:
		if r.err != nil || r.rs[1].Found {
			t.Fatalf("write-first batch = %+v, %v", r.rs, r.err)
		}
		stable := s.WAL().StableVector()
		for _, sl := range r.vec {
			if sl.LSN > stable[sl.Shard] {
				t.Fatalf("aborted batch returned uncommitted %+v (stable %v)", sl, stable)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("aborted write-first batch never acknowledged: it waits on an LSN nobody logs")
	}
	if got := s.WAL().Stats().AppendedFrames.Load(); got != before {
		t.Fatalf("CAS misses appended %d frames", got-before)
	}
	s.Close()
	st, err := wal.Recover(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Keys[int(fnv1a("other")%2)]) != 0 && st.Keys[int(fnv1a("other")%2)]["other"] != nil {
		t.Fatal("aborted batch effect leaked into the log")
	}
}

// TestCommitsCarryTheStoreEpoch: every frame the store commits carries
// the epoch SetEpoch last set, and the log still knows it after a
// restart.
func TestCommitsCarryTheStoreEpoch(t *testing.T) {
	dir := t.TempDir()
	s, b := newDurableStore(t, dir, 1, 2, Durability{Fsync: wal.FsyncNever})
	th := b.NewThread()
	for i, k := range []string{"a", "b", "c"} {
		if i == 1 {
			s.SetEpoch(4)
		}
		if _, err := s.Put(th, k, []byte("v"), Budget{MaxAttempts: 100}); err != nil {
			t.Fatal(err)
		}
	}
	th.Close()
	want := []uint64{0, 0, 4, 4} // by LSN
	for _, reopened := range []bool{false, true} {
		if reopened {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, _ = newDurableStore(t, dir, 1, 2, Durability{Fsync: wal.FsyncNever})
		}
		for lsn, e := range want {
			if got, ok := s.WAL().EpochAt(0, uint64(lsn)); !ok || got != e {
				t.Errorf("reopened=%v: EpochAt(0, %d) = %d, %v; want %d", reopened, lsn, got, ok, e)
			}
		}
	}
	s.Close()
}

// TestLoadShardSnapshotBehind: a follower ahead of the shipped snapshot
// holds a diverged tail. Outside a re-seed the install is refused before
// memory or disk change (the log's chain is the only copy of the other
// shards' frames); as part of a re-seed it replaces the shard wholesale.
func TestLoadShardSnapshotBehind(t *testing.T) {
	dir := t.TempDir()
	s, b := newDurableStore(t, dir, 1, 2, Durability{Fsync: wal.FsyncNever})
	th := b.NewThread()
	budget := Budget{MaxAttempts: 100}
	for _, k := range []string{"k1", "k2", "k3"} {
		if _, err := s.Put(th, k, []byte("diverged"), budget); err != nil {
			t.Fatal(err)
		}
	}
	primary := map[string][]byte{"k1": []byte("primary")}
	if err := s.LoadShardSnapshot(th, 0, 1, 0, primary, false); !errors.Is(err, wal.ErrSnapshotBehind) {
		t.Fatalf("catch-up install below the position = %v, want ErrSnapshotBehind", err)
	}
	if r, err := s.Get(th, "k3", budget); err != nil || !r.Found {
		t.Fatalf("refused install changed memory: k3 = %+v, %v", r, err)
	}
	if got := s.AppliedVector(); got[0] != 3 || s.WAL().Degraded() != nil {
		t.Fatalf("refused install moved the log: applied=%v degraded=%v", got, s.WAL().Degraded())
	}
	if err := s.LoadShardSnapshot(th, 0, 1, 0, primary, true); err != nil {
		t.Fatalf("resync install: %v", err)
	}
	if _, err := s.Put(th, "k4", []byte("v"), budget); err != nil {
		t.Fatal(err)
	}
	th.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := wal.Recover(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Keys[0]) != 2 || string(st.Keys[0]["k1"]) != "primary" || string(st.Keys[0]["k4"]) != "v" || st.NextLSN[0] != 3 {
		t.Fatalf("recovered keys=%v next=%v, want {k1:primary k4:v} next=[3]", st.Keys[0], st.NextLSN)
	}
}

func TestDurableSnapshotter(t *testing.T) {
	dir := t.TempDir()
	s, b := newDurableStore(t, dir, 2, 2, Durability{
		Fsync:         wal.FsyncNever,
		SnapshotEvery: 10 * time.Millisecond,
	})
	th := b.NewThread()
	budget := Budget{MaxAttempts: 100}
	for i := 0; i < 50; i++ {
		if _, err := s.Put(th, fmt.Sprintf("k%d", i), []byte("v"), budget); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.WAL().Stats().Snapshots.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.WAL().Stats().Snapshots.Load() == 0 {
		t.Fatal("snapshotter never sealed a snapshot")
	}
	th.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Snapshot + remaining log must reproduce all 50 keys.
	st, err := wal.Recover(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, m := range st.Keys {
		total += len(m)
	}
	if total != 50 {
		t.Fatalf("recovered %d keys, want 50", total)
	}
}

func TestDurableConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s, b := newDurableStore(t, dir, 4, 2, Durability{
		Fsync:         wal.FsyncInterval,
		FsyncInterval: 5 * time.Millisecond,
		SnapshotEvery: 20 * time.Millisecond,
	})
	const writers, per = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := b.NewThread()
			defer th.Close()
			budget := Budget{MaxAttempts: 1000}
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("w%d-%d", w, i%10)
				if _, err := s.Put(th, key, []byte(fmt.Sprintf("%d", i)), budget); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if i%7 == 0 {
					if _, err := s.Get(th, key, budget); err != nil {
						t.Errorf("Get: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := wal.Recover(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Each writer's final values must all be present.
	for w := 0; w < writers; w++ {
		for i := 0; i < 10; i++ {
			key := fmt.Sprintf("w%d-%d", w, i)
			found := false
			for _, m := range st.Keys {
				if _, ok := m[key]; ok {
					found = true
				}
			}
			if !found {
				t.Fatalf("key %s lost", key)
			}
		}
	}
}

// stallFS is the real filesystem with one armed write stalled halfway:
// the first write after arming lands its first half, closes blocked and
// waits for block before writing the rest.
type stallFS struct {
	wal.FS
	armed          *atomic.Bool
	blocked, block chan struct{}
}

func (f stallFS) OpenFile(name string, flag int, perm iofs.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return stallFile{file, f}, nil
}

type stallFile struct {
	wal.File
	fs stallFS
}

func (f stallFile) Write(p []byte) (int, error) {
	if !f.fs.armed.CompareAndSwap(true, false) {
		return f.File.Write(p)
	}
	n, err := f.File.Write(p[:len(p)/2])
	if err != nil {
		return n, err
	}
	close(f.fs.blocked)
	<-f.fs.block
	m, err := f.File.Write(p[n:])
	return n + m, err
}

// TestAckGatedOnCrossShardStability pins the acknowledgement rule: no
// response may depend on a commit that recovery could still drop. A
// cross-shard commit is stalled halfway through its one write (a torn
// tail if the process died there); a write in one of its shards and a
// read in the other both observed it in memory, and neither may be
// acknowledged until its frame is whole and durable.
func TestAckGatedOnCrossShardStability(t *testing.T) {
	var (
		armed   atomic.Bool
		block   = make(chan struct{})
		blocked = make(chan struct{})
	)
	var release sync.Once
	unblock := func() { release.Do(func() { close(block) }) }
	defer unblock()
	dir := t.TempDir()
	stall := stallFS{FS: wal.OSFS(), armed: &armed, blocked: blocked, block: block}
	s, b := newDurableStore(t, dir, 2, 2, Durability{Fsync: wal.FsyncNever, FS: stall})
	defer s.Close()
	budget := Budget{MaxAttempts: 100}
	a := shardKeys(s, 0, 2)
	kA, kA2, kB := a[0], a[1], shardKeys(s, 1, 1)[0]

	armed.Store(true)
	t1done := make(chan error, 1)
	go func() {
		th := b.NewThread()
		defer th.Close()
		_, err := s.Do(th, []Op{
			{Kind: OpPut, Key: kA, Value: []byte("1")},
			{Kind: OpPut, Key: kB, Value: []byte("1")},
		}, budget)
		t1done <- err
	}()
	<-blocked // the cross-shard commit is live in memory and torn on disk

	putDone := make(chan error, 1)
	go func() {
		th := b.NewThread()
		defer th.Close()
		_, err := s.Put(th, kA2, []byte("2"), budget)
		putDone <- err
	}()
	getDone := make(chan error, 1)
	go func() {
		th := b.NewThread()
		defer th.Close()
		r, err := s.Get(th, kB, budget)
		if err == nil && !r.Found {
			err = fmt.Errorf("read of %s missed the committed value", kB)
		}
		getDone <- err
	}()
	select {
	case err := <-putDone:
		t.Fatalf("single-shard put acked while the cross-shard commit it observed was torn (err=%v)", err)
	case err := <-getDone:
		t.Fatalf("read acked while the cross-shard commit it observed was torn (err=%v)", err)
	case <-time.After(200 * time.Millisecond):
		// Correctly gated: both acks wait on the observed prefix.
	}
	unblock()
	if err := <-t1done; err != nil {
		t.Fatalf("cross-shard Do: %v", err)
	}
	if err := <-putDone; err != nil {
		t.Fatalf("gated Put: %v", err)
	}
	if err := <-getDone; err != nil {
		t.Fatalf("gated Get: %v", err)
	}
}

// TestFenceDrainsAndRefusesWrites: Fence waits for a write that
// committed in memory and is still on its way into the log, so the log's
// stable vector then covers everything the store holds; writes after it
// are refused with no effect until SetEpoch lifts the fence. Reads keep
// serving.
func TestFenceDrainsAndRefusesWrites(t *testing.T) {
	var armed atomic.Bool
	block, blocked := make(chan struct{}), make(chan struct{})
	var release sync.Once
	unblock := func() { release.Do(func() { close(block) }) }
	defer unblock()
	stall := stallFS{FS: wal.OSFS(), armed: &armed, blocked: blocked, block: block}
	s, b := newDurableStore(t, t.TempDir(), 1, 2, Durability{Fsync: wal.FsyncNever, FS: stall})
	defer s.Close()
	budget := Budget{MaxAttempts: 100}
	th := b.NewThread()
	defer th.Close()

	armed.Store(true)
	go func() {
		th := b.NewThread()
		defer th.Close()
		s.Put(th, "held", []byte("1"), budget)
	}()
	<-blocked
	fenced := make(chan error, 1)
	go func() { fenced <- s.Fence(nil) }()
	select {
	case err := <-fenced:
		t.Fatalf("Fence returned (%v) while a committed write was outside the log", err)
	case <-time.After(100 * time.Millisecond):
	}
	unblock()
	if err := <-fenced; err != nil {
		t.Fatal(err)
	}
	if got := s.AppliedVector(); got[0] != 1 {
		t.Fatalf("stable vector after Fence = %v, want [1]", got)
	}
	if _, err := s.Put(th, "after", []byte("2"), budget); !errors.Is(err, ErrFenced) {
		t.Fatalf("write on a fenced store: %v, want ErrFenced", err)
	}
	if r, err := s.Get(th, "after", budget); err != nil || r.Found {
		t.Fatalf("the refused write left an effect: %+v %v", r, err)
	}
	if r, err := s.Get(th, "held", budget); err != nil || !r.Found {
		t.Fatalf("read on a fenced store: %+v %v", r, err)
	}
	s.SetEpoch(1)
	if _, err := s.Put(th, "after", []byte("2"), budget); err != nil {
		t.Fatalf("write after SetEpoch: %v", err)
	}
}

func TestStoreCloseIdempotentAndLeakFree(t *testing.T) {
	g0 := runtime.NumGoroutine()
	dir := t.TempDir()
	s, b := newDurableStore(t, dir, 2, 2, Durability{
		Fsync:         wal.FsyncInterval,
		FsyncInterval: 5 * time.Millisecond,
		SnapshotEvery: 10 * time.Millisecond,
	})
	th := b.NewThread()
	if _, err := s.Put(th, "k", []byte("v"), Budget{MaxAttempts: 100}); err != nil {
		t.Fatal(err)
	}
	th.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Memory-only stores are no-ops.
	mem, _ := newStore(t, 1, 1, 1)
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > g0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > g0 {
		t.Fatalf("goroutines leaked: %d > %d", g, g0)
	}
}

// shardKeys returns n distinct keys that hash to shard.
func shardKeys(s *Store, shard, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("probe%d", i)
		if _, sh := s.locate(k); sh == shard {
			keys = append(keys, k)
		}
	}
	return keys
}

// loggedFrames reads every frame in the store's log, in file order.
func loggedFrames(t *testing.T, s *Store) []*wal.Frame {
	t.Helper()
	sr := s.WAL().OpenStream(make([]uint64, s.Shards()))
	defer sr.Close()
	var frames []*wal.Frame
	for {
		e, err := sr.Next()
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, e.Frame)
	}
}

// TestCommitVectorIsExact: a batch that GETs on one shard and PUTs on two
// others returns, sorted by shard, the observed LSN where it only read and
// its own LSN where it wrote, omits a shard nothing ever committed to, and
// logs a frame whose vector is exactly the written subset. A first attempt
// that touched another shard and was aborted leaves no trace of it.
func TestCommitVectorIsExact(t *testing.T) {
	for _, aborted := range []bool{false, true} {
		t.Run(fmt.Sprintf("aborted=%v", aborted), func(t *testing.T) {
			b, err := OpenBackend("nzstm", 2)
			if err != nil {
				t.Fatal(err)
			}
			var ops []Op
			sys := &abortFirst{System: b.Sys}
			var store tm.System = b.Sys
			if aborted {
				store = sys
			}
			s, _, err := NewDurable(store, 4, 2, Durability{Dir: t.TempDir(), Fsync: wal.FsyncNever})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			th := b.NewThread()
			defer th.Close()
			k0, k1, k2, k3 := shardKeys(s, 0, 1)[0], shardKeys(s, 1, 2), shardKeys(s, 2, 1)[0], shardKeys(s, 3, 1)[0]
			for _, k := range []string{k0, k0, k1[0], k2} { // LSNs: shard 0 at 2, shards 1 and 2 at 1
				if _, err := s.Put(th, k, []byte("seed"), Budget{}); err != nil {
					t.Fatal(err)
				}
			}
			frames := len(loggedFrames(t, s))
			ops = []Op{
				{Kind: OpPut, Key: k2, Value: []byte("v")},
				{Kind: OpGet, Key: k0},
				{Kind: OpGet, Key: k3},
				{Kind: OpPut, Key: k1[0], Value: []byte("v")},
				{Kind: OpPut, Key: k3, Value: []byte("v")},
			}
			if aborted {
				// Between the first attempt and its abort, the batch's last
				// op moves from a PUT on shard 3 to a second PUT on shard 1.
				sys.then = func() { ops[4].Key = k1[1] }
			} else {
				ops[4].Key = k1[1]
			}
			rs, vec, err := s.DoSpan(th, ops, Budget{}, nil)
			sys.then = nil
			if err != nil {
				t.Fatal(err)
			}
			if !rs[1].Found || rs[2].Found {
				t.Fatalf("results %+v: want shard 0's key found and shard 3's absent", rs)
			}
			if want := []wal.ShardLSN{{Shard: 0, LSN: 2}, {Shard: 1, LSN: 2}, {Shard: 2, LSN: 2}}; !reflect.DeepEqual(vec, want) {
				t.Fatalf("commit vector %v, want %v", vec, want)
			}
			logged := loggedFrames(t, s)
			if len(logged) != frames+1 {
				t.Fatalf("batch logged %d frames, want 1", len(logged)-frames)
			}
			f := logged[frames]
			if want := []wal.ShardLSN{{Shard: 1, LSN: 2}, {Shard: 2, LSN: 2}}; !reflect.DeepEqual(f.Shards, want) {
				t.Fatalf("frame vector %v, want %v", f.Shards, want)
			}
			var keys []string
			for _, op := range f.Ops {
				keys = append(keys, op.Key)
			}
			if want := []string{k2, k1[0], k1[1]}; !reflect.DeepEqual(keys, want) {
				t.Fatalf("frame ops on %v, want %v", keys, want)
			}
			// Shard 3's sequencer took nothing: its first write is LSN 1.
			if _, vec, err = s.DoSpan(th, []Op{{Kind: OpPut, Key: k3, Value: []byte("v")}}, Budget{}, nil); err != nil {
				t.Fatal(err)
			}
			if want := []wal.ShardLSN{{Shard: 3, LSN: 1}}; !reflect.DeepEqual(vec, want) {
				t.Fatalf("first write to shard 3 got %v, want %v", vec, want)
			}
		})
	}
}

// TestApplyFrameRefusesUnsortedVector: a replicated frame whose vector the
// log would refuse is refused before it commits in memory, so the store
// neither serves nor waits on an LSN the log never took.
func TestApplyFrameRefusesUnsortedVector(t *testing.T) {
	s, b := newDurableStore(t, t.TempDir(), 2, 2, Durability{Fsync: wal.FsyncNever})
	defer s.Close()
	th := b.NewThread()
	defer th.Close()
	k0, k1 := shardKeys(s, 0, 1)[0], shardKeys(s, 1, 1)[0]
	ops := []wal.Op{{Shard: 1, Key: k1, Val: []byte("v")}, {Shard: 0, Key: k0, Val: []byte("v")}}
	for _, vec := range [][]wal.ShardLSN{
		{{Shard: 1, LSN: 1}, {Shard: 0, LSN: 1}},
		{{Shard: 0, LSN: 1}, {Shard: 0, LSN: 1}},
		{{Shard: 0, LSN: 1}, {Shard: 2, LSN: 1}},
	} {
		if err := s.ApplyFrame(th, &wal.Frame{Shards: vec, Ops: ops}); err == nil {
			t.Fatalf("ApplyFrame accepted vector %v", vec)
		}
		if n := s.WAL().Stats().AppendedFrames.Load(); n != 0 {
			t.Fatalf("vector %v: refused frame appended", vec)
		}
		done := make(chan []Result, 1)
		go func() {
			th := b.NewThread()
			defer th.Close()
			rs, err := s.Do(th, []Op{{Kind: OpGet, Key: k0}, {Kind: OpGet, Key: k1}}, Budget{})
			if err != nil {
				t.Error(err)
			}
			done <- rs
		}()
		select {
		case rs := <-done:
			if rs != nil && (rs[0].Found || rs[1].Found) {
				t.Fatalf("vector %v: refused frame committed in memory: %+v", vec, rs)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("vector %v: read wedged on an LSN the log never took", vec)
		}
	}
	// The sorted frame still applies.
	f := &wal.Frame{Shards: []wal.ShardLSN{{Shard: 0, LSN: 1}, {Shard: 1, LSN: 1}}, Ops: ops}
	if err := s.ApplyFrame(th, f); err != nil {
		t.Fatal(err)
	}
	if r, err := s.Get(th, k1, Budget{}); err != nil || !r.Found {
		t.Fatalf("after the sorted frame: %+v, %v", r, err)
	}
}

// putBatches builds a 16 shards × 64 buckets store, memory-only or durable
// under FsyncNever, preloaded with 16 384 keys of 128-byte values, and 64
// batches of 16 PUTs over those keys: the durable-batch workload's request
// on the store's shipped geometry.
func putBatches(tb testing.TB, durable bool) (*Store, *tm.Thread, [][]Op) {
	tb.Helper()
	const keys, batch = 16384, 16
	b, err := OpenBackend("nzstm", 1)
	if err != nil {
		tb.Fatal(err)
	}
	s := New(b.Sys, 16, 64)
	if durable {
		if s, _, err = NewDurable(b.Sys, 16, 64, Durability{Dir: tb.TempDir(), Fsync: wal.FsyncNever}); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { s.Close() })
	}
	th := b.NewThread()
	tb.Cleanup(th.Close)
	val := bytes.Repeat([]byte{0xAB}, 128)
	ops := make([]Op, keys)
	for i := range ops {
		ops[i] = Op{Kind: OpPut, Key: fmt.Sprintf("key%05d", i), Value: val}
	}
	for i := 0; i < keys; i += batch {
		if _, err := s.Do(th, ops[i:i+batch], Budget{}); err != nil {
			tb.Fatal(err)
		}
	}
	batches := make([][]Op, 64)
	for i := range batches {
		batches[i] = make([]Op, batch)
		for j := range batches[i] {
			batches[i][j] = ops[(i*batch+j)*7919%keys] // 7919 is prime: 16 distinct keys
		}
	}
	return s, th, batches
}

// TestDurablePutBatchAllocs is the durability tax's allocation gate: a
// durable 16-PUT batch allocates at most 1.2× what the same batch does on
// a memory-only store (the record Do keeps per shard is pooled, not built
// per request).
func TestDurablePutBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under -race")
	}
	allocs := func(durable bool) float64 {
		s, th, batches := putBatches(t, durable)
		i := 0
		return testing.AllocsPerRun(500, func() {
			if _, err := s.Do(th, batches[i%len(batches)], Budget{}); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	mem, dur := allocs(false), allocs(true)
	if dur > 1.2*mem {
		t.Errorf("a durable 16-PUT batch allocates %.1f objects, memory-only %.1f; want ≤ 1.2×", dur, mem)
	}
}

// BenchmarkDurablePutBatch prices the durability tax on the kv side: one
// 16-PUT batch through Store.Do on a durable store under FsyncNever, and
// its memory-only twin on the same batches. Run with -benchmem.
func BenchmarkDurablePutBatch(b *testing.B) {
	for _, durable := range []bool{false, true} {
		name := "store=memory"
		if durable {
			name = "store=durable"
		}
		b.Run(name, func(b *testing.B) {
			s, th, batches := putBatches(b, durable)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Do(th, batches[i%len(batches)], Budget{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
