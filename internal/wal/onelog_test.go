package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// Tests of the properties the one-log layout exists for: every frame is
// written once, a torn frame can only be the tail, one fsync covers a
// cohort across all shards, and file order respects every shard's LSN
// order.

// wideFrame is a frame over shards 0..n-1, all at lsn, one put per shard.
func wideFrame(n int, lsn uint64, val string) *Frame {
	f := &Frame{}
	for s := 0; s < n; s++ {
		f.Shards = append(f.Shards, ShardLSN{Shard: s, LSN: lsn})
		f.Ops = append(f.Ops, Op{Shard: s, Key: fmt.Sprintf("k%02d", s), Val: []byte(val)})
	}
	return f
}

// TestTornTailSweep truncates the log at every byte offset inside a
// final 16-shard frame. Whatever the cut, recovery must land on exactly
// the frame prefix before it — in every shard at once, never half a
// transaction — with NextLSN right for every shard, and a second Recover
// must be identical.
func TestTornTailSweep(t *testing.T) {
	const shards = 16
	src := t.TempDir()
	l, _ := openLog(t, src, shards, FsyncNever)
	mustAppend(t, l, wideFrame(shards, 1, "old"))
	mustAppend(t, l, put(3, 2, "solo", "x"))
	final := wideFrame(shards, 2, "new")
	final.Shards[3].LSN = 3
	mustAppend(t, l, final)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := findSegments(t, src)
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	_, n1, _ := decodeFrame(full)
	_, n2, _ := decodeFrame(full[n1:])
	prefix := n1 + n2 // the final frame starts here
	if prefix >= len(full) {
		t.Fatalf("frame sizes %d+%d do not leave a final frame in %d bytes", n1, n2, len(full))
	}
	for cut := prefix; cut < len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Recover(dir, shards)
		if err != nil {
			t.Fatalf("cut %d: Recover: %v", cut, err)
		}
		for s := 0; s < shards; s++ {
			want := map[string]string{fmt.Sprintf("k%02d", s): "old"}
			wantNext := uint64(2)
			if s == 3 {
				want["solo"] = "x"
				wantNext = 3
			}
			wantKeys(t, st, s, want)
			if st.NextLSN[s] != wantNext {
				t.Fatalf("cut %d: NextLSN[%d] = %d, want %d", cut, s, st.NextLSN[s], wantNext)
			}
		}
		if st.ReplayedFrames != 2 || st.TruncatedBytes != uint64(cut-prefix) {
			t.Fatalf("cut %d: replayed=%d truncated=%d, want 2 %d", cut, st.ReplayedFrames, st.TruncatedBytes, cut-prefix)
		}
		again, err := Recover(dir, shards)
		if err != nil {
			t.Fatalf("cut %d: second Recover: %v", cut, err)
		}
		if !reflect.DeepEqual(st.Keys, again.Keys) || !reflect.DeepEqual(st.NextLSN, again.NextLSN) ||
			st.ReplayedFrames != again.ReplayedFrames || st.TruncatedBytes != again.TruncatedBytes {
			t.Fatalf("cut %d: recoveries differ:\n1: %+v\n2: %+v", cut, st, again)
		}
	}
	// The untruncated log recovers the final frame everywhere.
	st, err := Recover(src, shards)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < shards; s++ {
		if got := string(st.Keys[s][fmt.Sprintf("k%02d", s)]); got != "new" || st.NextLSN[s] != final.Shards[s].LSN+1 {
			t.Fatalf("shard %d: value %q NextLSN %d, want new %d", s, got, st.NextLSN[s], final.Shards[s].LSN+1)
		}
	}
}

// TestCohortWriteAndSyncCounts pins the cost model on a counting FS: a
// 16-shard frame costs exactly one Write and one Sync, and concurrent
// appenders on disjoint shards behind a slow Sync share fsyncs.
func TestCohortWriteAndSyncCounts(t *testing.T) {
	const shards = 16
	mem := newMemFS()
	l, _, err := Open(Config{Dir: "/data", Shards: shards, Fsync: FsyncAlways, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	w0, s0 := mem.writes.Load(), mem.syncs.Load()
	mustAppend(t, l, wideFrame(shards, 1, "v"))
	if w, s := mem.writes.Load()-w0, mem.syncs.Load()-s0; w != 1 || s != 1 {
		t.Fatalf("one 16-shard frame cost %d writes + %d syncs, want 1 + 1", w, s)
	}
	if got := l.Stats().AppendedFrames.Load(); got != 1 {
		t.Fatalf("AppendedFrames = %d, want 1", got)
	}

	// K appenders, one shard each, released together behind a 20ms Sync:
	// the first takes the writer role alone; the rest are admitted while
	// it syncs and leave in far fewer cohorts than appenders.
	const k = 8
	mem.syncDur = 20 * time.Millisecond
	fsyncs0 := l.Stats().Fsyncs.Load()
	cohorts0, frames0 := l.Stats().FsyncCohortFrames.Count(), l.Stats().FsyncCohortFrames.Sum()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			<-start
			if err := l.Append(put(s, 2, "k", "v")); err != nil {
				t.Errorf("Append shard %d: %v", s, err)
			}
		}(s)
	}
	close(start)
	wg.Wait()
	fsyncs := l.Stats().Fsyncs.Load() - fsyncs0
	cohorts := l.Stats().FsyncCohortFrames.Count() - cohorts0
	frames := l.Stats().FsyncCohortFrames.Sum() - frames0
	if fsyncs >= k {
		t.Fatalf("%d appenders cost %d fsyncs: no group commit", k, fsyncs)
	}
	if frames != k || cohorts != fsyncs || float64(frames)/float64(cohorts) <= 1 {
		t.Fatalf("cohorts: %d frames over %d cohorts (%d fsyncs), want %d frames and a mean > 1", frames, cohorts, fsyncs, k)
	}
}

// TestReverseOrderHandoff enqueues a chain of cross-shard frames in
// exact anti-readiness order — each frame needs the one enqueued after
// it — and requires that every appender returns and that the file order
// respects every shard's LSN order.
func TestReverseOrderHandoff(t *testing.T) {
	const shards, chain = 5, 8
	dir := t.TempDir()
	l, _ := openLog(t, dir, shards, FsyncNever)
	// Frame i writes shards i%5 and (i+1)%5, so it shares a shard with
	// frame i-1 and one with frame i+1.
	next := make([]uint64, shards)
	frames := make([]*Frame, chain)
	for i := range frames {
		a, b := i%shards, (i+1)%shards
		next[a]++
		next[b]++
		if a > b {
			a, b = b, a
		}
		frames[i] = &Frame{
			Shards: []ShardLSN{{Shard: a, LSN: next[a]}, {Shard: b, LSN: next[b]}},
			Ops:    []Op{{Shard: a, Key: fmt.Sprintf("f%d", i), Val: []byte("v")}},
		}
	}
	var wg sync.WaitGroup
	for i := chain - 1; i >= 0; i-- {
		wg.Add(1)
		go func(f *Frame) {
			defer wg.Done()
			if err := l.Append(f); err != nil {
				t.Errorf("Append %v: %v", f.Shards, err)
			}
		}(frames[i])
		if i > 0 {
			// Wait until the frame is parked before enqueueing the one it
			// waits for, so arrival order really is the reverse of file order.
			waitParked(t, l, chain-i)
		}
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	order := fileOrder(t, dir)
	if len(order) != chain {
		t.Fatalf("%d frames on disk, want %d", len(order), chain)
	}
	seen := make([]uint64, shards)
	for _, vec := range order {
		for _, sl := range vec {
			if sl.LSN != seen[sl.Shard]+1 {
				t.Fatalf("file order %v: shard %d lsn %d follows lsn %d", order, sl.Shard, sl.LSN, seen[sl.Shard])
			}
			seen[sl.Shard] = sl.LSN
		}
	}
	if !reflect.DeepEqual(seen, next) {
		t.Fatalf("file order covers %v, want %v", seen, next)
	}
}

func waitParked(t *testing.T, l *Log, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		parked := len(l.pending)
		l.mu.Unlock()
		if parked == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d frames parked, want %d", parked, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPartialCoverageReplay: a cross-shard frame whose shard 0 entry is
// under shard 0's snapshot and whose shard 1 entry is above shard 1's
// applies only its shard-1 ops — the snapshot already holds (and may
// have moved past) its shard-0 effect.
func TestPartialCoverageReplay(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 2, FsyncNever)
	mustAppend(t, l, put(0, 1, "a", "1"))
	mustAppend(t, l, put(1, 1, "b", "1"))
	mustAppend(t, l, &Frame{
		Shards: []ShardLSN{{Shard: 0, LSN: 2}, {Shard: 1, LSN: 2}},
		Ops:    []Op{{Shard: 0, Key: "a", Val: []byte("cross")}, {Shard: 1, Key: "b", Val: []byte("cross")}},
	})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Shard 0's snapshot at LSN 2 holds a value the frame would clobber if
	// its covered half were replayed.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(0, 2)),
		encodeSnapshot(0, 2, 0, map[string][]byte{"a": []byte("from-snapshot")}), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, st, 0, map[string]string{"a": "from-snapshot"})
	wantKeys(t, st, 1, map[string]string{"b": "cross"})
	if !reflect.DeepEqual(st.NextLSN, []uint64{3, 3}) {
		t.Fatalf("NextLSN = %v, want [3 3]", st.NextLSN)
	}
	if st.ReplayedFrames != 2 { // put(1,1) and the cross frame; put(0,1) is wholly covered
		t.Fatalf("ReplayedFrames = %d, want 2", st.ReplayedFrames)
	}
}

// TestSegmentDeletedOnlyWhenEveryShardCovered: a leading segment holding
// frames of two shards survives one shard's snapshot and goes only when
// the other shard's snapshot covers it too.
func TestSegmentDeletedOnlyWhenEveryShardCovered(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 2, FsyncNever)
	defer l.Close()
	mustAppend(t, l, put(0, 1, "a", "1"))
	mustAppend(t, l, put(1, 1, "b", "1"))
	if err := l.Snapshot(0, 1, map[string][]byte{"a": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if got := len(fileOrder(t, dir)); got != 2 {
		t.Fatalf("%d frames left after shard 0's snapshot, want 2 (shard 1's frame is not covered)", got)
	}
	mustAppend(t, l, put(0, 2, "a", "2"))
	if err := l.Snapshot(1, 1, map[string][]byte{"b": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	// The first segment is now covered in both shards; the second holds
	// (0,2), above shard 0's snapshot.
	order := fileOrder(t, dir)
	if len(order) != 1 || order[0][0] != (ShardLSN{Shard: 0, LSN: 2}) {
		t.Fatalf("frames left = %v, want only (0,2)", order)
	}
	st, err := Recover(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, st, 0, map[string]string{"a": "2"})
	wantKeys(t, st, 1, map[string]string{"b": "1"})
}
