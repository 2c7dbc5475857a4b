package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// put builds a single-shard put frame at lsn.
func put(shard int, lsn uint64, key, val string) *Frame {
	return &Frame{
		Shards: []ShardLSN{{Shard: shard, LSN: lsn}},
		Ops:    []Op{{Shard: shard, Key: key, Val: []byte(val)}},
	}
}

func openLog(t *testing.T, dir string, shards int, policy FsyncPolicy) (*Log, *State) {
	t.Helper()
	l, st, err := Open(Config{Dir: dir, Shards: shards, Fsync: policy})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, st
}

func mustAppend(t *testing.T, l *Log, f *Frame) {
	t.Helper()
	if err := l.Append(f); err != nil {
		t.Fatalf("Append: %v", err)
	}
}

// waitStable is the single-entry form of WaitStable.
func waitStable(l *Log, shard int, lsn uint64) error {
	return l.WaitStable([]ShardLSN{{Shard: shard, LSN: lsn}})
}

// forceRotate closes the active segment and starts a fresh one, as a
// sealed snapshot would, without deleting anything.
func forceRotate(t *testing.T, l *Log) {
	t.Helper()
	l.mu.Lock()
	l.acquireLocked()
	l.mu.Unlock()
	err := l.rotate()
	l.mu.Lock()
	l.releaseLocked()
	l.mu.Unlock()
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
}

// fileOrder walks dir's segment chain and returns every frame's vector
// in file order.
func fileOrder(t *testing.T, dir string) [][]ShardLSN {
	t.Helper()
	var refs []SegmentRef
	for _, p := range findSegments(t, dir) {
		seq, ok := parseSegmentName(filepath.Base(p))
		if !ok {
			t.Fatalf("unparseable segment name %s", p)
		}
		refs = append(refs, SegmentRef{Seq: seq, Path: p})
	}
	sr := NewStreamReader(refs)
	defer sr.Close()
	var out [][]ShardLSN
	for {
		e, err := sr.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("walking %s: %v", dir, err)
		}
		out = append(out, e.Frame.Shards)
	}
}

func wantKeys(t *testing.T, st *State, shard int, want map[string]string) {
	t.Helper()
	got := st.Keys[shard]
	if len(got) != len(want) {
		t.Fatalf("shard %d: %d keys, want %d (%v)", shard, len(got), len(want), got)
	}
	for k, v := range want {
		if !bytes.Equal(got[k], []byte(v)) {
			t.Fatalf("shard %d key %q = %q, want %q", shard, k, got[k], v)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{
		Epoch:  12,
		Shards: []ShardLSN{{Shard: 0, LSN: 7}, {Shard: 3, LSN: 1}},
		Ops: []Op{
			{Shard: 0, Key: "a", Val: []byte("hello")},
			{Shard: 3, Key: "b", Del: true},
			{Shard: 0, Key: "", Val: nil},
		},
	}
	enc := appendFrame(nil, f)
	got, n, err := decodeFrame(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	if got.Epoch != f.Epoch || !reflect.DeepEqual(got.Shards, f.Shards) {
		t.Fatalf("epoch %d shards %v != %d %v", got.Epoch, got.Shards, f.Epoch, f.Shards)
	}
	if len(got.Ops) != len(f.Ops) {
		t.Fatalf("%d ops != %d", len(got.Ops), len(f.Ops))
	}
	for i := range f.Ops {
		if got.Ops[i].Shard != f.Ops[i].Shard || got.Ops[i].Del != f.Ops[i].Del ||
			got.Ops[i].Key != f.Ops[i].Key || !bytes.Equal(got.Ops[i].Val, f.Ops[i].Val) {
			t.Fatalf("op %d: %+v != %+v", i, got.Ops[i], f.Ops[i])
		}
		// A set's value decodes non-nil even when empty: the store keeps
		// the slice, and there nil would read as absent.
		if !got.Ops[i].Del && got.Ops[i].Val == nil {
			t.Fatalf("op %d: set decoded with a nil value", i)
		}
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, st := openLog(t, dir, 2, FsyncNever)
	wantKeys(t, st, 0, nil)
	mustAppend(t, l, put(0, 1, "a", "1"))
	mustAppend(t, l, put(1, 1, "b", "2"))
	// Cross-shard frame: written once, applied to both shards.
	mustAppend(t, l, &Frame{
		Shards: []ShardLSN{{Shard: 0, LSN: 2}, {Shard: 1, LSN: 2}},
		Ops: []Op{
			{Shard: 0, Key: "a", Val: []byte("3")},
			{Shard: 1, Key: "c", Val: []byte("4")},
		},
	})
	mustAppend(t, l, &Frame{
		Shards: []ShardLSN{{Shard: 1, LSN: 3}},
		Ops:    []Op{{Shard: 1, Key: "b", Del: true}},
	})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st2, err := Recover(dir, 2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	wantKeys(t, st2, 0, map[string]string{"a": "3"})
	wantKeys(t, st2, 1, map[string]string{"c": "4"})
	if st2.NextLSN[0] != 3 || st2.NextLSN[1] != 4 {
		t.Fatalf("NextLSN = %v, want [3 4]", st2.NextLSN)
	}
	if st2.ReplayedFrames != 4 {
		t.Fatalf("ReplayedFrames = %d, want 4 (one per frame)", st2.ReplayedFrames)
	}
	if got := l.Stats().AppendedFrames.Load(); got != 4 {
		t.Fatalf("AppendedFrames = %d, want 4 (each frame written once)", got)
	}
}

func TestOutOfOrderHandoff(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 1, FsyncNever)
	// Hand the appender LSNs 1..8 from separate goroutines in a
	// scrambled order; the reorder buffer must serialize them densely.
	var wg sync.WaitGroup
	for _, lsn := range []uint64{3, 1, 4, 2, 8, 6, 5, 7} {
		wg.Add(1)
		go func(lsn uint64) {
			defer wg.Done()
			if err := l.Append(put(0, lsn, fmt.Sprintf("k%d", lsn), fmt.Sprintf("v%d", lsn))); err != nil {
				t.Errorf("Append(%d): %v", lsn, err)
			}
		}(lsn)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st, err := Recover(dir, 1)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(st.Keys[0]) != 8 {
		t.Fatalf("recovered %d keys, want 8", len(st.Keys[0]))
	}
	if st.ReplayedFrames != 8 || st.TruncatedBytes != 0 {
		t.Fatalf("replayed=%d truncated=%d", st.ReplayedFrames, st.TruncatedBytes)
	}
}

// findSegments returns the log's segment paths sorted ascending.
func findSegments(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func TestTruncatedFinalFrame(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 1, FsyncNever)
	mustAppend(t, l, put(0, 1, "a", "1"))
	mustAppend(t, l, put(0, 2, "b", "2"))
	l.Close()
	segs := findSegments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	// Cut the final frame mid-payload: the classic crash-mid-write tail.
	b, _ := os.ReadFile(segs[0])
	if err := os.WriteFile(segs[0], b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir, 1)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	wantKeys(t, st, 0, map[string]string{"a": "1"})
	if st.TruncatedBytes == 0 {
		t.Fatal("torn tail not counted in TruncatedBytes")
	}
	if st.NextLSN[0] != 2 {
		t.Fatalf("NextLSN = %d, want 2", st.NextLSN[0])
	}
	// Open must repair the tail and resume appending at LSN 2.
	l2, st2 := openLog(t, dir, 1, FsyncNever)
	wantKeys(t, st2, 0, map[string]string{"a": "1"})
	mustAppend(t, l2, put(0, 2, "c", "3"))
	l2.Close()
	st3, err := Recover(dir, 1)
	if err != nil {
		t.Fatalf("Recover after repair: %v", err)
	}
	wantKeys(t, st3, 0, map[string]string{"a": "1", "c": "3"})
}

func TestBitFlipMidLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 1, FsyncNever)
	for i := uint64(1); i <= 3; i++ {
		mustAppend(t, l, put(0, i, fmt.Sprintf("k%d", i), "v"))
	}
	l.Close()
	segs := findSegments(t, dir)
	b, _ := os.ReadFile(segs[0])
	// Flip one bit inside the SECOND frame's payload: recovery must keep
	// frame 1, stop at frame 2, and not resurrect frame 3.
	_, n1, err := decodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), b...)
	mut[n1+frameHeaderSize+2] ^= 0x40
	if err := os.WriteFile(segs[0], mut, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir, 1)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	wantKeys(t, st, 0, map[string]string{"k1": "v"})
	if st.TruncatedBytes != uint64(len(b)-n1) {
		t.Fatalf("TruncatedBytes = %d, want %d", st.TruncatedBytes, len(b)-n1)
	}
	if st.NextLSN[0] != 2 {
		t.Fatalf("NextLSN = %d, want 2", st.NextLSN[0])
	}
}

func TestEmptyLogValidSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 1, FsyncNever)
	mustAppend(t, l, put(0, 1, "a", "1"))
	mustAppend(t, l, put(0, 2, "b", "2"))
	if err := l.Snapshot(0, 2, map[string][]byte{"a": []byte("1"), "b": []byte("2")}); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	l.Close()
	// The covered segment was truncated away; only the snapshot and an
	// empty fresh segment remain.
	st, err := Recover(dir, 1)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	wantKeys(t, st, 0, map[string]string{"a": "1", "b": "2"})
	if st.SnapshotLSN[0] != 2 || st.NextLSN[0] != 3 {
		t.Fatalf("SnapshotLSN=%d NextLSN=%d, want 2 3", st.SnapshotLSN[0], st.NextLSN[0])
	}
	if st.ReplayedFrames != 0 {
		t.Fatalf("ReplayedFrames = %d, want 0 (all state from snapshot)", st.ReplayedFrames)
	}
	// And appending after the snapshot still replays on top of it.
	l2, _ := openLog(t, dir, 1, FsyncNever)
	mustAppend(t, l2, put(0, 3, "a", "9"))
	l2.Close()
	st2, err := Recover(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, st2, 0, map[string]string{"a": "9", "b": "2"})
}

func TestSnapshotWithNoLog(t *testing.T) {
	dir := t.TempDir()
	// Hand-plant a snapshot with no MANIFEST-era log files at all.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(0, 5)),
		encodeSnapshot(0, 5, 0, map[string][]byte{"x": []byte("y")}), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir, 1)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	wantKeys(t, st, 0, map[string]string{"x": "y"})
	if st.NextLSN[0] != 6 {
		t.Fatalf("NextLSN = %d, want 6", st.NextLSN[0])
	}
	// Open resumes past the snapshot LSN.
	l, _ := openLog(t, dir, 1, FsyncNever)
	mustAppend(t, l, put(0, 6, "x", "z"))
	l.Close()
	st2, err := Recover(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, st2, 0, map[string]string{"x": "z"})
}

func TestDoubleRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 2, FsyncNever)
	mustAppend(t, l, put(0, 1, "a", "1"))
	mustAppend(t, l, &Frame{
		Shards: []ShardLSN{{Shard: 0, LSN: 2}, {Shard: 1, LSN: 1}},
		Ops:    []Op{{Shard: 0, Key: "b", Val: []byte("2")}, {Shard: 1, Key: "c", Val: []byte("3")}},
	})
	if err := l.Snapshot(0, 2, map[string][]byte{"a": []byte("1"), "b": []byte("2")}); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, put(1, 2, "d", "4"))
	l.Close()
	// Tear the tail of the log so recovery exercises its stop path.
	segs := findSegments(t, dir)
	last := segs[len(segs)-1]
	if b, _ := os.ReadFile(last); len(b) > 2 {
		os.WriteFile(last, b[:len(b)-2], 0o644)
	}
	st1, err := Recover(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := Recover(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Recover must not have modified the directory: identical outcomes.
	if !reflect.DeepEqual(st1.Keys, st2.Keys) ||
		!reflect.DeepEqual(st1.NextLSN, st2.NextLSN) ||
		st1.ReplayedFrames != st2.ReplayedFrames ||
		st1.TruncatedBytes != st2.TruncatedBytes {
		t.Fatalf("recoveries differ:\n1: %+v\n2: %+v", st1, st2)
	}
}

func TestRecoverRejectsSnapshotGap(t *testing.T) {
	// A snapshot covering LSNs ≤ 2 with the only surviving segment
	// starting at LSN 4: the covered range is gone (e.g. the newest
	// snapshot rotted after its truncation ran and recovery fell back).
	// Replaying the disconnected suffix would silently lose LSN 3, so
	// recovery must refuse instead of producing wrong state.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName(0, 2)),
		encodeSnapshot(0, 2, 0, map[string][]byte{"a": []byte("1")}), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(7)),
		appendFrame(nil, put(0, 4, "b", "2")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir, 1); !errors.Is(err, ErrGap) || !strings.Contains(err.Error(), "unrecoverable gap") {
		t.Fatalf("Recover of a log disconnected from its snapshot = %v, want the unrecoverable-gap error", err)
	}
	// Same gap with no snapshot at all: a first frame past LSN 1.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, segmentName(1)),
		appendFrame(nil, put(0, 2, "b", "2")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir2, 1); !errors.Is(err, ErrGap) {
		t.Fatalf("Recover of a log with no connected base = %v, want the unrecoverable-gap error", err)
	}
	// A shard whose other frames do connect does not excuse the one that
	// does not: shard 1 starts at LSN 3 behind a healthy shard 0.
	dir3 := t.TempDir()
	b := appendFrame(nil, put(0, 1, "a", "1"))
	b = appendFrame(b, put(1, 3, "b", "2"))
	if err := os.WriteFile(filepath.Join(dir3, segmentName(1)), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir3, 2); !errors.Is(err, ErrGap) {
		t.Fatalf("Recover with a disconnected second shard = %v, want the unrecoverable-gap error", err)
	}
}

func TestAppendRejectsBadShardVector(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 2, FsyncNever)
	bad := &Frame{
		Shards: []ShardLSN{{Shard: 0, LSN: 1}, {Shard: 5, LSN: 1}},
		Ops:    []Op{{Shard: 0, Key: "a", Val: []byte("0")}},
	}
	if err := l.Append(bad); err == nil {
		t.Fatal("Append accepted an out-of-range shard")
	}
	// The log does not reorder a caller's vector: unsorted and
	// duplicate-shard vectors are rejected, and the slice comes back as it
	// went in.
	unsorted := []ShardLSN{{Shard: 1, LSN: 1}, {Shard: 0, LSN: 1}}
	if err := l.Append(&Frame{Shards: unsorted, Ops: bad.Ops}); err == nil {
		t.Fatal("Append accepted an unsorted vector")
	}
	if unsorted[0].Shard != 1 || unsorted[1].Shard != 0 {
		t.Fatalf("Append reordered the caller's vector: %v", unsorted)
	}
	dup := []ShardLSN{{Shard: 0, LSN: 1}, {Shard: 0, LSN: 2}}
	if err := l.Append(&Frame{Shards: dup, Ops: bad.Ops}); err == nil {
		t.Fatal("Append accepted a vector naming shard 0 twice")
	}
	if err := l.Append(&Frame{Ops: bad.Ops}); err == nil {
		t.Fatal("Append accepted an empty vector")
	}
	// The malformed frames must not have touched the log: the real LSN-1
	// append must land, stabilize, and survive recovery.
	mustAppend(t, l, put(0, 1, "a", "1"))
	if err := waitStable(l, 0, 1); err != nil {
		t.Fatalf("WaitStable after rejected frame: %v", err)
	}
	// An LSN the log already handed out is refused, never acked unwritten.
	if err := l.Append(put(0, 1, "a", "again")); err == nil {
		t.Fatal("Append acknowledged a frame whose only LSN was already logged")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, st, 0, map[string]string{"a": "1"})
	if st.ReplayedFrames != 1 || st.TruncatedBytes != 0 {
		t.Fatalf("replayed=%d truncated=%d, want 1 0", st.ReplayedFrames, st.TruncatedBytes)
	}
}

func TestManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 2, FsyncNever)
	l.Close()
	if _, _, err := Open(Config{Dir: dir, Shards: 3}); err == nil {
		t.Fatal("Open with wrong shard count succeeded")
	}
	if _, err := Recover(dir, 3); err == nil {
		t.Fatal("Recover with wrong shard count succeeded")
	}
}

// TestV1DirectoryRefused: a directory sealed by the per-shard-log layout
// is refused loudly by Open and Recover alike, naming the reason — there
// is no dual-format reader to fall back on.
func TestV1DirectoryRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("nztm-wal v1 shards 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A v1 shard log that a careless reader could mistake for a segment.
	if err := os.WriteFile(filepath.Join(dir, "wal-000-0000000000000001.log"),
		appendFrame(nil, put(0, 1, "a", "1")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(Config{Dir: dir, Shards: 2})
	if err == nil || !strings.Contains(err.Error(), "v1") || !strings.Contains(err.Error(), "one log per shard") {
		t.Fatalf("Open of a v1 directory = %v, want a refusal naming the v1 per-shard layout", err)
	}
	if _, err := Recover(dir, 2); err == nil || !strings.Contains(err.Error(), "v1") {
		t.Fatalf("Recover of a v1 directory = %v, want a refusal naming v1", err)
	}
	if mf, _ := os.ReadFile(filepath.Join(dir, manifestName)); string(mf) != "nztm-wal v1 shards 2\n" {
		t.Fatalf("refused Open rewrote the MANIFEST to %q", mf)
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openLog(t, dir, 1, p)
			for i := uint64(1); i <= 10; i++ {
				mustAppend(t, l, put(0, i, fmt.Sprintf("k%d", i), "v"))
			}
			if p == FsyncInterval {
				time.Sleep(120 * time.Millisecond) // let the syncer tick
			}
			if err := waitStable(l, 0, 10); err != nil {
				t.Fatalf("WaitStable: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			st, err := Recover(dir, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Keys[0]) != 10 {
				t.Fatalf("recovered %d keys, want 10", len(st.Keys[0]))
			}
			if p == FsyncAlways && l.Stats().Fsyncs.Load() == 0 {
				t.Fatal("fsync=always issued no fsyncs")
			}
		})
	}
	if _, err := ParseFsyncPolicy("bogus"); err == nil {
		t.Fatal("ParseFsyncPolicy accepted bogus")
	}
	for _, s := range []string{"always", "interval", "never"} {
		p, err := ParseFsyncPolicy(s)
		if err != nil || p.String() != s {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", s, p, err)
		}
	}
}

func TestSnapshotTruncatesCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 1, FsyncNever)
	for i := uint64(1); i <= 4; i++ {
		mustAppend(t, l, put(0, i, fmt.Sprintf("k%d", i), "v"))
	}
	if err := l.Snapshot(0, 4, map[string][]byte{
		"k1": []byte("v"), "k2": []byte("v"), "k3": []byte("v"), "k4": []byte("v"),
	}); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, put(0, 5, "k5", "v"))
	if err := l.Snapshot(0, 5, map[string][]byte{
		"k1": []byte("v"), "k2": []byte("v"), "k3": []byte("v"), "k4": []byte("v"), "k5": []byte("v"),
	}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Exactly one snapshot survives, and no segment holding LSNs ≤ 5.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-000-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("snapshots: %v", snaps)
	}
	if frames := fileOrder(t, dir); len(frames) != 0 {
		t.Fatalf("covered frames survived truncation: %v", frames)
	}
	if l.Stats().RemovedFiles.Load() == 0 {
		t.Fatal("no covered files were removed")
	}
	st, err := Recover(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Keys[0]) != 5 || st.NextLSN[0] != 6 {
		t.Fatalf("keys=%d NextLSN=%d", len(st.Keys[0]), st.NextLSN[0])
	}
}

// TestRotationFlushInBackground: rotation swaps in the fresh segment
// immediately and flushes the outgoing one off the append path. Appends
// right after a rotation must proceed (and, under FsyncAlways, become
// durable) while the old segment's flush is still allowed to be in
// flight, and everything must survive recovery.
func TestRotationFlushInBackground(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncNever} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openLog(t, dir, 1, p)
			state := map[string][]byte{}
			lsn := uint64(0)
			for round := 0; round < 3; round++ {
				for i := 0; i < 5; i++ {
					lsn++
					k := fmt.Sprintf("k%d", lsn)
					mustAppend(t, l, put(0, lsn, k, "v"))
					state[k] = []byte("v")
				}
				// Snapshot rotates the segment; the next round's appends land
				// in the fresh one while the flush may still be running.
				snap := make(map[string][]byte, len(state))
				for k, v := range state {
					snap[k] = v
				}
				if err := l.Snapshot(0, lsn, snap); err != nil {
					t.Fatalf("Snapshot round %d: %v", round, err)
				}
			}
			lsn++
			mustAppend(t, l, put(0, lsn, "tail", "v"))
			if err := waitStable(l, 0, lsn); err != nil {
				t.Fatalf("WaitStable: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			st, err := Recover(dir, 1)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if len(st.Keys[0]) != len(state)+1 {
				t.Fatalf("recovered %d keys, want %d", len(st.Keys[0]), len(state)+1)
			}
			if st.NextLSN[0] != lsn+1 {
				t.Fatalf("NextLSN = %d, want %d", st.NextLSN[0], lsn+1)
			}
		})
	}
}
