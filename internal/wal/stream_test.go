package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// collect drains a StreamReader over a one-shard log, returning the
// LSNs of the yielded frames and the terminal error.
func collect(r *StreamReader) ([]uint64, error) {
	var lsns []uint64
	for {
		e, err := r.Next()
		if err != nil {
			return lsns, err
		}
		lsns = append(lsns, e.Frame.Shards[0].LSN)
	}
}

func wantLSNs(t *testing.T, got []uint64, first, last uint64) {
	t.Helper()
	if first > last {
		if len(got) != 0 {
			t.Fatalf("got %d frames %v, want none", len(got), got)
		}
		return
	}
	if uint64(len(got)) != last-first+1 {
		t.Fatalf("got %d frames %v, want %d..%d", len(got), got, first, last)
	}
	for i, lsn := range got {
		if lsn != first+uint64(i) {
			t.Fatalf("frame %d has lsn %d, want %d (all: %v)", i, lsn, first+uint64(i), got)
		}
	}
}

// streamFixture builds a one-shard log of frames 1..frames, rotating
// every rotateEvery frames, and returns the log still open.
func streamFixture(t *testing.T, dir string, frames int, rotateEvery int) *Log {
	t.Helper()
	l, _ := openLog(t, dir, 1, FsyncNever)
	for i := 1; i <= frames; i++ {
		mustAppend(t, l, put(0, uint64(i), "k", "v"))
		if rotateEvery > 0 && i%rotateEvery == 0 {
			forceRotate(t, l)
		}
	}
	return l
}

// chainRefs lists dir's segment chain from the file names.
func chainRefs(t *testing.T, dir string) []SegmentRef {
	t.Helper()
	var refs []SegmentRef
	for _, p := range findSegments(t, dir) {
		seq, _ := parseSegmentName(filepath.Base(p))
		refs = append(refs, SegmentRef{Seq: seq, Path: p})
	}
	return refs
}

func TestStreamReaderAcrossRotations(t *testing.T) {
	dir := t.TempDir()
	l := streamFixture(t, dir, 10, 3) // segments: 1-3, 4-6, 7-9, 10
	defer l.Close()
	refs := chainRefs(t, dir)
	if len(refs) != 4 {
		t.Fatalf("expected 4 segments after rotations, got %v", refs)
	}
	got, err := collect(NewStreamReader(refs))
	if !errors.Is(err, io.EOF) {
		t.Fatalf("terminal error %v, want io.EOF", err)
	}
	wantLSNs(t, got, 1, 10)

	// OpenStream skips whole leading segments the reader's position
	// already covers, and nothing else: frames come back from the first
	// segment that holds anything above it.
	for have, first := range map[uint64]uint64{0: 1, 2: 1, 3: 4, 5: 4, 9: 10, 10: 10} {
		sr := l.OpenStream([]uint64{have})
		got, err := collect(sr)
		sr.Close()
		if !errors.Is(err, io.EOF) {
			t.Fatalf("have %d: terminal error %v, want io.EOF", have, err)
		}
		wantLSNs(t, got, first, 10)
	}
}

// TestStreamReaderTailsLiveLog: a reader opened before a rotation keeps
// going across it — it learns of the new segment at the old one's end,
// re-reads the old one once, and moves on, losing nothing.
func TestStreamReaderTailsLiveLog(t *testing.T) {
	dir := t.TempDir()
	l := streamFixture(t, dir, 2, 0)
	defer l.Close()
	sr := l.OpenStream([]uint64{0})
	defer sr.Close()
	got, err := collect(sr)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("terminal error %v, want io.EOF at the live tail", err)
	}
	wantLSNs(t, got, 1, 2)
	mustAppend(t, l, put(0, 3, "k", "v")) // lands in the segment the reader sits at the end of
	forceRotate(t, l)
	mustAppend(t, l, put(0, 4, "k", "v"))
	forceRotate(t, l)
	mustAppend(t, l, put(0, 5, "k", "v"))
	got, err = collect(sr)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("terminal error %v after rotations, want io.EOF", err)
	}
	wantLSNs(t, got, 3, 5)
}

func TestStreamReaderTornTail(t *testing.T) {
	dir := t.TempDir()
	l := streamFixture(t, dir, 5, 0)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	refs := chainRefs(t, dir)
	path := refs[0].Path
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last frame: drop its final 3 bytes.
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	sr := NewStreamReader(refs)
	got, terr := collect(sr)
	if !errors.Is(terr, ErrTorn) {
		t.Fatalf("terminal error %v, want ErrTorn", terr)
	}
	wantLSNs(t, got, 1, 4)
	seg, off := sr.Pos()
	if seg != 0 || off <= 0 || off >= fi.Size()-3 {
		t.Fatalf("Pos = (%d, %d), want segment 0 at the start of the torn frame", seg, off)
	}

	// Live-tailing contract: ErrTorn is retriable. Complete the frame by
	// re-appending its missing tail and Next must yield it.
	f5 := EncodeFrame(nil, put(0, 5, "k", "v"))
	fh, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteAt(f5, off); err != nil {
		t.Fatal(err)
	}
	fh.Close()
	e, err := sr.Next()
	if err != nil || e.Frame.Shards[0].LSN != 5 {
		t.Fatalf("Next after tail completion = (%+v, %v), want lsn 5", e.Frame, err)
	}
	if string(e.Raw) != string(f5) {
		t.Fatal("Raw is not the frame's bytes as they sit on disk")
	}
	if _, err := sr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF after last frame, got %v", err)
	}
}

func TestStreamReaderCorrupt(t *testing.T) {
	dir := t.TempDir()
	l := streamFixture(t, dir, 5, 0)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	refs := chainRefs(t, dir)
	b, err := os.ReadFile(refs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the middle of the file (inside frame 3 or so).
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(refs[0].Path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	sr := NewStreamReader(refs)
	got, terr := collect(sr)
	if !errors.Is(terr, ErrCorrupt) {
		t.Fatalf("terminal error %v, want ErrCorrupt", terr)
	}
	if len(got) >= 5 {
		t.Fatalf("yielded all %d frames despite corruption", len(got))
	}
	// Corrupt is sticky: retrying must not succeed.
	if _, err := sr.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sticky error %v, want ErrCorrupt", err)
	}
}

func TestStreamReaderSegmentGap(t *testing.T) {
	dir := t.TempDir()
	l := streamFixture(t, dir, 9, 3) // segments 1-3, 4-6, 7-9, then an empty one
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	refs := chainRefs(t, dir)
	if len(refs) != 4 {
		t.Fatalf("want 4 segments, got %v", refs)
	}
	// Excise the middle segment, as a lost file would.
	if err := os.Remove(refs[1].Path); err != nil {
		t.Fatal(err)
	}
	sr := NewStreamReader(append([]SegmentRef{refs[0]}, refs[2:]...))
	got, terr := collect(sr)
	if !errors.Is(terr, ErrGap) {
		t.Fatalf("terminal error %v, want ErrGap", terr)
	}
	wantLSNs(t, got, 1, 3)
	if seg, off := sr.Pos(); seg != 1 || off != 0 {
		t.Fatalf("Pos = (%d, %d), want (1, 0) at the gapped segment head", seg, off)
	}
	// Recovery stops at the gap: the prefix before it is the state, and
	// Open repairs the directory so appending resumes right there.
	l2, st := openLog(t, dir, 1, FsyncNever)
	defer l2.Close()
	if st.NextLSN[0] != 4 || st.TruncatedBytes == 0 {
		t.Fatalf("NextLSN = %d truncated = %d, want the cut at lsn 4", st.NextLSN[0], st.TruncatedBytes)
	}
	mustAppend(t, l2, put(0, 4, "k", "again"))
	got, terr = collect(NewStreamReader(chainRefs(t, dir)))
	if !errors.Is(terr, io.EOF) {
		t.Fatalf("terminal error %v on the repaired log, want io.EOF", terr)
	}
	wantLSNs(t, got, 1, 4)
}

func TestStableVectorAndNotify(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 2, FsyncNever)
	defer l.Close()
	ch := make(chan struct{}, 1)
	l.NotifyStable(ch)
	defer l.StopNotify(ch)

	mustAppend(t, l, &Frame{
		Shards: []ShardLSN{{Shard: 0, LSN: 1}, {Shard: 1, LSN: 1}},
		Ops:    []Op{{Shard: 0, Key: "a", Val: []byte("1")}},
	})
	select {
	case <-ch:
	default:
		t.Fatal("no stable notification after Append")
	}
	if v := l.StableVector(); len(v) != 2 || v[0] != 1 || v[1] != 1 {
		t.Fatalf("StableVector = %v, want [1 1]", v)
	}
}

func TestInstallSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 2, FsyncNever)
	mustAppend(t, l, put(0, 1, "old", "x"))
	mustAppend(t, l, put(1, 1, "other", "y"))
	// Catch-up: install a snapshot far past the shard's position, as a
	// follower whose primary truncated long ago would. The chain stays —
	// shard 1's frame is still needed — and shard 0's frame in it becomes
	// a covered leftover.
	keys := map[string][]byte{"k1": []byte("v1"), "k2": []byte("v2")}
	if err := l.InstallSnapshot(snapshotOf(t, 0, 100, 0, keys), false); err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
	if got := l.StableVector(); got[0] != 100 || got[1] != 1 {
		t.Fatalf("StableVector = %v, want [100 1]", got)
	}
	if n := len(fileOrder(t, dir)); n != 2 {
		t.Fatalf("catch-up install left %d frames on disk, want both", n)
	}
	// Appending resumes at 101.
	mustAppend(t, l, put(0, 101, "k3", "v3"))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st, err := Recover(dir, 2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	wantKeys(t, st, 0, map[string]string{"k1": "v1", "k2": "v2", "k3": "v3"})
	wantKeys(t, st, 1, map[string]string{"other": "y"})
	if st.NextLSN[0] != 102 || st.SnapshotLSN[0] != 100 {
		t.Fatalf("NextLSN[0]=%d SnapshotLSN[0]=%d, want 102/100", st.NextLSN[0], st.SnapshotLSN[0])
	}
}

// TestInstallSnapshotResyncDropsChain: a resync bootstrap re-seeds every
// shard, so its first install drops the whole chain — whether the shard
// is ahead of the snapshot (a diverged tail) or behind it — and the later
// installs of the same bootstrap find it empty and drop nothing more.
func TestInstallSnapshotResyncDropsChain(t *testing.T) {
	for _, lsn := range []uint64{1, 5} { // shard 0 is at 3: ahead, then behind
		t.Run(fmt.Sprintf("lsn=%d", lsn), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openLog(t, dir, 2, FsyncNever)
			for i := uint64(1); i <= 3; i++ {
				mustAppend(t, l, put(0, i, "k", "diverged"))
			}
			forceRotate(t, l)
			mustAppend(t, l, put(1, 1, "other", "diverged"))
			if err := l.InstallSnapshot(snapshotOf(t, 0, lsn, 0, map[string][]byte{"k": []byte("primary")}), true); err != nil {
				t.Fatalf("InstallSnapshot: %v", err)
			}
			if frames := fileOrder(t, dir); len(frames) != 0 {
				t.Fatalf("frames still readable after the install: %v", frames)
			}
			removed := l.Stats().RemovedFiles.Load()
			if err := l.InstallSnapshot(snapshotOf(t, 1, 7, 0, map[string][]byte{"other": []byte("primary")}), true); err != nil {
				t.Fatalf("second InstallSnapshot: %v", err)
			}
			if got := l.Stats().RemovedFiles.Load(); got != removed {
				t.Fatalf("second install of the bootstrap removed %d more files", got-removed)
			}
			mustAppend(t, l, put(0, lsn+1, "k2", "v"))
			mustAppend(t, l, put(1, 8, "other2", "v"))
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			st, err := Recover(dir, 2)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			wantKeys(t, st, 0, map[string]string{"k": "primary", "k2": "v"})
			wantKeys(t, st, 1, map[string]string{"other": "primary", "other2": "v"})
			if st.NextLSN[0] != lsn+2 || st.NextLSN[1] != 9 {
				t.Fatalf("NextLSN = %v, want [%d 9]", st.NextLSN, lsn+2)
			}
		})
	}
}

// TestInstallSnapshotBehindRefused: outside a resync the other shards
// are not re-seeded, so the chain — the only copy of their frames — must
// stay. A snapshot below the shard's position is refused, nothing
// changes, and the log keeps serving.
func TestInstallSnapshotBehindRefused(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 2, FsyncNever)
	for i := uint64(1); i <= 3; i++ {
		mustAppend(t, l, put(0, i, fmt.Sprintf("k%d", i), "v"))
	}
	mustAppend(t, l, put(1, 1, "other", "y"))
	err := l.InstallSnapshot(snapshotOf(t, 0, 1, 0, map[string][]byte{"k1": []byte("primary")}), false)
	if !errors.Is(err, ErrSnapshotBehind) {
		t.Fatalf("InstallSnapshot below the position = %v, want ErrSnapshotBehind", err)
	}
	if err := l.Degraded(); err != nil {
		t.Fatalf("refused install stopped the log: %v", err)
	}
	if n := len(fileOrder(t, dir)); n != 4 {
		t.Fatalf("refused install left %d frames on disk, want 4", n)
	}
	mustAppend(t, l, put(0, 4, "k4", "v"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir, 2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	wantKeys(t, st, 0, map[string]string{"k1": "v", "k2": "v", "k3": "v", "k4": "v"})
	wantKeys(t, st, 1, map[string]string{"other": "y"})
	if st.SnapshotLSN[0] != 0 {
		t.Fatalf("refused install sealed a snapshot at %d", st.SnapshotLSN[0])
	}
}
