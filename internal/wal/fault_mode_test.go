package wal_test

// Mode-machine and recovery tests under injected disk faults: the wal
// package drives every file operation through its FS seam, so these
// tests stack fault.Disk (prob=1 at one site) over the real filesystem
// and assert the degradation contract from DESIGN.md §17 — ENOSPC
// degrades to read-only, a failed fsync fail-stops the whole log, any
// other write error stays a sticky per-shard poison, and recovery
// fails LOUDLY on I/O errors instead of silently truncating at an
// unreadable byte. They live in an external test package because
// fault imports wal.

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"nztm/internal/fault"
	"nztm/internal/wal"
)

// diskAt builds an armed fault plane that fires on every visit to one
// site and nowhere else.
func diskAt(site fault.DiskSite) *fault.Disk {
	var probs [fault.DiskSiteCount]float64
	probs[site] = 1
	d := fault.NewDiskFS(fault.DiskConfig{Seed: 1, Probs: probs, Output: io.Discard}, wal.OSFS())
	return d
}

// openFaulty opens a fresh log over a disarmed fault plane (so Open
// itself always succeeds), then arms it.
func openFaulty(t *testing.T, site fault.DiskSite, policy wal.FsyncPolicy) (*wal.Log, *fault.Disk) {
	t.Helper()
	d := diskAt(site)
	l, _, err := wal.Open(wal.Config{Dir: t.TempDir(), Shards: 2, Fsync: policy, FS: d})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { d.Disarm(); l.Close() })
	d.Arm()
	return l, d
}

func frameAtLSN(shard int, lsn uint64) *wal.Frame {
	return &wal.Frame{
		Shards: []wal.ShardLSN{{Shard: shard, LSN: lsn}},
		Ops:    []wal.Op{{Shard: shard, Key: "k", Val: []byte("v")}},
	}
}

func TestENOSPCEntersReadOnly(t *testing.T) {
	l, d := openFaulty(t, fault.DiskWriteENOSPC, wal.FsyncAlways)
	err := l.Append(frameAtLSN(0, 1))
	if err == nil {
		t.Fatal("Append succeeded through an ENOSPC write")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Append error %v, want ENOSPC", err)
	}
	if !l.ReadOnly() || l.Mode() != "read-only" {
		t.Fatalf("ReadOnly=%v Mode=%q after ENOSPC, want read-only", l.ReadOnly(), l.Mode())
	}
	if err := l.Degraded(); !errors.Is(err, wal.ErrReadOnly) {
		t.Fatalf("Degraded() = %v, want ErrReadOnly", err)
	}
	// Later appends are shed before any byte is logged: clean refusal.
	if err := l.Append(frameAtLSN(1, 1)); !errors.Is(err, wal.ErrReadOnly) {
		t.Fatalf("post-degrade Append = %v, want ErrReadOnly", err)
	}
	if got := l.Stats().ReadOnlyTrips.Load(); got != 1 {
		t.Fatalf("ReadOnlyTrips = %d, want 1", got)
	}
	if d.Stats().WriteENOSPC.Load() == 0 {
		t.Fatal("fault plane reports no ENOSPC injection")
	}
}

func TestSyncErrorFailStops(t *testing.T) {
	l, d := openFaulty(t, fault.DiskSync, wal.FsyncAlways)
	err := l.Append(frameAtLSN(0, 1))
	if err == nil {
		t.Fatal("Append acked through a failed fsync")
	}
	if l.Mode() != "failed" {
		t.Fatalf("Mode = %q after sync failure, want failed", l.Mode())
	}
	if ferr := l.Failed(); ferr == nil {
		t.Fatal("Failed() = nil after fsync error")
	}
	if err := l.Degraded(); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("Degraded() = %v, want ErrFailed", err)
	}
	// Fail-stop is whole-log: an untouched shard fails fast too, and
	// WaitStable never wedges on a prefix that cannot become durable.
	if err := l.Append(frameAtLSN(1, 1)); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("post-fail-stop Append = %v, want ErrFailed", err)
	}
	if err := l.WaitStable([]wal.ShardLSN{{Shard: 0, LSN: 1}}); err == nil {
		t.Fatal("WaitStable(unstable LSN) = nil on a failed log")
	}
	if got := l.Stats().FailStops.Load(); got != 1 {
		t.Fatalf("FailStops = %d, want 1", got)
	}
	if d.Stats().SyncFailures.Load() == 0 {
		t.Fatal("fault plane reports no sync injection")
	}
}

func TestWriteEIOFailStops(t *testing.T) {
	l, _ := openFaulty(t, fault.DiskWriteEIO, wal.FsyncNever)
	err := l.Append(frameAtLSN(0, 1))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("Append = %v, want EIO", err)
	}
	// With one log there is no healthy sibling to keep serving: a
	// non-ENOSPC write error fail-stops the log like a sync error, so
	// nothing is ever written past the torn frame.
	if l.Mode() != "failed" {
		t.Fatalf("Mode = %q after a write EIO, want failed", l.Mode())
	}
	if err := l.Append(frameAtLSN(1, 1)); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("Append to another shard of a failed log = %v, want ErrFailed", err)
	}
	if got := l.Stats().WriteErrors.Load(); got == 0 {
		t.Fatal("WriteErrors = 0 after injected EIO")
	}
	if got := l.Stats().FailStops.Load(); got != 1 {
		t.Fatalf("FailStops = %d, want 1", got)
	}
}

// TestInstallSnapshotRenameFailureFailStops: the follower has already
// replaced the shard in memory when the install runs, so a snapshot that
// cannot be published leaves a log that no longer describes the store.
// The mode and the sticky error must agree — never "ok" with every
// append failing.
func TestInstallSnapshotRenameFailureFailStops(t *testing.T) {
	l, d := openFaulty(t, fault.DiskRename, wal.FsyncNever)
	if err := l.InstallSnapshot(0, 5, map[string][]byte{"k": []byte("v")}, false); err == nil {
		t.Fatal("InstallSnapshot succeeded through a failed rename")
	}
	if d.Stats().RenameFails.Load() == 0 {
		t.Fatal("fault plane reports no rename injection")
	}
	if l.Mode() != "failed" || !errors.Is(l.Degraded(), wal.ErrFailed) {
		t.Fatalf("Mode=%q Degraded=%v after a failed install, want failed", l.Mode(), l.Degraded())
	}
	if err := l.Append(frameAtLSN(0, 1)); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("post-failure Append = %v, want ErrFailed", err)
	}
	if got := l.Stats().FailStops.Load(); got != 1 {
		t.Fatalf("FailStops = %d, want 1", got)
	}
}

func TestShortWritePromotedToError(t *testing.T) {
	l, _ := openFaulty(t, fault.DiskWriteShort, wal.FsyncNever)
	// The injected write reports success with only a prefix written;
	// writeFull must promote that to an error, never ack a torn frame.
	if err := l.Append(frameAtLSN(0, 1)); err == nil {
		t.Fatal("Append acked through a short write")
	}
	if l.Mode() != "failed" {
		t.Fatalf("Mode = %q after a short write, want failed", l.Mode())
	}
}

func TestOnDegradeFiresOncePerTransition(t *testing.T) {
	d := diskAt(fault.DiskSync)
	var calls []bool
	l, _, err := wal.Open(wal.Config{
		Dir: t.TempDir(), Shards: 2, Fsync: wal.FsyncAlways, FS: d,
		OnDegrade: func(failed bool, cause error) { calls = append(calls, failed) },
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { d.Disarm(); l.Close() }()
	d.Arm()
	if err := l.Append(frameAtLSN(0, 1)); err == nil {
		t.Fatal("Append acked through a failed fsync")
	}
	// The second append hits the gate, not a fresh transition: no second call.
	if err := l.Append(frameAtLSN(1, 1)); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("post-fail-stop Append = %v, want ErrFailed", err)
	}
	if len(calls) != 1 || !calls[0] {
		t.Fatalf("OnDegrade calls = %v, want exactly [true]", calls)
	}
}

// seedLog writes a few durable frames with the real filesystem and
// closes the log, returning the directory.
func seedLog(t *testing.T, shards int) string {
	t.Helper()
	dir := t.TempDir()
	l, _, err := wal.Open(wal.Config{Dir: dir, Shards: shards, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for lsn := uint64(1); lsn <= 3; lsn++ {
		if err := l.Append(frameAtLSN(0, lsn)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir
}

func TestRecoverReadErrorIsLoud(t *testing.T) {
	dir := seedLog(t, 1)
	// EIO mid-stream: unlike a torn tail (repaired silently), a read
	// error must fail recovery — truncating at an unreadable byte would
	// drop acknowledged writes that are still on disk.
	d := diskAt(fault.DiskRead)
	d.Arm()
	if _, err := wal.RecoverFS(d, dir, 1); err == nil {
		t.Fatal("RecoverFS succeeded through injected read EIOs")
	}
}

func TestRecoverOpenErrorIsLoud(t *testing.T) {
	dir := seedLog(t, 1)
	d := diskAt(fault.DiskOpen)
	d.Arm()
	if _, err := wal.RecoverFS(d, dir, 1); err == nil {
		t.Fatal("RecoverFS succeeded through injected open EIOs")
	}
}

func TestRecoverThroughDisarmedPlane(t *testing.T) {
	dir := seedLog(t, 1)
	// Disarmed is pure passthrough: a restarting process always recovers
	// even with every probability at 1.
	var probs [fault.DiskSiteCount]float64
	for i := range probs {
		probs[i] = 1
	}
	d := fault.NewDiskFS(fault.DiskConfig{Seed: 1, Probs: probs, Output: io.Discard}, wal.OSFS())
	st, err := wal.RecoverFS(d, dir, 1)
	if err != nil {
		t.Fatalf("RecoverFS through disarmed plane: %v", err)
	}
	if st.NextLSN[0] != 4 {
		t.Fatalf("NextLSN[0] = %d, want 4", st.NextLSN[0])
	}
	if d.Stats().Injected() != 0 {
		t.Fatalf("disarmed plane injected %d faults", d.Stats().Injected())
	}
}

func TestOpenRemovesOrphanedTempFiles(t *testing.T) {
	dir := seedLog(t, 1)
	// A crash between CreateTemp and the publishing rename leaves
	// tmp-snap-* orphans; reopening must delete them.
	for _, name := range []string{"tmp-snap-000-1234", "tmp-other-leftover"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatalf("plant %s: %v", name, err)
		}
	}
	l, _, err := wal.Open(wal.Config{Dir: dir, Shards: 1, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range entries {
		if len(e.Name()) >= 4 && e.Name()[:4] == "tmp-" {
			t.Fatalf("orphaned temp file %s survived Open", e.Name())
		}
	}
}
