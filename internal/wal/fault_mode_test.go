package wal_test

// The stop rule and recovery under injected disk faults: the wal
// package drives every file operation through its FS seam, so these
// tests stack fault.Disk (prob=1 at one site) over the real filesystem
// and assert the storage contract from DESIGN.md §17.3 — any write,
// short-write, ENOSPC or fsync error on the log stops it, a stopped log
// refuses every later append with ErrReadOnly and fails every wait its
// durable prefix cannot satisfy, an ENOSPC on a snapshot file stops it
// without failing admitted frames, any other snapshot error fails only
// that snapshot, and recovery fails LOUDLY on I/O errors instead of
// silently truncating at an unreadable byte. They live in an external
// test package because fault imports wal.

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"nztm/internal/fault"
	"nztm/internal/wal"
)

// diskAt builds an armed fault plane that fires on every visit to one
// site and nowhere else.
func diskAt(site fault.DiskSite) *fault.Disk {
	return diskOver(site, wal.OSFS())
}

func diskOver(site fault.DiskSite, inner wal.FS) *fault.Disk {
	var probs [fault.DiskSiteCount]float64
	probs[site] = 1
	return fault.NewDiskFS(fault.DiskConfig{Seed: 1, Probs: probs, Output: io.Discard}, inner)
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

// syncGate holds one segment fsync until released, so a test can keep a
// written frame in flight. Snapshot temp files (CreateTemp) pass
// through ungated.
type syncGate struct {
	wal.FS
	armed   atomic.Bool
	held    chan struct{} // closed once a sync is being held
	release chan struct{}
	once    sync.Once
}

func newSyncGate() *syncGate {
	return &syncGate{FS: wal.OSFS(), held: make(chan struct{}), release: make(chan struct{})}
}

func (g *syncGate) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return gatedFile{f, g}, nil
}

type gatedFile struct {
	wal.File
	g *syncGate
}

func (f gatedFile) Sync() error {
	if f.g.armed.CompareAndSwap(true, false) {
		close(f.g.held)
		<-f.g.release
	}
	return f.File.Sync()
}

// inFlight runs an append in the background and returns once its frame
// is written and the covering fsync is held.
func (g *syncGate) inFlight(appendFrame func() error) <-chan error {
	g.armed.Store(true)
	done := make(chan error, 1)
	go func() { done <- appendFrame() }()
	<-g.held
	return done
}

func (g *syncGate) open() { g.once.Do(func() { close(g.release) }) }

// TestStopRule arms one site at a time and trips it either with a
// cohort written to the log or with a snapshot file. Every row that
// stops the log must stop it once (one OnDegrade call), refuse later
// appends with ErrReadOnly and keep its durable prefix; a snapshot
// trip must also let the frame already admitted before it finish.
func TestStopRule(t *testing.T) {
	writeErrs := func(s *wal.Stats) uint64 { return s.WriteErrors.Load() }
	for _, tc := range []struct {
		name     string
		site     fault.DiskSite
		policy   wal.FsyncPolicy
		snapshot bool  // trip the site with a snapshot of a durable prefix
		stops    bool  // the error stops the log
		want     error // the trip's error wraps it
		injected func(*fault.DiskStats) uint64
		observed func(*wal.Stats) uint64 // the log's count of the error; nil = not counted
	}{
		{"write-enospc", fault.DiskWriteENOSPC, wal.FsyncAlways, false, true, syscall.ENOSPC,
			func(s *fault.DiskStats) uint64 { return s.WriteENOSPC.Load() }, writeErrs},
		// With one log there is no healthy sibling to keep serving: a
		// non-ENOSPC write error stops the log like a sync error, so
		// nothing is ever written past the torn frame.
		{"write-eio", fault.DiskWriteEIO, wal.FsyncNever, false, true, syscall.EIO,
			func(s *fault.DiskStats) uint64 { return s.WriteEIO.Load() }, writeErrs},
		// The injected write reports success with only a prefix written;
		// writeFull must promote that to an error, never ack a torn frame.
		{"write-short", fault.DiskWriteShort, wal.FsyncNever, false, true, io.ErrShortWrite,
			func(s *fault.DiskStats) uint64 { return s.WriteShort.Load() }, writeErrs},
		{"snapshot-enospc", fault.DiskWriteENOSPC, wal.FsyncAlways, true, true, syscall.ENOSPC,
			func(s *fault.DiskStats) uint64 { return s.WriteENOSPC.Load() }, writeErrs},
		{"snapshot-eio", fault.DiskWriteEIO, wal.FsyncAlways, true, false, syscall.EIO,
			func(s *fault.DiskStats) uint64 { return s.WriteEIO.Load() }, writeErrs},
		{"snapshot-rename", fault.DiskRename, wal.FsyncAlways, true, false, syscall.EIO,
			func(s *fault.DiskStats) uint64 { return s.RenameFails.Load() }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := newSyncGate()
			d := diskOver(tc.site, gate)
			var causes []error
			l, _, err := wal.Open(wal.Config{
				Dir: t.TempDir(), Shards: 2, Fsync: tc.policy, FS: d,
				OnDegrade: func(cause error) { causes = append(causes, cause) },
			})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			t.Cleanup(func() { d.Disarm(); gate.open(); l.Close() })

			var trip error
			var admitted <-chan error
			if tc.snapshot {
				if err := l.Append(frameAtLSN(0, 1)); err != nil {
					t.Fatalf("Append: %v", err)
				}
				admitted = gate.inFlight(func() error { return l.Append(frameAtLSN(1, 1)) })
				d.Arm()
				trip = l.Snapshot(0, 1, map[string][]byte{"k": []byte("v")})
			} else {
				d.Arm()
				trip = l.Append(frameAtLSN(0, 1))
			}
			if !errors.Is(trip, tc.want) {
				t.Fatalf("tripping %s = %v, want %v", tc.site, trip, tc.want)
			}
			if tc.injected(d.Stats()) == 0 {
				t.Fatalf("fault plane reports no %s injection", tc.site)
			}
			if tc.observed != nil && tc.observed(l.Stats()) == 0 {
				t.Fatalf("the log counted no %s error", tc.site)
			}

			if tc.stops {
				if err := l.Degraded(); !errors.Is(err, wal.ErrReadOnly) {
					t.Fatalf("Degraded() = %v, want ErrReadOnly", err)
				}
				// The stop is whole-log: a shard the trip never touched is
				// refused before any byte is logged.
				next := frameAtLSN(1, 1)
				if tc.snapshot {
					next = frameAtLSN(0, 2)
				}
				if err := l.Append(next); !errors.Is(err, wal.ErrReadOnly) {
					t.Fatalf("Append after the stop = %v, want ErrReadOnly", err)
				}
				// The second append hit the gate, not a fresh stop.
				if len(causes) != 1 || causes[0] == nil {
					t.Fatalf("OnDegrade causes = %v, want exactly one", causes)
				}
			} else {
				if err := l.Degraded(); err != nil {
					t.Fatalf("a failed snapshot stopped the log: %v", err)
				}
				if len(causes) != 0 {
					t.Fatalf("OnDegrade causes = %v, want none", causes)
				}
			}
			if !tc.snapshot {
				// WaitStable never wedges on a prefix that cannot become
				// durable.
				if err := l.WaitStable([]wal.ShardLSN{{Shard: 0, LSN: 1}}); err == nil {
					t.Fatal("WaitStable(unstable LSN) = nil on a stopped log")
				}
				return
			}
			gate.open()
			if err := <-admitted; err != nil {
				t.Fatalf("frame admitted before the snapshot failed = %v, want it durable", err)
			}
			if !tc.stops {
				d.Disarm()
				if err := l.Append(frameAtLSN(0, 2)); err != nil {
					t.Fatalf("Append after a failed snapshot: %v", err)
				}
			}
		})
	}
}

// TestSyncErrorFailStops: a failed segment fsync stops the whole log —
// an untouched shard is refused too, and WaitStable never wedges on a
// prefix that cannot become durable.
func TestSyncErrorFailStops(t *testing.T) {
	l, d := openFaulty(t, fault.DiskSync, wal.FsyncAlways)
	if err := l.Append(frameAtLSN(0, 1)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Append through a failed fsync = %v, want EIO", err)
	}
	if err := l.Degraded(); !errors.Is(err, wal.ErrReadOnly) {
		t.Fatalf("Degraded() = %v, want ErrReadOnly", err)
	}
	if err := l.Append(frameAtLSN(1, 1)); !errors.Is(err, wal.ErrReadOnly) {
		t.Fatalf("post-stop Append = %v, want ErrReadOnly", err)
	}
	if err := l.WaitStable([]wal.ShardLSN{{Shard: 0, LSN: 1}}); err == nil {
		t.Fatal("WaitStable(unstable LSN) = nil on a stopped log")
	}
	if l.Stats().SyncFailures.Load() == 0 {
		t.Fatal("the log counted no sync failure")
	}
	if d.Stats().SyncFailures.Load() == 0 {
		t.Fatal("fault plane reports no sync injection")
	}
}

// TestOnDegradeFiresOncePerTransition: OnDegrade reports the stop once,
// with its cause; appends and waits refused afterwards hit the gate and
// fire nothing more.
func TestOnDegradeFiresOncePerTransition(t *testing.T) {
	d := diskAt(fault.DiskSync)
	var causes []error
	l, _, err := wal.Open(wal.Config{
		Dir: t.TempDir(), Shards: 2, Fsync: wal.FsyncAlways, FS: d,
		OnDegrade: func(cause error) { causes = append(causes, cause) },
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { d.Disarm(); l.Close() }()
	d.Arm()
	if err := l.Append(frameAtLSN(0, 1)); err == nil {
		t.Fatal("Append acked through a failed fsync")
	}
	if err := l.Append(frameAtLSN(1, 1)); !errors.Is(err, wal.ErrReadOnly) {
		t.Fatalf("post-stop Append = %v, want ErrReadOnly", err)
	}
	if err := l.WaitStable([]wal.ShardLSN{{Shard: 1, LSN: 1}}); err == nil {
		t.Fatal("WaitStable(unstable LSN) = nil on a stopped log")
	}
	if len(causes) != 1 || !errors.Is(causes[0], syscall.EIO) {
		t.Fatalf("OnDegrade causes = %v, want exactly one EIO", causes)
	}
}

// TestInstallSnapshotRenameFailureFailStops: the follower has already
// replaced the shard in memory when the install runs, so a snapshot that
// cannot be published leaves a log that no longer describes the store.
// The log must stop — never accept appends it can no longer describe.
func TestInstallSnapshotRenameFailureFailStops(t *testing.T) {
	l, d := openFaulty(t, fault.DiskRename, wal.FsyncNever)
	if err := l.InstallSnapshot(0, 5, 0, map[string][]byte{"k": []byte("v")}, false); err == nil {
		t.Fatal("InstallSnapshot succeeded through a failed rename")
	}
	if d.Stats().RenameFails.Load() == 0 {
		t.Fatal("fault plane reports no rename injection")
	}
	if err := l.Degraded(); !errors.Is(err, wal.ErrReadOnly) {
		t.Fatalf("Degraded() = %v after a failed install, want ErrReadOnly", err)
	}
	if err := l.Append(frameAtLSN(0, 1)); !errors.Is(err, wal.ErrReadOnly) {
		t.Fatalf("post-failure Append = %v, want ErrReadOnly", err)
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
