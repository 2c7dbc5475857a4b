package wal

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
)

// stopFS passes operations to the real filesystem until its at-th one
// (counting from 0), which fails with every later one: the directory is
// left as a crash at that operation would leave it. With torn set, a
// write that stops lands half its bytes first.
type stopFS struct {
	FS
	at    int
	torn  bool
	calls atomic.Int64
}

var errStopped = errors.New("stopFS: stopped")

func (s *stopFS) step() error {
	if int(s.calls.Add(1)-1) >= s.at {
		return errStopped
	}
	return nil
}

func (s *stopFS) file(f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return stopFile{f, s}, nil
}

func (s *stopFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if err := s.step(); err != nil {
		return nil, err
	}
	return s.file(s.FS.OpenFile(name, flag, perm))
}

func (s *stopFS) Open(name string) (File, error) {
	if err := s.step(); err != nil {
		return nil, err
	}
	return s.file(s.FS.Open(name))
}

func (s *stopFS) CreateTemp(dir, pattern string) (File, error) {
	if err := s.step(); err != nil {
		return nil, err
	}
	return s.file(s.FS.CreateTemp(dir, pattern))
}

func (s *stopFS) Rename(oldpath, newpath string) error {
	if err := s.step(); err != nil {
		return err
	}
	return s.FS.Rename(oldpath, newpath)
}

func (s *stopFS) Remove(name string) error {
	if err := s.step(); err != nil {
		return err
	}
	return s.FS.Remove(name)
}

func (s *stopFS) Truncate(name string, size int64) error {
	if err := s.step(); err != nil {
		return err
	}
	return s.FS.Truncate(name, size)
}

func (s *stopFS) MkdirAll(path string, perm fs.FileMode) error {
	if err := s.step(); err != nil {
		return err
	}
	return s.FS.MkdirAll(path, perm)
}

func (s *stopFS) ReadDir(name string) ([]os.DirEntry, error) {
	if err := s.step(); err != nil {
		return nil, err
	}
	return s.FS.ReadDir(name)
}

func (s *stopFS) ReadFile(name string) ([]byte, error) {
	if err := s.step(); err != nil {
		return nil, err
	}
	return s.FS.ReadFile(name)
}

func (s *stopFS) Stat(name string) (os.FileInfo, error) {
	if err := s.step(); err != nil {
		return nil, err
	}
	return s.FS.Stat(name)
}

type stopFile struct {
	File
	s *stopFS
}

func (f stopFile) Write(p []byte) (int, error) {
	if err := f.s.step(); err != nil {
		if f.s.torn && len(p) > 1 {
			f.File.Write(p[:len(p)/2])
		}
		return 0, err
	}
	return f.File.Write(p)
}

func (f stopFile) Sync() error {
	if err := f.s.step(); err != nil {
		return err
	}
	return f.File.Sync()
}

// TestFirstOpenStoppedAnywhereReopens stops a first Open at each of its
// file operations in turn, a write stopping either before any byte or
// halfway through, and reopens the directory on the real filesystem:
// every directory a first boot can leave must open, with a whole
// MANIFEST. A MANIFEST written in place, not renamed, would be left
// empty by a stop after its create, and refused on every boot after.
func TestFirstOpenStoppedAnywhereReopens(t *testing.T) {
	for _, torn := range []bool{false, true} {
		for at := 0; ; at++ {
			dir := filepath.Join(t.TempDir(), "data")
			sfs := &stopFS{FS: OSFS(), at: at, torn: torn}
			l, _, err := Open(Config{Dir: dir, Shards: 4, Fsync: FsyncNever, FS: sfs})
			if err == nil {
				l.Close()
				if int(sfs.calls.Load()) <= at {
					break // Open finished before the stop: every operation was visited
				}
			}
			l, _, err = Open(Config{Dir: dir, Shards: 4, Fsync: FsyncNever})
			if err != nil {
				t.Fatalf("torn=%v: reopening after a first Open stopped at operation %d: %v", torn, at, err)
			}
			l.Close()
			if mf, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || string(mf) != manifestContents(4) {
				t.Fatalf("torn=%v, stop at %d: MANIFEST = %q, %v", torn, at, mf, err)
			}
		}
	}
}

// dirSyncFS fails the fsync of its directory, with err or else EIO,
// while fail is set.
type dirSyncFS struct {
	FS
	dir  string
	err  error
	fail atomic.Bool
}

func (d *dirSyncFS) Open(name string) (File, error) {
	f, err := d.FS.Open(name)
	if err != nil || name != d.dir || !d.fail.Load() {
		return f, err
	}
	if d.err == nil {
		return failSyncFile{f, syscall.EIO}, nil
	}
	return failSyncFile{f, d.err}, nil
}

type failSyncFile struct {
	File
	err error
}

func (f failSyncFile) Sync() error { return &fs.PathError{Op: "sync", Path: f.Name(), Err: f.err} }

// TestDirSyncUnsupportedIsNoError: on a filesystem that cannot fsync a
// directory (EINVAL, ENOTSUP), the log opens, writes its records and
// seals its snapshots.
func TestDirSyncUnsupportedIsNoError(t *testing.T) {
	for _, errno := range []error{syscall.EINVAL, syscall.ENOTSUP} {
		dir := t.TempDir()
		dfs := &dirSyncFS{FS: OSFS(), dir: dir, err: errno}
		dfs.fail.Store(true)
		l, _, err := Open(Config{Dir: dir, Shards: 1, Fsync: FsyncAlways, FS: dfs})
		if err != nil {
			t.Fatalf("%v: Open: %v", errno, err)
		}
		if err := l.WriteRecord("EPOCH", []byte("1 0\n")); err != nil {
			t.Errorf("%v: WriteRecord: %v", errno, err)
		}
		if err := l.Snapshot(0, 0, map[string][]byte{}); err != nil {
			t.Errorf("%v: Snapshot: %v", errno, err)
		}
		l.Close()
	}
}

// TestSnapshotDirSyncFailureDeletesNothing: a snapshot whose rename is
// not proven durable, because only the directory's fsync failed, is not
// sealed. It fails with that error, and the covered segment and the
// stale snapshot it would have deleted both stay; the log keeps
// running, and a later snapshot seals.
func TestSnapshotDirSyncFailureDeletesNothing(t *testing.T) {
	dir := t.TempDir()
	dfs := &dirSyncFS{FS: OSFS(), dir: dir}
	l, _, err := Open(Config{Dir: dir, Shards: 2, Fsync: FsyncAlways, FS: dfs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	keys := map[string][]byte{"k": []byte("v1")}
	if err := l.Append(&Frame{Shards: []ShardLSN{{Shard: 0, LSN: 1}}, Ops: []Op{{Shard: 0, Key: "k", Val: keys["k"]}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(0, 1, keys); err != nil {
		t.Fatal(err)
	}
	keys = map[string][]byte{"k": []byte("v2")}
	if err := l.Append(&Frame{Shards: []ShardLSN{{Shard: 0, LSN: 2}}, Ops: []Op{{Shard: 0, Key: "k", Val: keys["k"]}}}); err != nil {
		t.Fatal(err)
	}
	before, _ := filepath.Glob(filepath.Join(dir, "*"))

	dfs.fail.Store(true)
	if err := l.Snapshot(0, 2, keys); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Snapshot through a failed directory sync = %v, want EIO", err)
	}
	for _, p := range before {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s is gone after a snapshot that failed: %v", filepath.Base(p), err)
		}
	}
	if err := l.Degraded(); err != nil {
		t.Fatalf("a failed directory sync of a snapshot stopped the log: %v", err)
	}

	dfs.fail.Store(false)
	if err := l.Snapshot(0, 2, keys); err != nil {
		t.Fatalf("Snapshot once the directory syncs: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName(0, 1))); !os.IsNotExist(err) {
		t.Errorf("the stale snapshot outlived the sealed one (%v)", err)
	}
}
