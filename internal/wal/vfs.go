package wal

// The VFS seam: every file operation the WAL performs goes through an
// FS, so a fault plane (fault.Disk) can inject EIO, ENOSPC, short
// writes, sync failures and torn sectors at named sites without
// touching the real filesystem code paths. The default implementation
// is package os verbatim; production pays one interface call per file
// operation (file operations already cost syscalls, so the indirection
// is free at this granularity) and nothing per request.

import (
	"io/fs"
	"os"
	"path/filepath"
)

// File is the WAL's view of one open file: exactly the *os.File methods
// the log, snapshotter and stream reader use.
type File interface {
	Write(p []byte) (int, error)
	ReadAt(p []byte, off int64) (int, error)
	Sync() error
	Close() error
	Name() string
}

// FS is the filesystem seam. All paths are ordinary OS paths (the WAL
// only ever touches files inside its data directory).
type FS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Open(name string) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	MkdirAll(path string, perm fs.FileMode) error
	ReadDir(name string) ([]os.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	Stat(name string) (os.FileInfo, error)
	Glob(pattern string) ([]string, error)
}

// OSFS returns the default FS: package os, unmodified.
func OSFS() FS { return osFS{} }

// Appender open flags, shared by every segment-opening site.
const (
	osCreateAppend      = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	osCreateAppendTrunc = os.O_CREATE | os.O_WRONLY | os.O_APPEND | os.O_TRUNC
)

// osFS is the real filesystem. It is the only place in this package
// allowed to call the os file functions directly (a vet-style test
// enforces this, so future code cannot bypass the seam).
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

func (osFS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }
