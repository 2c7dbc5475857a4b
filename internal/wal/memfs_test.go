package wal

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// memFS is an in-memory FS double: it counts the Write and Sync calls
// that reach regular files, can make Sync slow, and can drop written
// bytes instead of keeping them (the microbenchmark appends without
// bound). It uses only the package's exported seam, so the same file
// builds against any commit whose FS interface matches.
type memFS struct {
	mu      sync.Mutex
	files   map[string]*memFile
	dirs    map[string]bool
	tmpSeq  int
	discard bool          // count writes, keep no bytes
	syncDur time.Duration // how long every Sync takes

	writes atomic.Uint64
	syncs  atomic.Uint64
}

func newMemFS() *memFS {
	return &memFS{files: make(map[string]*memFile), dirs: make(map[string]bool)}
}

// memFile is both the stored file and every handle on it.
type memFile struct {
	fs   *memFS
	name string
	mu   sync.Mutex
	data []byte
	size int64
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.writes.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.fs.discard {
		f.data = append(f.data, p...)
	}
	f.size += int64(len(p))
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Sync() error {
	f.fs.syncs.Add(1)
	if d := f.fs.syncDur; d > 0 {
		time.Sleep(d)
	}
	return nil
}

func (f *memFile) info(path string) memInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	return memInfo{name: filepath.Base(path), size: f.size}
}

func (f *memFile) Close() error { return nil }
func (f *memFile) Name() string { return f.name }

// memDir is the handle syncDir opens; its Sync is not a file sync.
type memDir struct{ name string }

func (memDir) Write([]byte) (int, error)         { return 0, fs.ErrInvalid }
func (memDir) ReadAt([]byte, int64) (int, error) { return 0, fs.ErrInvalid }
func (memDir) Sync() error                       { return nil }
func (memDir) Close() error                      { return nil }
func (d memDir) Name() string                    { return d.name }

func (m *memFS) OpenFile(name string, flag int, _ fs.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[name]
	if f == nil {
		if flag&os.O_CREATE == 0 {
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		f = &memFile{fs: m, name: name}
		m.files[name] = f
	}
	if flag&os.O_TRUNC != 0 {
		f.mu.Lock()
		f.data, f.size = nil, 0
		f.mu.Unlock()
	}
	return f, nil
}

func (m *memFS) Open(name string) (File, error) {
	m.mu.Lock()
	isDir := m.dirs[name]
	m.mu.Unlock()
	if isDir {
		return memDir{name}, nil
	}
	return m.OpenFile(name, os.O_RDONLY, 0)
}

func (m *memFS) CreateTemp(dir, pattern string) (File, error) {
	m.mu.Lock()
	m.tmpSeq++
	name := filepath.Join(dir, strings.Replace(pattern, "*", strconv.Itoa(m.tmpSeq), 1))
	m.mu.Unlock()
	return m.OpenFile(name, os.O_CREATE|os.O_TRUNC, 0o600)
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[oldpath]
	if f == nil {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	f.name = newpath
	m.files[newpath] = f
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[name] == nil {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	f := m.files[name]
	m.mu.Unlock()
	if f == nil {
		return &fs.PathError{Op: "truncate", Path: name, Err: fs.ErrNotExist}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if size < int64(len(f.data)) {
		f.data = f.data[:size]
	}
	f.size = size
	return nil
}

func (m *memFS) MkdirAll(path string, _ fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirs[path] = true
	return nil
}

// memInfo is the FileInfo and DirEntry of one stored file.
type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string               { return i.name }
func (i memInfo) Size() int64                { return i.size }
func (i memInfo) Mode() fs.FileMode          { return 0o644 }
func (i memInfo) ModTime() time.Time         { return time.Time{} }
func (i memInfo) IsDir() bool                { return false }
func (i memInfo) Sys() any                   { return nil }
func (i memInfo) Type() fs.FileMode          { return 0 }
func (i memInfo) Info() (fs.FileInfo, error) { return i, nil }

func (m *memFS) ReadDir(name string) ([]os.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[name] {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: fs.ErrNotExist}
	}
	var out []os.DirEntry
	for p, f := range m.files {
		if filepath.Dir(p) == name {
			out = append(out, f.info(p))
		}
	}
	return out, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	f := m.files[name]
	m.mu.Unlock()
	if f == nil {
		return nil, &fs.PathError{Op: "read", Path: name, Err: fs.ErrNotExist}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]byte(nil), f.data...), nil
}

func (m *memFS) Stat(name string) (os.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[name]
	if f == nil {
		return nil, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
	}
	return f.info(name), nil
}

func (m *memFS) Glob(pattern string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for p := range m.files {
		if ok, err := filepath.Match(pattern, p); err != nil {
			return nil, err
		} else if ok {
			out = append(out, p)
		}
	}
	return out, nil
}
