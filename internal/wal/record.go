package wal

// Named records: files of the data directory replaced whole (MANIFEST,
// snapshots, the epoch vote, the re-seed mark), each written through the
// log's FS by one writer, under the fault plane and DESIGN §17.3's stop rule.

import (
	"errors"
	"io/fs"
	"path/filepath"
	"syscall"
)

// writeDurable replaces dir/name with data: a temp file named tmp-*
// (recovery deletes strays), a full write, fsync, close, rename and a
// directory fsync. It returns the first error, the directory sync's
// included; a failure before the rename leaves name as it was.
func writeDurable(fsys FS, dir, name string, data []byte) error {
	tmp, err := fsys.CreateTemp(dir, "tmp-"+name+"-*")
	if err != nil {
		return err
	}
	if err = writeFull(tmp, data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	return syncDir(fsys, dir)
}

// syncDir fsyncs a directory so renames and unlinks in it are durable.
// EINVAL or ENOTSUP (a filesystem that cannot sync a directory) is none.
func syncDir(fsys FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	if err = d.Sync(); errors.Is(err, errors.ErrUnsupported) || errors.Is(err, syscall.EINVAL) {
		err = nil
	}
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadRecord returns the named record of the data directory. An absent
// record is an error wrapping fs.ErrNotExist.
func (l *Log) ReadRecord(name string) ([]byte, error) {
	return l.fs.ReadFile(filepath.Join(l.dir, name))
}

// WriteRecord durably replaces the named record with data, or removes
// it when data is nil (an absent record is no error). Any failure stops
// the log, and a stopped log refuses every later record write: a caller
// that acts only on what it wrote acts on nothing the directory may not
// hold.
func (l *Log) WriteRecord(name string, data []byte) error {
	if err := l.Degraded(); err != nil {
		return err
	}
	var err error
	if data != nil {
		err = writeDurable(l.fs, l.dir, name, data)
	} else if err = l.fs.Remove(filepath.Join(l.dir, name)); err == nil || errors.Is(err, fs.ErrNotExist) {
		err = syncDir(l.fs, l.dir)
	}
	if err != nil {
		l.stats.WriteErrors.Add(1)
		l.stop(err)
	}
	return err
}
