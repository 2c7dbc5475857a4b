package main

import (
	"io/fs"
	"syscall"
	"time"

	"nztm/internal/wal"
)

// The modelled device. The sandbox's virtual disk answers an fsync in
// 250 µs one minute and 400 µs the next (same-code durable runs differed by
// ±20 %, README "Why the device is modelled"), and a number that follows
// the host's other tenants cannot gate a change to the log. So the gated
// durable workload keeps everything real — files, writes, recovery — except
// the one call it waits on: Sync becomes a kernel sleep of syncLatency.
// Like a real fsync it is a blocking system call that parks the thread, so
// the Go scheduler and the log's group commit see what they would see on a
// device with that latency. durable-batch-device is the same workload with
// the real fsync, ungated.
const syncLatency = 250 * time.Microsecond

// wrapFS is a wal.FS whose files all pass through wrap: the seam both the
// modelled device and the tracer's counting files are installed at.
type wrapFS struct {
	wal.FS
	wrap func(wal.File) wal.File
}

func (f wrapFS) wrapped(file wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return f.wrap(file), nil
}

func (f wrapFS) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	return f.wrapped(f.FS.OpenFile(name, flag, perm))
}

func (f wrapFS) Open(name string) (wal.File, error) { return f.wrapped(f.FS.Open(name)) }

func (f wrapFS) CreateTemp(dir, pattern string) (wal.File, error) {
	return f.wrapped(f.FS.CreateTemp(dir, pattern))
}

// device returns the filesystem a durable workload logs to.
func (w *workload) device() wal.FS {
	if w.realDevice {
		return wal.OSFS()
	}
	return wrapFS{FS: wal.OSFS(), wrap: func(f wal.File) wal.File { return modelFile{f} }}
}

type modelFile struct{ wal.File }

// Sync sleeps in the kernel for syncLatency. nanosleep is never restarted
// after a signal (the Go runtime preempts with signals), so the remainder
// is slept until none is left.
func (modelFile) Sync() error {
	ts := syscall.NsecToTimespec(int64(syncLatency))
	for {
		if err := syscall.Nanosleep(&ts, &ts); err != syscall.EINTR {
			return err
		}
	}
}
