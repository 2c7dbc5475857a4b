package fault

// Disk is the storage fault plane: a wal.FS decorator that injects I/O
// errors — EIO, ENOSPC, error-free short writes, fsync failure, open
// and read failures — and process death (SIGKILL before, halfway
// through or after a write, before a rename, before a remove) at named
// sites with seeded deterministic streams. It starts disarmed (pure
// passthrough) so a restarting process can recover its log cleanly,
// and is armed once the server is ready to serve; every injection
// writes a DISK-FAULT marker line so the soak parent can count
// injections per site from the child's stderr.

import (
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"nztm/internal/metrics"
	"nztm/internal/wal"
)

// DiskMarkerPrefix starts the line a firing disk-fault site writes.
const DiskMarkerPrefix = "DISK-FAULT"

// DiskSite names one injection site in the storage fault plane.
type DiskSite int

const (
	// DiskWriteEIO fails a file write with EIO after writing nothing.
	DiskWriteEIO DiskSite = iota
	// DiskWriteShort writes only a prefix and reports success — the
	// torn-sector case writeFull must promote to an error.
	DiskWriteShort
	// DiskWriteENOSPC writes a prefix and fails with ENOSPC — the
	// volume-full case that must stop the log's appends.
	DiskWriteENOSPC
	// DiskSync fails an fsync with EIO — the fsyncgate case that must
	// stop the log (dirty pages are in an unknown state).
	DiskSync
	// DiskOpen fails OpenFile/Open/CreateTemp with EIO.
	DiskOpen
	// DiskRead fails a ReadAt with EIO.
	DiskRead
	// DiskRename fails a rename with EIO.
	DiskRename

	// The kill sites write their marker and SIGKILL the process: no
	// deferred cleanup, no flushes, exactly the failure an OOM kill
	// delivers. What was written stays in the page cache, so recovery
	// sees the same bytes under every fsync policy.

	// DiskKillBeforeWrite dies before any byte of a write lands.
	DiskKillBeforeWrite
	// DiskKillMidWrite writes half of p, then dies: a torn frame at the
	// log's tail, or a torn snapshot temp file.
	DiskKillMidWrite
	// DiskKillAfterWrite writes all of p, then dies before returning:
	// the frame is on disk, its commit never acknowledged.
	DiskKillAfterWrite
	// DiskKillBeforeRename dies before a rename: a sealed snapshot temp
	// file that was never published.
	DiskKillBeforeRename
	// DiskKillBeforeRemove dies before a remove: covered segments and
	// stale snapshots left behind.
	DiskKillBeforeRemove

	DiskSiteCount = iota
)

// diskErrorSites counts the I/O-error sites, which come first. "all"
// names exactly these, so arming every site never kills.
const diskErrorSites = DiskKillBeforeWrite

var diskSiteNames = [DiskSiteCount]string{
	"write-eio", "write-short", "write-enospc", "sync", "open", "read", "rename",
	"kill-before-write", "kill-mid-write", "kill-after-write", "kill-before-rename", "kill-before-remove",
}

func (s DiskSite) String() string {
	if s < 0 || s >= DiskSiteCount {
		return fmt.Sprintf("disk-site-%d", int(s))
	}
	return diskSiteNames[s]
}

// ParseDiskSites parses a comma-separated site list ("sync" or
// "write-eio,kill-mid-write" or "all", which names the seven I/O-error
// sites and no kill site) into a per-site probability vector with prob
// at each named site.
func ParseDiskSites(list string, prob float64) (probs [DiskSiteCount]float64, err error) {
	if list == "" {
		return probs, nil
	}
	for _, n := range strings.Split(list, ",") {
		n = strings.TrimSpace(n)
		found := false
		for s := DiskSite(0); s < DiskSiteCount; s++ {
			if n == s.String() || n == "all" && s < diskErrorSites {
				probs[s], found = prob, true
			}
		}
		if !found {
			return probs, fmt.Errorf("fault: unknown disk site %q", n)
		}
	}
	return probs, nil
}

// DiskConfig configures deterministic I/O-error and kill-site injection.
type DiskConfig struct {
	// Seed derives one deterministic Bernoulli stream per site.
	Seed uint64
	// Probs is the per-visit firing probability for each site; a zero
	// entry disarms that site.
	Probs [DiskSiteCount]float64
	// Output receives marker lines (default os.Stderr).
	Output io.Writer
}

// DiskStats counts injections per I/O-error site. Every field is
// exported by reflection into /metricsz (metrics.WriteFields), so adding
// a field here adds a metric. The kill sites have no field: the process
// dies before any scrape could read one.
type DiskStats struct {
	WriteEIO     atomic.Uint64 // injected write EIOs
	WriteShort   atomic.Uint64 // injected error-free short writes
	WriteENOSPC  atomic.Uint64 // injected ENOSPC writes
	SyncFailures atomic.Uint64 // injected fsync EIOs
	OpenFailures atomic.Uint64 // injected open EIOs
	ReadFailures atomic.Uint64 // injected read EIOs
	RenameFails  atomic.Uint64 // injected rename EIOs
}

// counter maps a site to its stats field, nil for a kill site.
func (st *DiskStats) counter(s DiskSite) *atomic.Uint64 {
	switch s {
	case DiskWriteEIO:
		return &st.WriteEIO
	case DiskWriteShort:
		return &st.WriteShort
	case DiskWriteENOSPC:
		return &st.WriteENOSPC
	case DiskSync:
		return &st.SyncFailures
	case DiskOpen:
		return &st.OpenFailures
	case DiskRead:
		return &st.ReadFailures
	case DiskRename:
		return &st.RenameFails
	case DiskKillBeforeWrite, DiskKillMidWrite, DiskKillAfterWrite, DiskKillBeforeRename, DiskKillBeforeRemove:
		return nil
	}
	panic(fmt.Sprintf("fault: no disk site %d", int(s)))
}

// Injected returns the total injected I/O errors across all sites.
func (st *DiskStats) Injected() uint64 {
	var n uint64
	for s := DiskSite(0); s < diskErrorSites; s++ {
		n += st.counter(s).Load()
	}
	return n
}

// Disk decorates a wal.FS with injected I/O errors. It is disarmed at
// construction: every operation passes through untouched until Arm is
// called (after recovery, so a restarted process always boots), and
// injection visits before arming draw nothing from the streams, keeping
// post-arm schedules seed-deterministic regardless of recovery I/O.
type Disk struct {
	cfg   DiskConfig
	inner wal.FS
	armed atomic.Bool
	kill  func() // SIGKILL self; swappable so tests survive a kill site

	mu      sync.Mutex
	streams [DiskSiteCount]*stream
	stats   DiskStats
}

// NewDisk builds a disk fault plane over the real filesystem. A
// zero-prob config injects nothing even when armed.
func NewDisk(cfg DiskConfig) *Disk { return NewDiskFS(cfg, wal.OSFS()) }

// NewDiskFS builds a disk fault plane over an explicit inner FS (tests
// stack planes or use an in-memory FS).
func NewDiskFS(cfg DiskConfig, inner wal.FS) *Disk {
	if cfg.Output == nil {
		cfg.Output = os.Stderr
	}
	d := &Disk{cfg: cfg, inner: inner, kill: killSelf}
	for i := range d.streams {
		d.streams[i] = newStream(cfg.Seed, 0xd15c+uint64(i))
	}
	return d
}

// Arm enables injection. Call it only once the log is recovered and
// open — faults during recovery are a different experiment (construct
// an armed Disk directly in tests for that).
func (d *Disk) Arm() { d.armed.Store(true) }

// Disarm stops injection (markers already written stay written).
func (d *Disk) Disarm() { d.armed.Store(false) }

// Armed reports whether injection is enabled.
func (d *Disk) Armed() bool { return d.armed.Load() }

// Stats returns the injection counters.
func (d *Disk) Stats() *DiskStats { return &d.stats }

// hit makes one deterministic draw for site, counting and writing the
// marker on a fire. Files are touched from many goroutines (appenders,
// the interval syncer, snapshotter, stream readers), so draws serialize.
func (d *Disk) hit(site DiskSite) bool {
	if !d.armed.Load() {
		return false
	}
	prob := d.cfg.Probs[site]
	if prob <= 0 {
		return false
	}
	d.mu.Lock()
	fire := d.streams[site].hit(prob)
	d.mu.Unlock()
	if !fire {
		return false
	}
	if c := d.stats.counter(site); c != nil {
		c.Add(1)
	}
	fmt.Fprintf(d.cfg.Output, "%s site=%s seed=%d\n", DiskMarkerPrefix, site, d.cfg.Seed)
	return true
}

// die makes one draw at a kill site and, on a fire, kills the process
// after the marker is written.
func (d *Disk) die(site DiskSite) {
	if d.hit(site) {
		d.kill()
	}
}

// killSelf terminates the process without running any deferred cleanup.
// SIGKILL cannot be caught; the kernel reaps us mid-instruction.
func killSelf() {
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	// SIGKILL delivery can race the next instruction; never limp on.
	select {}
}

// WriteProm exports the plane's seed, the armed gauge and every
// DiskStats field (metrics.WriteFields) as Prometheus families.
func (d *Disk) WriteProm(w io.Writer) {
	metrics.Info(w, "nztm_disk_fault_info", "disk fault plane seed", "seed", strconv.FormatUint(d.cfg.Seed, 10))
	armed := 0.0
	if d.Armed() {
		armed = 1
	}
	metrics.GaugeFam(w, "nztm_disk_fault_armed", "disk fault plane armed", armed)
	metrics.WriteFields(w, "nztm_disk_fault", "counter", &d.stats)
}

// --- wal.FS implementation ---

func (d *Disk) OpenFile(name string, flag int, perm iofs.FileMode) (wal.File, error) {
	if d.hit(DiskOpen) {
		return nil, &os.PathError{Op: "open", Path: name, Err: syscall.EIO}
	}
	f, err := d.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &diskFile{f: f, d: d}, nil
}

func (d *Disk) Open(name string) (wal.File, error) {
	if d.hit(DiskOpen) {
		return nil, &os.PathError{Op: "open", Path: name, Err: syscall.EIO}
	}
	f, err := d.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &diskFile{f: f, d: d}, nil
}

func (d *Disk) CreateTemp(dir, pattern string) (wal.File, error) {
	if d.hit(DiskOpen) {
		return nil, &os.PathError{Op: "createtemp", Path: dir, Err: syscall.EIO}
	}
	f, err := d.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &diskFile{f: f, d: d}, nil
}

func (d *Disk) Rename(oldpath, newpath string) error {
	d.die(DiskKillBeforeRename)
	if d.hit(DiskRename) {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: syscall.EIO}
	}
	return d.inner.Rename(oldpath, newpath)
}

func (d *Disk) Remove(name string) error {
	d.die(DiskKillBeforeRemove)
	return d.inner.Remove(name)
}

func (d *Disk) Truncate(name string, s int64) error        { return d.inner.Truncate(name, s) }
func (d *Disk) MkdirAll(p string, m iofs.FileMode) error   { return d.inner.MkdirAll(p, m) }
func (d *Disk) ReadDir(name string) ([]os.DirEntry, error) { return d.inner.ReadDir(name) }
func (d *Disk) ReadFile(name string) ([]byte, error)       { return d.inner.ReadFile(name) }
func (d *Disk) WriteFile(name string, b []byte, m iofs.FileMode) error {
	return d.inner.WriteFile(name, b, m)
}
func (d *Disk) Stat(name string) (os.FileInfo, error) { return d.inner.Stat(name) }
func (d *Disk) Glob(pattern string) ([]string, error) { return d.inner.Glob(pattern) }

// diskFile decorates one open file with write/read/sync injection and
// the write kill sites.
type diskFile struct {
	f wal.File
	d *Disk
}

func (f *diskFile) Write(p []byte) (int, error) {
	f.d.die(DiskKillBeforeWrite)
	if len(p) > 1 && f.d.hit(DiskKillMidWrite) {
		f.f.Write(p[:len(p)/2]) // the torn prefix lands in the page cache
		f.d.kill()
	}
	if f.d.hit(DiskWriteEIO) {
		return 0, &os.PathError{Op: "write", Path: f.f.Name(), Err: syscall.EIO}
	}
	if len(p) > 1 && f.d.hit(DiskWriteENOSPC) {
		n, err := f.f.Write(p[:len(p)/2]) // the torn prefix really lands
		if err != nil {
			return n, err
		}
		return n, &os.PathError{Op: "write", Path: f.f.Name(), Err: syscall.ENOSPC}
	}
	if len(p) > 1 && f.d.hit(DiskWriteShort) {
		return f.f.Write(p[:len(p)/2]) // error-free short write
	}
	n, err := f.f.Write(p)
	if err == nil {
		f.d.die(DiskKillAfterWrite)
	}
	return n, err
}

func (f *diskFile) ReadAt(p []byte, off int64) (int, error) {
	if f.d.hit(DiskRead) {
		return 0, &os.PathError{Op: "read", Path: f.f.Name(), Err: syscall.EIO}
	}
	return f.f.ReadAt(p, off)
}

func (f *diskFile) Sync() error {
	if f.d.hit(DiskSync) {
		return &os.PathError{Op: "fsync", Path: f.f.Name(), Err: syscall.EIO}
	}
	return f.f.Sync()
}

func (f *diskFile) Close() error { return f.f.Close() }

func (f *diskFile) Name() string { return f.f.Name() }
