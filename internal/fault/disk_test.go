package fault

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"nztm/internal/metrics"
	"nztm/internal/wal"
)

// armedAt builds an armed Disk firing on every visit to exactly one
// site, with markers captured in out.
func armedAt(site DiskSite, out io.Writer) *Disk {
	var probs [DiskSiteCount]float64
	probs[site] = 1
	d := NewDiskFS(DiskConfig{Seed: 7, Probs: probs, Output: out}, wal.OSFS())
	d.Arm()
	return d
}

// TestDiskSiteTable exercises every injection site through the FS seam
// and checks the injected error, the on-disk effect, the stats counter,
// and the stderr marker the soak parent counts.
func TestDiskSiteTable(t *testing.T) {
	payload := []byte("0123456789")
	cases := []struct {
		site    DiskSite
		counter func(st *DiskStats) *atomic.Uint64
		run     func(t *testing.T, d *Disk, dir string)
	}{
		{DiskWriteEIO, func(st *DiskStats) *atomic.Uint64 { return &st.WriteEIO },
			func(t *testing.T, d *Disk, dir string) {
				f := mustOpen(t, d, filepath.Join(dir, "f"))
				n, err := f.Write(payload)
				if n != 0 || !errors.Is(err, syscall.EIO) {
					t.Fatalf("Write = (%d, %v), want (0, EIO)", n, err)
				}
				f.Close()
				wantSize(t, filepath.Join(dir, "f"), 0)
			}},
		{DiskWriteShort, func(st *DiskStats) *atomic.Uint64 { return &st.WriteShort },
			func(t *testing.T, d *Disk, dir string) {
				f := mustOpen(t, d, filepath.Join(dir, "f"))
				n, err := f.Write(payload)
				if err != nil || n >= len(payload) || n == 0 {
					t.Fatalf("Write = (%d, %v), want error-free short write", n, err)
				}
				f.Close()
				wantSize(t, filepath.Join(dir, "f"), int64(n))
			}},
		{DiskWriteENOSPC, func(st *DiskStats) *atomic.Uint64 { return &st.WriteENOSPC },
			func(t *testing.T, d *Disk, dir string) {
				f := mustOpen(t, d, filepath.Join(dir, "f"))
				n, err := f.Write(payload)
				if !errors.Is(err, syscall.ENOSPC) || n == 0 || n >= len(payload) {
					t.Fatalf("Write = (%d, %v), want torn prefix + ENOSPC", n, err)
				}
				f.Close()
				wantSize(t, filepath.Join(dir, "f"), int64(n)) // the torn prefix really lands
			}},
		{DiskSync, func(st *DiskStats) *atomic.Uint64 { return &st.SyncFailures },
			func(t *testing.T, d *Disk, dir string) {
				f := mustOpen(t, d, filepath.Join(dir, "f"))
				if err := f.Sync(); !errors.Is(err, syscall.EIO) {
					t.Fatalf("Sync = %v, want EIO", err)
				}
				f.Close()
			}},
		{DiskOpen, func(st *DiskStats) *atomic.Uint64 { return &st.OpenFailures },
			func(t *testing.T, d *Disk, dir string) {
				if _, err := d.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644); !errors.Is(err, syscall.EIO) {
					t.Fatalf("OpenFile = %v, want EIO", err)
				}
				if _, err := d.Open(filepath.Join(dir, "f")); !errors.Is(err, syscall.EIO) {
					t.Fatalf("Open = %v, want EIO", err)
				}
				if _, err := d.CreateTemp(dir, "tmp-*"); !errors.Is(err, syscall.EIO) {
					t.Fatalf("CreateTemp = %v, want EIO", err)
				}
			}},
		{DiskRead, func(st *DiskStats) *atomic.Uint64 { return &st.ReadFailures },
			func(t *testing.T, d *Disk, dir string) {
				path := filepath.Join(dir, "f")
				if err := os.WriteFile(path, payload, 0o644); err != nil {
					t.Fatal(err)
				}
				f, err := d.Open(path) // open site disarmed: passes through
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				defer f.Close()
				buf := make([]byte, 4)
				if _, err := f.ReadAt(buf, 0); !errors.Is(err, syscall.EIO) {
					t.Fatalf("ReadAt = %v, want EIO", err)
				}
			}},
		{DiskRename, func(st *DiskStats) *atomic.Uint64 { return &st.RenameFails },
			func(t *testing.T, d *Disk, dir string) {
				src := filepath.Join(dir, "src")
				if err := os.WriteFile(src, payload, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := d.Rename(src, filepath.Join(dir, "dst")); !errors.Is(err, syscall.EIO) {
					t.Fatalf("Rename = %v, want EIO", err)
				}
				if _, err := os.Stat(src); err != nil {
					t.Fatalf("source vanished despite failed rename: %v", err)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.site.String(), func(t *testing.T) {
			var out bytes.Buffer
			d := armedAt(tc.site, &out)
			tc.run(t, d, t.TempDir())
			if got := tc.counter(d.Stats()).Load(); got == 0 {
				t.Fatalf("site %s fired but its counter is 0", tc.site)
			}
			marker := fmt.Sprintf("%s site=%s seed=7", DiskMarkerPrefix, tc.site)
			if !strings.Contains(out.String(), marker) {
				t.Fatalf("marker %q missing from output %q", marker, out.String())
			}
			// The name the marker prints selects exactly this site.
			probs, err := ParseDiskSites(tc.site.String(), 1)
			var sum float64
			for _, v := range probs {
				sum += v
			}
			if err != nil || probs[tc.site] != 1 || sum != 1 {
				t.Fatalf("ParseDiskSites(%q) = %v, %v", tc.site.String(), probs, err)
			}
		})
	}
}

func mustOpen(t *testing.T, d *Disk, path string) wal.File {
	t.Helper()
	f, err := d.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	return f
}

func wantSize(t *testing.T, path string, want int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if fi.Size() != want {
		t.Fatalf("%s is %d bytes, want %d", filepath.Base(path), fi.Size(), want)
	}
}

// TestDiskKillSiteTable fires every kill site through the FS seam with
// the kill swapped for a probe, and checks what the inner filesystem
// holds at the moment of death, the marker written before it, and that
// no DiskStats field counts it.
func TestDiskKillSiteTable(t *testing.T) {
	payload := []byte("0123456789")
	write := func(t *testing.T, d *Disk, dir string) {
		f := mustOpen(t, d, filepath.Join(dir, "f"))
		defer f.Close()
		f.Write(payload)
	}
	cases := []struct {
		site DiskSite
		run  func(t *testing.T, d *Disk, dir string) // performs the fatal operation
		dead func(t *testing.T, dir string)          // the inner FS at the moment of death
	}{
		{DiskKillBeforeWrite, write,
			func(t *testing.T, dir string) { wantSize(t, filepath.Join(dir, "f"), 0) }},
		{DiskKillMidWrite, write,
			func(t *testing.T, dir string) { wantSize(t, filepath.Join(dir, "f"), int64(len(payload)/2)) }},
		{DiskKillAfterWrite, write,
			func(t *testing.T, dir string) { wantSize(t, filepath.Join(dir, "f"), int64(len(payload))) }},
		{DiskKillBeforeRename,
			func(t *testing.T, d *Disk, dir string) {
				tmp, err := d.CreateTemp(dir, "tmp-*")
				if err != nil {
					t.Fatalf("CreateTemp: %v", err)
				}
				tmp.Write(payload)
				tmp.Close()
				d.Rename(tmp.Name(), filepath.Join(dir, "final"))
			},
			func(t *testing.T, dir string) {
				if tmps, _ := filepath.Glob(filepath.Join(dir, "tmp-*")); len(tmps) != 1 {
					t.Errorf("temp files %v, want one", tmps)
				}
				if _, err := os.Stat(filepath.Join(dir, "final")); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("final name exists before the rename: %v", err)
				}
			}},
		{DiskKillBeforeRemove,
			func(t *testing.T, d *Disk, dir string) {
				if err := os.WriteFile(filepath.Join(dir, "f"), payload, 0o644); err != nil {
					t.Fatal(err)
				}
				d.Remove(filepath.Join(dir, "f"))
			},
			func(t *testing.T, dir string) { wantSize(t, filepath.Join(dir, "f"), int64(len(payload))) }},
	}
	for _, tc := range cases {
		t.Run(tc.site.String(), func(t *testing.T) {
			var out bytes.Buffer
			d := armedAt(tc.site, &out)
			dir := t.TempDir()
			marker := fmt.Sprintf("%s site=%s seed=7\n", DiskMarkerPrefix, tc.site)
			kills := 0
			d.kill = func() {
				if kills++; kills > 1 {
					return // the probe returns, so later operations may visit again
				}
				if out.String() != marker {
					t.Errorf("output before death %q, want %q", out.String(), marker)
				}
				tc.dead(t, dir)
			}
			tc.run(t, d, dir)
			if kills == 0 {
				t.Fatalf("site %s never killed", tc.site)
			}
			if n := d.Stats().Injected(); n != 0 {
				t.Errorf("a kill site counted %d injected errors", n)
			}
			probs, err := ParseDiskSites(tc.site.String(), 1)
			var sum float64
			for _, v := range probs {
				sum += v
			}
			if err != nil || probs[tc.site] != 1 || sum != 1 {
				t.Fatalf("ParseDiskSites(%q) = %v, %v", tc.site.String(), probs, err)
			}
		})
	}
}

// TestDiskKillSitesDeterministic: under one seed a kill site fires at
// the same visits with the same markers, and a site with no probability
// never fires.
func TestDiskKillSitesDeterministic(t *testing.T) {
	run := func(seed uint64) (fires []int, markers string) {
		var out bytes.Buffer
		probs, err := ParseDiskSites("kill-mid-write", 0.05)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDiskFS(DiskConfig{Seed: seed, Probs: probs, Output: &out}, wal.OSFS())
		d.Arm()
		visit := 0
		d.kill = func() { fires = append(fires, visit) }
		dir := t.TempDir()
		f := mustOpen(t, d, filepath.Join(dir, "f"))
		defer f.Close()
		for ; visit < 500; visit++ {
			f.Write([]byte("ab"))
			d.Remove(filepath.Join(dir, "absent")) // unarmed site: must stay quiet
		}
		return fires, out.String()
	}
	f1, m1 := run(42)
	f2, m2 := run(42)
	if len(f1) == 0 {
		t.Fatal("armed site never fired in 500 visits at p=0.05")
	}
	if !reflect.DeepEqual(f1, f2) || m1 != m2 {
		t.Fatalf("same seed diverged: fires %v vs %v", f1, f2)
	}
	if want := strings.Repeat(DiskMarkerPrefix+" site=kill-mid-write seed=42\n", len(f1)); m1 != want {
		t.Fatalf("markers %q, want %d kill-mid-write lines", m1, len(f1))
	}
	if f3, _ := run(43); reflect.DeepEqual(f1, f3) {
		t.Fatalf("seeds 42 and 43 fired at the same visits %v", f1)
	}
}

func TestDiskDisarmedIsPassthrough(t *testing.T) {
	var probs [DiskSiteCount]float64
	for i := range probs {
		probs[i] = 1
	}
	var out bytes.Buffer
	d := NewDiskFS(DiskConfig{Seed: 1, Probs: probs, Output: &out}, wal.OSFS())
	dir := t.TempDir()
	f, err := d.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	f.Close()
	if err := d.Rename(filepath.Join(dir, "f"), filepath.Join(dir, "g")); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if d.Stats().Injected() != 0 || out.Len() != 0 {
		t.Fatalf("disarmed plane injected %d faults, wrote %q", d.Stats().Injected(), out.String())
	}
}

// TestDiskKillSitesDisarmed: with every kill site armed at p=1 but the
// plane disarmed, a thousand writes, renames and removes never kill and
// print nothing.
func TestDiskKillSitesDisarmed(t *testing.T) {
	var probs [DiskSiteCount]float64
	for s := diskErrorSites; s < DiskSiteCount; s++ {
		probs[s] = 1
	}
	var out bytes.Buffer
	d := NewDiskFS(DiskConfig{Seed: 1, Probs: probs, Output: &out}, wal.OSFS())
	d.kill = func() { t.Fatal("disarmed plane killed") }
	dir := t.TempDir()
	f := mustOpen(t, d, filepath.Join(dir, "f"))
	defer f.Close()
	for i := 0; i < 1000; i++ {
		if _, err := f.Write([]byte("ab")); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := d.WriteFile(filepath.Join(dir, "g"), []byte("x"), 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		if err := d.Rename(filepath.Join(dir, "g"), filepath.Join(dir, "h")); err != nil {
			t.Fatalf("Rename: %v", err)
		}
		if err := d.Remove(filepath.Join(dir, "h")); err != nil {
			t.Fatalf("Remove: %v", err)
		}
	}
	wantSize(t, filepath.Join(dir, "f"), 2000)
	if out.Len() != 0 {
		t.Fatalf("disarmed plane wrote %q", out.String())
	}
}

func TestParseDiskSites(t *testing.T) {
	probs, err := ParseDiskSites("all", 0.25)
	if err != nil {
		t.Fatalf("all: %v", err)
	}
	for s := DiskSite(0); s < DiskSiteCount; s++ {
		want := 0.25
		if s >= diskErrorSites {
			want = 0 // all names the I/O-error sites and no kill site
		}
		if probs[s] != want {
			t.Fatalf("all: site %s prob %g, want %g", s, probs[s], want)
		}
	}
	probs, err = ParseDiskSites("sync, write-eio", 0.5)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if probs[DiskSync] != 0.5 || probs[DiskWriteEIO] != 0.5 || probs[DiskOpen] != 0 {
		t.Fatalf("list: probs %v", probs)
	}
	if _, err := ParseDiskSites("frobnicate", 1); err == nil {
		t.Fatal("unknown site accepted")
	}
}

// TestParseDiskKillSites: kill sites are armed only by name, in lists
// mixed with error sites, and never by "all".
func TestParseDiskKillSites(t *testing.T) {
	probs, err := ParseDiskSites("all", 1)
	if err != nil {
		t.Fatalf("all: %v", err)
	}
	for s := diskErrorSites; s < DiskSiteCount; s++ {
		if probs[s] != 0 {
			t.Fatalf("all arms kill site %s at %g", s, probs[s])
		}
	}
	probs, err = ParseDiskSites("kill-before-write, sync, kill-before-remove", 1)
	if err != nil {
		t.Fatalf("kill list: %v", err)
	}
	if probs[DiskKillBeforeWrite] != 1 || probs[DiskKillBeforeRemove] != 1 || probs[DiskSync] != 1 ||
		probs[DiskKillMidWrite] != 0 || probs[DiskWriteEIO] != 0 {
		t.Fatalf("kill list: probs %v", probs)
	}
	if _, err := ParseDiskSites("kill-mid-append", 1); err == nil {
		t.Fatal("unknown kill site accepted")
	}
}

// echoServer accepts connections and echoes bytes back until closed.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(c, c)
		}
	}()
	return ln.Addr().String()
}

func TestPartitionBlocksDials(t *testing.T) {
	addr := echoServer(t)
	p := NewPartitions()
	if err := p.Block(addr, "both"); err != nil {
		t.Fatalf("Block: %v", err)
	}
	if p.Active() != 2 {
		t.Fatalf("Active = %d, want 2", p.Active())
	}
	if _, err := p.Dial("tcp", addr, time.Second); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("Dial = %v, want ErrPartitioned", err)
	}
	if p.Stats().BlockedDials.Load() == 0 {
		t.Fatal("BlockedDials = 0")
	}
	p.Heal(addr)
	if p.Active() != 0 {
		t.Fatalf("Active after heal = %d", p.Active())
	}
	c, err := p.Dial("tcp", addr, time.Second)
	if err != nil {
		t.Fatalf("Dial after heal: %v", err)
	}
	c.Close()
	if err := p.Block(addr, "sideways"); err == nil {
		t.Fatal("unknown direction accepted")
	}
}

// TestPartitionLiveConnEnforcement installs blocks on an already-open
// connection: outbound writes vanish with reported success, inbound
// bytes are discarded until the deadline fires — exactly a blackhole.
func TestPartitionLiveConnEnforcement(t *testing.T) {
	addr := echoServer(t)
	p := NewPartitions()
	c, err := p.Dial("tcp", addr, time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	// Healthy round trip first.
	if _, err := c.Write([]byte("ab")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, 2)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("echo read: %v", err)
	}

	// Outbound blackhole: the write "succeeds" but the peer never echoes.
	if err := p.Block(addr, "out"); err != nil {
		t.Fatalf("Block out: %v", err)
	}
	n, err := c.Write([]byte("cd"))
	if n != 2 || err != nil {
		t.Fatalf("blocked Write = (%d, %v), want silent success", n, err)
	}
	c.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if _, err := c.Read(buf); err == nil {
		t.Fatal("echo arrived through an outbound blackhole")
	}
	if p.Stats().SwallowedWrites.Load() == 0 {
		t.Fatal("SwallowedWrites = 0")
	}

	// Inbound blackhole: the peer's bytes arrive but are discarded; the
	// reader experiences pure silence until its deadline.
	p.HealAll()
	if err := p.Block(addr, "in"); err != nil {
		t.Fatalf("Block in: %v", err)
	}
	if _, err := c.Write([]byte("ef")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read returned data through an inbound blackhole")
	}
	if p.Stats().DiscardedReads.Load() == 0 {
		t.Fatal("DiscardedReads = 0")
	}

	// Heal: traffic flows again on the same connection.
	p.HealAll()
	if _, err := c.Write([]byte("gh")); err != nil {
		t.Fatalf("Write after heal: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(buf); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
}

// promCoverage checks a WriteProm-style output for LintProm conformance
// and for every family metrics.WriteFields exports for the stats block.
func promCoverage(t *testing.T, body string, stats any, prefix string) {
	t.Helper()
	if errs := metrics.LintProm(strings.NewReader(body)); len(errs) > 0 {
		t.Fatalf("LintProm: %v", errs)
	}
	var want bytes.Buffer
	metrics.WriteFields(&want, prefix, "counter", stats)
	got := metrics.Families(strings.NewReader(body))
	for name, typ := range metrics.Families(&want) {
		if got[name] != typ {
			t.Errorf("family %s %s missing from WriteProm output", name, typ)
		}
	}
}

func TestDiskWritePromCoverage(t *testing.T) {
	d := armedAt(DiskSync, io.Discard)
	var buf bytes.Buffer
	d.WriteProm(&buf)
	promCoverage(t, buf.String(), d.Stats(), "nztm_disk_fault")
	for _, want := range []string{"nztm_disk_fault_armed 1", `nztm_disk_fault_info{seed="`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q:\n%s", want, buf.String())
		}
	}
}

func TestPartitionWritePromCoverage(t *testing.T) {
	p := NewPartitions()
	var buf bytes.Buffer
	p.WriteProm(&buf)
	promCoverage(t, buf.String(), p.Stats(), "nztm_partition")
	if !strings.Contains(buf.String(), "nztm_partition_active") {
		t.Error("active gauge missing")
	}
}
