package node

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"nztm/internal/kv"
	"nztm/internal/server"
	"nztm/internal/wal"
)

func TestValidateRejectsMisconfiguration(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want error
	}{
		{"unknown system", Config{System: "nope"}, ErrUnknownSystem},
		{"repl without data dir", Config{System: "nzstm", ReplAddr: "127.0.0.1:0"}, ErrReplNeedsDataDir},
		{"crash without data dir", Config{System: "nzstm", DiskSeed: 1, DiskSites: "kill-mid-write"}, ErrDiskNeedsDataDir},
		{"disk without data dir", Config{System: "nzstm", DiskSeed: 9, DiskSites: "all"}, ErrDiskNeedsDataDir},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := New(tc.cfg)
			if !errors.Is(err, tc.want) {
				t.Fatalf("New: %v, want %v", err, tc.want)
			}
			if n != nil {
				t.Fatal("New returned a node with an error")
			}
		})
	}
}

// TestLifecycle builds, serves and closes a memory and a durable node,
// then requires every registry slot and goroutine back.
func TestLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"memory", Config{System: "nzstm", Shards: 4, Buckets: 8}},
		{"durable", Config{System: "nzstm", Shards: 4, Buckets: 8, DataDir: t.TempDir(), Fsync: wal.FsyncNever}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Addr, tc.cfg.ObsAddr = "127.0.0.1:0", "127.0.0.1:0"
			g0 := runtime.NumGoroutine()
			n, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			n.Start()
			c, err := server.Dial(n.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Put("k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			if r, err := c.Get("k"); err != nil || !r.Found || string(r.Value) != "v" {
				t.Fatalf("Get = %+v, %v", r, err)
			}
			c.Close()
			if body := scrape(t, n.ObsAddr()); !strings.Contains(body, `nztm_server_requests_total{status="ok"} 2`) {
				t.Errorf("/metricsz does not count the two requests:\n%.2000s", body)
			}
			if err := n.Close(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			if act := n.Registry().Active(); act != 0 {
				t.Errorf("%d registry slots still active after Close", act)
			}
			deadline := time.Now().Add(3 * time.Second)
			for runtime.NumGoroutine() > g0 && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if g := runtime.NumGoroutine(); g > g0 {
				t.Errorf("goroutines: %d before New, %d after Close", g0, g)
			}
		})
	}
}

// scrape GETs /metricsz without keeping a connection open.
func scrape(t *testing.T, addr string) string {
	t.Helper()
	cl := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := cl.Get("http://" + addr + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGlockUnderFaults: glock cannot retry, so the node arms its fault
// plane without injected aborts; an injected abort would panic in
// tm.Retry on an executor and take the process down.
func TestGlockUnderFaults(t *testing.T) {
	n, err := New(Config{System: "glock", Shards: 2, Buckets: 4, Addr: "127.0.0.1:0", FaultSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Close(5 * time.Second)
	var c *server.Client
	ok := 0
	for i := 0; i < 200; i++ {
		if c == nil {
			if c, err = server.Dial(n.Addr()); err != nil {
				t.Fatal(err)
			}
		}
		ops := []kv.Op{{Kind: kv.OpPut, Key: fmt.Sprint("k", i%8), Value: []byte("v")}, {Kind: kv.OpGet, Key: "k0"}}
		if _, err := c.Do(ops); err != nil {
			c.Close() // an injected connection reset: redial
			c = nil
			continue
		}
		ok++
	}
	if c != nil {
		c.Close()
	}
	if ok < 150 {
		t.Errorf("only %d of 200 requests succeeded", ok)
	}
	if got := n.Plane().Config().AbortProb; got != 0 {
		t.Errorf("glock fault plane injects aborts with probability %g", got)
	}
}

// TestDiskFaultsArmInStart: recovery runs disarmed; only Start arms the
// disk-fault plane.
func TestDiskFaultsArmInStart(t *testing.T) {
	n, err := New(Config{System: "nzstm", Shards: 2, Buckets: 4, Addr: "127.0.0.1:0", DataDir: t.TempDir(), Fsync: wal.FsyncNever,
		DiskSeed: 9, DiskSites: "rename", DiskProb: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close(5 * time.Second)
	armed := func() string {
		var b strings.Builder
		n.Server().WriteMetricsz(&b)
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "nztm_disk_fault_armed "); ok {
				return v
			}
		}
		t.Fatalf("no nztm_disk_fault_armed sample in:\n%s", b.String())
		return ""
	}
	if got := armed(); got != "0" {
		t.Errorf("after New: nztm_disk_fault_armed %s, want 0", got)
	}
	n.Start()
	if got := armed(); got != "1" {
		t.Errorf("after Start: nztm_disk_fault_armed %s, want 1", got)
	}
}
