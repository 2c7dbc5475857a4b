package kv_test

// External test package: the wire row runs the store behind a server,
// and server imports kv.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"nztm/internal/fault"
	"nztm/internal/kv"
	"nztm/internal/server"
	"nztm/internal/wal"
)

// TestStoppedStoreRefusesWritesCleanly: whatever storage error stops the
// log, the write that hit it fails with its outcome unknown, every later
// write is refused before it executes with kv.ErrReadOnly
// (StatusReadOnly on the wire), and a shard the failed write never
// touched keeps serving reads of its durable prefix.
func TestStoppedStoreRefusesWritesCleanly(t *testing.T) {
	for _, tc := range []struct {
		site fault.DiskSite
		wire bool // drive the store through a server and a client
	}{
		{fault.DiskWriteENOSPC, false},
		{fault.DiskWriteEIO, false},
		{fault.DiskWriteShort, false},
		{fault.DiskSync, false},
		{fault.DiskSync, true},
	} {
		name := tc.site.String()
		if tc.wire {
			name += "-wire"
		}
		t.Run(name, func(t *testing.T) {
			b, err := kv.OpenBackend("nzstm", 4)
			if err != nil {
				t.Fatal(err)
			}
			var probs [fault.DiskSiteCount]float64
			probs[tc.site] = 1
			d := fault.NewDiskFS(fault.DiskConfig{Seed: 1, Probs: probs, Output: io.Discard}, wal.OSFS())
			s, _, err := kv.NewDurable(b.Sys, 4, 2, kv.Durability{Dir: t.TempDir(), FS: d})
			if err != nil {
				t.Fatalf("NewDurable: %v", err)
			}
			th := b.NewThread()
			t.Cleanup(func() { d.Disarm(); th.Close(); s.Close() })
			budget := kv.Budget{MaxAttempts: 100}

			// A durable key, and a victim key on another shard.
			put := func(key string) int {
				_, vec, err := s.DoSpan(th, []kv.Op{{Kind: kv.OpPut, Key: key, Value: []byte(key)}}, budget, nil)
				if err != nil || len(vec) != 1 {
					t.Fatalf("Put(%s) = %v, %v", key, vec, err)
				}
				return vec[0].Shard
			}
			stay, victim := put("stay"), ""
			for i := 0; victim == ""; i++ {
				if k := fmt.Sprintf("victim%d", i); put(k) != stay {
					victim = k
				}
			}

			do := func(ops []kv.Op) ([]kv.Result, error) { return s.Do(th, ops, budget) }
			if tc.wire {
				do = serve(t, s, b).Do // maps StatusReadOnly, and only it, to kv.ErrReadOnly
			}
			write := []kv.Op{{Kind: kv.OpPut, Key: victim, Value: []byte("lost")}}
			d.Arm()
			if _, err := do(write); err == nil || errors.Is(err, kv.ErrReadOnly) {
				t.Fatalf("write that hit %s = %v, want an outcome-unknown error", tc.site, err)
			}
			if _, err := do(write); !errors.Is(err, kv.ErrReadOnly) {
				t.Fatalf("write to the stopped store = %v, want kv.ErrReadOnly", err)
			}
			res, err := do([]kv.Op{{Kind: kv.OpGet, Key: "stay"}})
			if err != nil || !res[0].Found || !bytes.Equal(res[0].Value, []byte("stay")) {
				t.Fatalf("read of an untouched shard = %+v, %v; want it served", res, err)
			}
		})
	}
}

// serve runs s behind a server on loopback and returns a client.
func serve(t *testing.T, s *kv.Store, b *kv.Backend) *server.Client {
	t.Helper()
	srv := server.New(s, b.Reg, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() { srv.Shutdown(5 * time.Second); <-done })
	cl, err := server.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}
