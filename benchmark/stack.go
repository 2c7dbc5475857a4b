package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"nztm/internal/kv"
	"nztm/internal/server"
	"nztm/internal/tm"
	"nztm/internal/wal"
)

// The shipped stack, as nztm-server wires it by default: the nzstm backend,
// 16 × 64 buckets, kv metrics on, and these server settings (executors
// default to 2×GOMAXPROCS = 4 under the GOMAXPROCS=2 every run is pinned
// to).
const backendName = "nzstm"

var serverConfig = server.Config{
	MaxAttempts:    512,
	RequestTimeout: 2 * time.Second,
	MaxInflight:    64,
	QueueDepth:     1024,
	Admission:      server.AdmitReject,
}

// fsyncPolicy is the durable workload's sync policy: the server's default
// and the one the durability guarantee is stated for.
const fsyncPolicy = wal.FsyncAlways

// core is the part of the stack below the server: backend and store. The
// served passes put a server on top of it; the ladder calls it directly.
type core struct {
	backend *kv.Backend
	store   *kv.Store
	rec     *wal.State // what recovery found (durable only)
}

// openCore builds the backend and the store. dir is the durable store's
// data directory ("" = memory-only) and dev the filesystem under its log;
// tr, when non-nil, is installed at the tm.System and wal.FS seams.
func openCore(dir string, dev wal.FS, tr *tracer) (*core, error) {
	backend, err := kv.OpenBackend(backendName, 2)
	if err != nil {
		return nil, err
	}
	sys := backend.Sys
	if tr != nil {
		sys = &tracedSystem{System: sys, tr: tr}
	}
	c := &core{backend: backend}
	if dir == "" {
		c.store = kv.New(sys, shards, bucketsPerShard)
	} else {
		if tr != nil {
			dev = tracedFS(dev, tr)
		}
		d := kv.Durability{Dir: dir, Fsync: fsyncPolicy, FS: dev}
		c.store, c.rec, err = kv.NewDurable(sys, shards, bucketsPerShard, d)
		if err != nil {
			return nil, err
		}
	}
	c.store.EnableMetrics()
	return c, nil
}

// stack is the whole self-hosted system: core, server on a loopback
// listener, and the client connections the load runs over.
type stack struct {
	*core
	srv     *server.Server
	ln      net.Listener
	served  chan error
	clients []*server.Client
}

// openStack brings the system up to the point where a client could send
// its first measured request: store built (or recovered), listener open,
// connections dialled, the whole keyspace preloaded over the wire.
func openStack(w *workload, keys []string, fill []byte, dir string, tr *tracer) (*stack, error) {
	c, err := openCore(dir, w.device(), tr)
	if err != nil {
		return nil, err
	}
	s := &stack{core: c, served: make(chan error, 1)}
	s.srv = server.New(c.store, c.backend.Reg, serverConfig)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.store.Close()
		return nil, err
	}
	s.ln = ln
	if tr != nil {
		s.ln = countingListener{Listener: ln, tr: tr}
	}
	go func() { s.served <- s.srv.Serve(s.ln) }()
	for i := 0; i < conns; i++ {
		cli, err := server.Dial(ln.Addr().String())
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, cli)
	}
	if err := s.preload(w, keys, fill); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// preloadOps returns the i-th preload batch: up to batchOps PUTs of keys
// i*batchOps..., each value naming its key and the preload as its writer.
func preloadOps(keys []string, fill []byte, i int) []kv.Op {
	lo := i * batchOps
	hi := lo + batchOps
	if hi > len(keys) {
		hi = len(keys)
	}
	ops := make([]kv.Op, 0, hi-lo)
	for k := lo; k < hi; k++ {
		v := append([]byte(nil), fill...)
		putHeader(v, uint32(k), preloadLane, 0)
		ops = append(ops, kv.Op{Kind: kv.OpPut, Key: keys[k], Value: v})
	}
	return ops
}

// preload stores every key through the server, batchOps keys per request.
// Each lane stores the keys it owns, over its own connection, so set-up
// runs with the workload's in-flight window and, like the run, without two
// transactions ever meeting in a shard.
func (s *stack) preload(w *workload, keys []string, fill []byte) error {
	lanes := w.lanes()
	per := len(keys) / lanes / batchOps // batches per lane
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			cli := s.clients[l%conns]
			for i := l * per; i < (l+1)*per; i++ {
				if _, err := cli.Do(preloadOps(keys, fill, i)); err != nil {
					errs[l] = fmt.Errorf("preload batch %d: %w", i, err)
					return
				}
			}
		}(l)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// close stops clients, server and store, in that order, and waits for each.
func (s *stack) close() error {
	for _, c := range s.clients {
		c.Close()
	}
	err := s.srv.Shutdown(5 * time.Second)
	s.ln.Close() // a Shutdown that won the race with Serve never saw the listener
	if serr := <-s.served; !errors.Is(serr, server.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// newDataDir makes a fresh WAL directory under root.
func newDataDir(root, workload string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "data-"+workload+"-")
}

// direct runs ops on the store with no server in the way, under the budget
// the server would give them.
func (c *core) direct(th *tm.Thread, ops []kv.Op) ([]kv.Result, error) {
	return c.store.Do(th, ops, kv.Budget{MaxAttempts: serverConfig.MaxAttempts})
}
