// Package node is the serving stack's one composition root: the only
// place that knows how a backend, the fault planes, the store and its
// write-ahead log, replication, the server and the observability mux fit
// together. New builds and binds, Start serves, Close tears down in
// reverse (DESIGN.md §6).
package node

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"nztm/internal/fault"
	"nztm/internal/kv"
	"nztm/internal/repl"
	"nztm/internal/server"
	"nztm/internal/tm"
	"nztm/internal/trace"
	"nztm/internal/wal"
)

// Config describes one node. Every plane is off unless its field is set;
// zero sizes take kv's and the server's defaults.
type Config struct {
	System          string // backing TM system, one of kv.BackendNames
	Shards, Buckets int    // store geometry: shards × buckets per shard
	Threads         int    // expected-concurrency hint sizing the TM tables
	Executors       int    // executor pool; positive counts keep a registry slot free
	QueueDepth      int    // admission queue capacity
	RetryBackoff    time.Duration
	Addr, ObsAddr   string // KV and observability mux listen addresses; ObsAddr "" = no mux
	TraceEvents     int    // per-thread flight-recorder capacity; 0 = tracing off
	FaultSeed       uint64 // arms the TM and connection fault plane; 0 = off
	DataDir         string // makes the store crash-durable; the fields below need it
	Fsync           wal.FsyncPolicy
	FsyncInterval   time.Duration
	SnapshotEvery   time.Duration
	DiskSeed        uint64 // arms disk I/O errors and kill sites once Start runs; 0 = off
	DiskSites       string
	DiskProb        float64
	ReplAddr        string // turns on replication
	Advertise       string
	Peers           []string
	NodeID          int
	HeartbeatEvery  time.Duration
	LeaseTimeout    time.Duration
	MaxReadWait     time.Duration
	Logf            func(format string, args ...any) // replication log lines; nil = silent
}

// Configuration errors, reported before anything is built.
var (
	ErrUnknownSystem    = errors.New("node: unknown system")
	ErrReplNeedsDataDir = errors.New("node: replication requires a data directory (the log is the stream)")
	ErrDiskNeedsDataDir = errors.New("node: disk faults require a data directory")
)

// Validate reports the first configuration error.
func (c *Config) Validate() error {
	if !slices.ContainsFunc(kv.BackendNames(), func(n string) bool { return strings.EqualFold(n, c.System) }) {
		return fmt.Errorf("%w %q (have %s)", ErrUnknownSystem, c.System, strings.Join(kv.BackendNames(), ", "))
	}
	switch {
	case c.DataDir == "" && c.ReplAddr != "":
		return ErrReplNeedsDataDir
	case c.DataDir == "" && c.DiskSeed != 0:
		return ErrDiskNeedsDataDir
	}
	if c.DiskSeed != 0 {
		_, err := fault.ParseDiskSites(c.DiskSites, c.DiskProb)
		return err
	}
	return nil
}

// Node is one assembled serving stack.
type Node struct {
	backend *kv.Backend
	rec     *trace.FlightRecorder // nil when tracing is off
	plane   *fault.Plane          // nil without FaultSeed
	disk    *fault.Disk           // nil without DiskSeed
	store   *kv.Store
	repl    *repl.Node // nil without ReplAddr
	srv     *server.Server
	ln      net.Listener
	obsLn   net.Listener // nil without ObsAddr
	obs     *http.Server

	wg       sync.WaitGroup
	stopped  chan struct{} // closed when Serve returns
	serveErr error
}

// New validates cfg and builds the node in dependency order: backend;
// flight recorder; fault plane, with injected aborts off under glock
// (tm.Retry panics there); store, recovered from DataDir before any
// listener opens; the KV listener; replication, which advertises that
// listener and dials through the partition table; the server; the bound
// observability mux. Nothing serves until Start. On error everything
// built so far is released.
func New(cfg Config) (n *Node, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	backend, err := kv.OpenBackend(cfg.System, cfg.Threads)
	if err != nil {
		return nil, err
	}
	n = &Node{backend: backend, stopped: make(chan struct{})}
	defer func() {
		if err != nil {
			n.release()
			n = nil
		}
	}()
	// The request budget and queue policy are constants: no caller ever
	// set them to anything else.
	scfg := server.Config{
		MaxAttempts:    512,
		RequestTimeout: 2 * time.Second,
		Admission:      server.AdmitReject,
		QueueDepth:     cfg.QueueDepth,
		RetryBackoff:   cfg.RetryBackoff,
	}
	if cfg.Executors > 0 {
		scfg.Executors = backend.Executors(cfg.Executors)
	}
	if cfg.TraceEvents > 0 {
		n.rec = trace.New(cfg.TraceEvents)
		backend.Reg.BindRecorder(n.rec)
	}
	var extra []func(io.Writer) // the other planes' /metricsz families
	sys := backend.Sys
	if cfg.FaultSeed != 0 {
		fcfg := fault.DefaultConfig(cfg.FaultSeed)
		if strings.EqualFold(cfg.System, "glock") {
			fcfg.AbortProb = 0
		}
		n.plane = fault.New(fcfg)
		n.plane.BindRecorder(n.rec)
		sys = n.plane.WrapSystem(sys)
		scfg.WrapThread = n.plane.WrapThread
		extra = append(extra, n.plane.WriteProm)
	}
	if cfg.DataDir == "" {
		n.store = kv.New(sys, cfg.Shards, cfg.Buckets)
	} else {
		if n.store, err = n.openDurable(cfg, sys); err != nil {
			return n, err
		}
		if n.disk != nil {
			extra = append(extra, n.disk.WriteProm)
		}
		extra = append(extra, n.store.WriteDurabilityProm)
	}
	n.store.EnableMetrics()
	if n.ln, err = net.Listen("tcp", cfg.Addr); err != nil {
		return n, err
	}
	var parts *fault.Partitions
	if cfg.ReplAddr != "" {
		// Replication sits between the listener and the executors: it
		// redirects writes off followers and holds bounded reads to their
		// staleness contract. Its dials go through the partition table, so
		// a soak can blackhole peers at runtime through /partitionz.
		parts = fault.NewPartitions()
		n.repl, err = repl.Start(n.store, repl.Config{
			NodeID:         cfg.NodeID,
			KVAddr:         n.ln.Addr().String(),
			ReplAddr:       cfg.ReplAddr,
			Advertise:      cfg.Advertise,
			Peers:          cfg.Peers,
			HeartbeatEvery: cfg.HeartbeatEvery,
			LeaseTimeout:   cfg.LeaseTimeout,
			MaxReadWait:    cfg.MaxReadWait,
			NewThread:      backend.NewThread,
			Dial:           parts.Dial,
			Recorder:       n.rec.ForSource(trace.ReplSource),
			Logf:           cfg.Logf,
		})
		if err != nil {
			return n, err
		}
		scfg.CheckRequest = n.repl.CheckRequest
		extra = append(extra, parts.WriteProm, n.repl.WriteMetricsz)
	}
	scfg.ExtraMetricsz = func(w io.Writer) {
		for _, write := range extra {
			write(w)
		}
	}
	n.srv = server.New(n.store, backend.Reg, scfg)
	if n.plane != nil {
		n.ln = n.plane.WrapListener(n.ln)
	}
	if cfg.ObsAddr != "" {
		if n.obsLn, err = net.Listen("tcp", cfg.ObsAddr); err != nil {
			return n, fmt.Errorf("observability mux: %w", err)
		}
		n.obs = &http.Server{Handler: n.mux(parts)}
	}
	return n, nil
}

// openDurable recovers the store with the (still disarmed) disk-fault
// filesystem under its log.
func (n *Node) openDurable(cfg Config, sys tm.System) (*kv.Store, error) {
	dur := kv.Durability{
		Dir:           cfg.DataDir,
		Fsync:         cfg.Fsync,
		FsyncInterval: cfg.FsyncInterval,
		SnapshotEvery: cfg.SnapshotEvery,
		NewThread:     n.backend.NewThread,
		Recorder:      n.rec.ForSource(trace.WALSource),
	}
	if cfg.DiskSeed != 0 {
		probs, _ := fault.ParseDiskSites(cfg.DiskSites, cfg.DiskProb) // checked by Validate
		n.disk = fault.NewDisk(fault.DiskConfig{Seed: cfg.DiskSeed, Probs: probs, Output: os.Stderr})
		dur.FS = n.disk
	}
	store, _, err := kv.NewDurable(sys, cfg.Shards, cfg.Buckets, dur)
	return store, err
}

// mux is the observability surface: /metricsz, /tracez, /slowz, pprof
// and, on a replicated node, /partitionz.
func (n *Node) mux(parts *fault.Partitions) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metricsz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		n.srv.WriteMetricsz(w)
	})
	mux.Handle("/tracez", n.srv.TracezHandler())
	mux.Handle("/slowz", n.srv.SlowzHandler())
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	if parts == nil {
		return mux
	}
	// Runtime partition control: op=block&peer=<addr>&dir=in|out|both,
	// op=heal&peer=<addr>, op=healall, or bare for status; every answer
	// is the partition plane's /metricsz families.
	mux.HandleFunc("/partitionz", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		switch q.Get("op") {
		case "block":
			if err := parts.Block(q.Get("peer"), q.Get("dir")); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		case "heal":
			parts.Heal(q.Get("peer"))
		case "healall":
			parts.HealAll()
		case "", "status":
		default:
			http.Error(w, "unknown op (have block, heal, healall, status)", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		parts.WriteProm(w)
	})
	return mux
}

// Start serves the KV listener and the mux, then arms the disk-fault
// plane: recovery and a clean boot's replication bootstrap ran on clean
// I/O, so only the serving path can fault.
func (n *Node) Start() {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.serveErr = n.srv.Serve(n.ln)
		close(n.stopped)
	}()
	if n.obs != nil {
		go n.obs.Serve(n.obsLn)
	}
	if n.disk != nil {
		n.disk.Arm()
	}
}

// Stopped is closed when the KV server stops serving: after Close, or on
// a listener failure, which Close then reports.
func (n *Node) Stopped() <-chan struct{} { return n.stopped }

// Close drains the server within drain, then closes replication, the
// store (flush, sync and close the WAL, release its registry slots) and
// the mux, and returns the first error. A forced drain returns at once:
// requests may still be running, and closing the WAL under them could
// tear a frame.
func (n *Node) Close(drain time.Duration) error {
	if err := n.srv.Shutdown(drain); err != nil {
		return err
	}
	err := n.release()
	n.wg.Wait()
	if n.serveErr != nil && !errors.Is(n.serveErr, server.ErrServerClosed) {
		return n.serveErr
	}
	return err
}

// release closes what New built below the server and every listener,
// and returns the first error.
func (n *Node) release() (err error) {
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	if n.repl != nil {
		keep(n.repl.Close())
	}
	if n.store != nil {
		keep(n.store.Close())
	}
	if n.obsLn != nil {
		keep(n.obs.Close())
		n.obsLn.Close()
	}
	if n.ln != nil {
		n.ln.Close()
	}
	return err
}

// Server returns the KV server.
func (n *Node) Server() *server.Server { return n.srv }

// Store returns the store.
func (n *Node) Store() *kv.Store { return n.store }

// Registry returns the registry every executor and system thread binds.
func (n *Node) Registry() *tm.Registry { return n.backend.Reg }

// Plane returns the TM and connection fault plane (nil when off).
func (n *Node) Plane() *fault.Plane { return n.plane }

// Recorder returns the flight recorder (nil when tracing is off).
func (n *Node) Recorder() *trace.FlightRecorder { return n.rec }

// Repl returns the replication node (nil without ReplAddr).
func (n *Node) Repl() *repl.Node { return n.repl }

// Addr returns the bound KV address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// ObsAddr returns the bound mux address ("" without a mux).
func (n *Node) ObsAddr() string {
	if n.obsLn == nil {
		return ""
	}
	return n.obsLn.Addr().String()
}
