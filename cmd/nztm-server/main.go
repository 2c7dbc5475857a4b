// nztm-server serves a sharded transactional key-value store over TCP,
// backed by any of the repository's TM systems in real-concurrency mode —
// the serving-path deployment of NZSTM.
//
// Usage:
//
//	nztm-server -addr :7420 -statsz :7421 -system nzstm -shards 16 -buckets 64 -threads 8
//
// It speaks internal/server's length-prefixed protocol (internal/server.Client,
// examples/kvclient) and serves /metricsz, /tracez, /slowz and
// /debug/pprof/ on the -statsz mux (DESIGN.md §11). Requests run on the
// M:N scheduler (§14); -data-dir makes the store crash-durable, recovered
// before the listener opens (§12). SIGINT/SIGTERM drain within -drain,
// flush and sync the log, print the final /metricsz and exit 0; SIGQUIT
// dumps the flight-recorder and slow-request rings and keeps serving.
// internal/node assembles the stack; this file is flags, boot lines and
// the signal loop.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"nztm/internal/kv"
	"nztm/internal/node"
	"nztm/internal/server"
	"nztm/internal/wal"
)

// needs maps each flag that means nothing alone to the flag it needs:
// the durable store's flags need -data-dir and the replication flags
// need -repl-addr. Setting one without its partner is a usage error, not
// a silent boot that ignores it.
var needs = map[string]string{
	"fsync":            "data-dir",
	"fsync-interval":   "data-dir",
	"snapshot-every":   "data-dir",
	"disk-fault-seed":  "data-dir",
	"disk-fault-sites": "data-dir",
	"disk-fault-prob":  "data-dir",
	"repl-addr":        "data-dir",
	"peers":            "repl-addr",
	"node-id":          "repl-addr",
	"advertise":        "repl-addr",
	"heartbeat-every":  "repl-addr",
	"lease-timeout":    "repl-addr",
	"max-read-wait":    "repl-addr",
}

func main() {
	var cfg node.Config
	flag.StringVar(&cfg.Addr, "addr", ":7420", "TCP listen address for the KV protocol")
	flag.StringVar(&cfg.ObsAddr, "statsz", ":7421", "HTTP listen address for /metricsz, /tracez, /slowz, /debug/pprof/ (empty disables)")
	flag.StringVar(&cfg.System, "system", "nzstm", "backing TM system: "+strings.Join(kv.BackendNames(), ", "))
	flag.IntVar(&cfg.Shards, "shards", 16, "shard count")
	flag.IntVar(&cfg.Buckets, "buckets", 64, "transactional buckets per shard")
	flag.IntVar(&cfg.Threads, "threads", runtime.GOMAXPROCS(0), "expected concurrency hint (soft max: sizes initial TM tables; serving concurrency is set by -executors)")
	flag.IntVar(&cfg.Executors, "executors", 0, "slot-bound executor workers draining the admission queue (0 = 2×GOMAXPROCS, clamped to registry capacity); connections share this pool M:N")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain budget")
	flag.Uint64Var(&cfg.FaultSeed, "fault-seed", 0, "arm the fault-injection plane with this seed (0 = off)")
	flag.IntVar(&cfg.TraceEvents, "trace", 0, "per-thread flight-recorder capacity in events (0 = tracing off; keeps the hot path allocation-free)")

	flag.StringVar(&cfg.DataDir, "data-dir", "", "write-ahead-log data directory (empty = memory-only, no durability)")
	fsync := flag.String("fsync", "always", "WAL sync policy: always (fsync before every ack), interval (background fsync every -fsync-interval), never (OS decides)")
	flag.DurationVar(&cfg.FsyncInterval, "fsync-interval", 50*time.Millisecond, "background fsync period under -fsync interval")
	flag.DurationVar(&cfg.SnapshotEvery, "snapshot-every", 0, "per-shard snapshot + log-truncation period (0 = never snapshot; the log grows unbounded)")

	flag.Uint64Var(&cfg.DiskSeed, "disk-fault-seed", 0, "arm deterministic disk I/O error and kill-self injection with this seed (0 = off; testing only; passthrough until recovery completes)")
	flag.StringVar(&cfg.DiskSites, "disk-fault-sites", "all", "comma-separated disk fault sites to arm: I/O errors (write-eio, write-short, write-enospc, sync, open, read, rename; all = these seven) and kill-self sites (kill-before-write, kill-mid-write, kill-after-write, kill-before-rename, kill-before-remove)")
	flag.Float64Var(&cfg.DiskProb, "disk-fault-prob", 0.01, "per-visit firing probability at each armed disk fault site")

	flag.StringVar(&cfg.ReplAddr, "repl-addr", "", "replication listen address (empty disables the replication plane; requires -data-dir)")
	flag.StringVar(&cfg.Advertise, "advertise", "", "replication address to advertise to peers (default: the bound -repl-addr)")
	peers := flag.String("peers", "", "comma-separated replication addresses of every OTHER node (sets the majority quorum; discovery)")
	flag.IntVar(&cfg.NodeID, "node-id", 0, "this node's unique id in the cluster (the id a vote names)")
	flag.DurationVar(&cfg.HeartbeatEvery, "heartbeat-every", 50*time.Millisecond, "primary lease-renewal period")
	flag.DurationVar(&cfg.LeaseTimeout, "lease-timeout", 0, "follower election trigger after this silence (default 5 × -heartbeat-every)")
	flag.DurationVar(&cfg.MaxReadWait, "max-read-wait", time.Second, "bounded-staleness read wait budget before StatusLagging")
	flag.Parse()

	flag.Visit(func(f *flag.Flag) {
		if need, ok := needs[f.Name]; ok && flag.Lookup(need).Value.String() == "" {
			usage("-" + f.Name + " requires -" + need)
		}
	})
	policy, err := wal.ParseFsyncPolicy(*fsync)
	if err != nil {
		usage(err.Error())
	}
	cfg.Fsync = policy
	if *peers != "" {
		cfg.Peers = strings.Split(*peers, ",")
	}
	cfg.Logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	if err := cfg.Validate(); err != nil {
		usage(err.Error())
	}
	if cfg.DiskSeed != 0 {
		fmt.Printf("nztm-server: disk faults loaded: sites=%s prob=%g seed=%d (armed after recovery)\n",
			cfg.DiskSites, cfg.DiskProb, cfg.DiskSeed)
	}
	n, err := node.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nztm-server:", err)
		os.Exit(1)
	}
	srv, store := n.Server(), n.Store()
	if st := store.RecoveryState(); st != nil {
		fmt.Printf("nztm-server: recovered %s: replayed=%d truncated_bytes=%d in %v (fsync=%s snapshot-every=%v)\n",
			cfg.DataDir, st.ReplayedFrames, st.TruncatedBytes, st.Duration.Round(time.Microsecond), cfg.Fsync, cfg.SnapshotEvery)
	}
	if r := n.Repl(); r != nil {
		// No role yet: an election decides it a moment after boot.
		fmt.Printf("nztm-server: replication on %s: node=%d quorum=%d peers=%d\n",
			r.ReplAddr(), cfg.NodeID, r.Quorum(), len(cfg.Peers))
	}
	if n.Plane() != nil {
		fmt.Printf("nztm-server: fault plane armed, seed=%d\n", cfg.FaultSeed)
	}
	fmt.Printf("nztm-server: serving %s (%d shards × %d buckets, %d-thread hint, %d slot cap) on %s\n",
		store.System().Name(), cfg.Shards, cfg.Buckets, cfg.Threads, n.Registry().Max(), n.Addr())
	fmt.Printf("nztm-server: scheduler: executors=%d queue-depth=%d admission=%s (connections share the executor pool M:N)\n",
		srv.Executors(), srv.QueueCap(), server.AdmitReject)
	if n.ObsAddr() != "" {
		fmt.Printf("nztm-server: /metricsz /tracez /slowz /debug/pprof/ on http://%s (trace=%d events/thread)\n",
			n.ObsAddr(), cfg.TraceEvents)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	// SIGQUIT is the live-diagnostics signal: dump the flight-recorder
	// rings and the slow-request ring to stderr and keep serving
	// (Notify overrides the runtime's kill-with-stacks default).
	diag := make(chan os.Signal, 1)
	signal.Notify(diag, syscall.SIGQUIT)
	n.Start()
	if cfg.DiskSeed != 0 {
		fmt.Printf("nztm-server: disk faults armed: sites=%s prob=%g seed=%d\n", cfg.DiskSites, cfg.DiskProb, cfg.DiskSeed)
	}
	// The machine-readable ready line: recovery is complete and the
	// listener is accepting (crash soaks and scripts wait for this). It
	// names the bound KV address and, when the mux is on, its address.
	ready := "nztm-server: ready addr=" + n.Addr()
	if n.ObsAddr() != "" {
		ready += " statsz=" + n.ObsAddr()
	}
	fmt.Println(ready)

	for {
		select {
		case <-diag:
			fmt.Fprintln(os.Stderr, "nztm-server: SIGQUIT: dumping diagnostics")
			if fr := n.Recorder(); fr != nil {
				fr.Dump(os.Stderr)
			} else {
				fmt.Fprintln(os.Stderr, "nztm-server: flight recorder disabled (-trace 0)")
			}
			srv.DumpSlow(os.Stderr)
			fmt.Fprintln(os.Stderr, "nztm-server: diagnostics done")
		case sig := <-sigs:
			fmt.Printf("nztm-server: %v, draining...\n", sig)
			// Drained, then the WAL flushed, synced and closed: a clean
			// exit always recovers to exactly the acknowledged state.
			if err := n.Close(*drain); err != nil {
				fmt.Fprintln(os.Stderr, "nztm-server:", err)
				os.Exit(1)
			}
			srv.WriteMetricsz(os.Stdout)
			return
		case <-n.Stopped():
			fmt.Fprintln(os.Stderr, "nztm-server:", n.Close(*drain))
			os.Exit(1)
		}
	}
}

// usage reports a configuration error and exits 2, as flag does.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "nztm-server:", msg)
	os.Exit(2)
}
