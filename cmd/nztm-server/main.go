// nztm-server serves a sharded transactional key-value store over TCP,
// backed by any of the repository's TM systems running in real-concurrency
// mode — the serving-path deployment of NZSTM.
//
// Usage:
//
//	nztm-server -addr :7420 -statsz :7421 -system nzstm -shards 16 -buckets 64 -threads 8
//
// The binary speaks the length-prefixed binary protocol of internal/server
// (use internal/server.Client or examples/kvclient to talk to it) and exposes an
// HTTP observability mux beside it at the -statsz address: Prometheus
// /metricsz, the one stats surface (build and configuration info,
// counters, latency histograms, contention hotspots, and every armed
// plane's families), JSON /tracez (per-thread flight-recorder event logs,
// -trace to enable), /slowz, and net/http/pprof under /debug/pprof/
// behind -pprof. SIGINT/SIGTERM trigger a graceful drain: stop accepting,
// finish in-flight requests within -drain, flush + sync the write-ahead
// log, print the final /metricsz exposition and exit 0.
//
// Requests are served by an M:N scheduler (DESIGN.md §14): connections
// never bind registry slots; their requests flow through a bounded
// admission queue (-queue-depth, -admission reject|block) into a pool of
// -executors slot-bound workers, so N connections share M TM threads and
// overload is shed as StatusOverloaded instead of accepted and queued
// without bound.
//
// With -data-dir the store is crash-durable: committed transactions are
// appended once to one checksummed commit log shared by every shard
// (group commit, -fsync always|interval|never), -snapshot-every seals
// periodic per-shard snapshots that truncate the covered log, and boot
// recovers the directory's state before the listener opens. See
// DESIGN.md §12.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"nztm/internal/fault"
	"nztm/internal/kv"
	"nztm/internal/repl"
	"nztm/internal/server"
	"nztm/internal/trace"
	"nztm/internal/wal"
)

func main() {
	var (
		addr    = flag.String("addr", ":7420", "TCP listen address for the KV protocol")
		statsz  = flag.String("statsz", ":7421", "HTTP listen address for /metricsz, /tracez, /slowz (empty disables)")
		system  = flag.String("system", "nzstm", "backing TM system: "+strings.Join(kv.BackendNames(), ", "))
		shards  = flag.Int("shards", 16, "shard count")
		buckets = flag.Int("buckets", 64, "transactional buckets per shard")
		threads = flag.Int("threads", runtime.GOMAXPROCS(0), "expected concurrency hint (soft max: sizes initial TM tables; serving concurrency is set by -executors)")
		execs   = flag.Int("executors", 0, "slot-bound executor workers draining the admission queue (0 = 2×GOMAXPROCS, clamped to registry capacity); connections share this pool M:N")
		queueD  = flag.Int("queue-depth", 0, "admission queue capacity (0 = default 1024)")
		admit   = flag.String("admission", server.AdmitReject, "queue-full policy: reject (shed with StatusOverloaded) or block (park the connection reader)")
		maxAtt  = flag.Int("max-attempts", 512, "per-request transaction attempt budget (0 = unlimited)")
		timeout = flag.Duration("timeout", 2*time.Second, "per-request retry deadline (0 = none)")
		infl    = flag.Int("max-inflight", 64, "max concurrently executing requests per connection")
		drain   = flag.Duration("drain", 10*time.Second, "graceful shutdown drain budget")
		faultSd = flag.Uint64("fault-seed", 0, "arm the fault-injection plane with this seed (0 = off)")
		backoff = flag.Duration("retry-backoff", 0, "base backoff between transaction retries (0 = immediate retry)")
		traceN  = flag.Int("trace", 0, "per-thread flight-recorder capacity in events (0 = tracing off; keeps the hot path allocation-free)")
		pprofOn = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the observability mux")

		dataDir   = flag.String("data-dir", "", "write-ahead-log data directory (empty = memory-only, no durability)")
		fsyncMode = flag.String("fsync", "always", "WAL sync policy: always (fsync before every ack), interval (background fsync every -fsync-interval), never (OS decides)")
		fsyncIntv = flag.Duration("fsync-interval", 50*time.Millisecond, "background fsync period under -fsync interval")
		snapEvery = flag.Duration("snapshot-every", 0, "per-shard snapshot + log-truncation period (0 = never snapshot; the log grows unbounded)")

		crashSeed  = flag.Uint64("crash-seed", 0, "arm deterministic kill-self crash-point injection with this seed (0 = off; testing only)")
		crashSites = flag.String("crash-sites", "all", "comma-separated WAL crash sites to arm (pre-append, mid-append, post-append, mid-snapshot, mid-truncate, or all)")
		crashProb  = flag.Float64("crash-prob", 0.01, "per-visit firing probability at each armed crash site")

		diskSeed  = flag.Uint64("disk-fault-seed", 0, "arm deterministic disk I/O error injection with this seed (0 = off; testing only; passthrough until recovery completes)")
		diskSites = flag.String("disk-fault-sites", "all", "comma-separated disk fault sites to arm (write-eio, write-short, write-enospc, sync, open, read, rename, or all)")
		diskProb  = flag.Float64("disk-fault-prob", 0.01, "per-visit firing probability at each armed disk fault site")

		replAddr  = flag.String("repl-addr", "", "replication listen address (empty disables the replication plane; requires -data-dir)")
		replFrom  = flag.String("replicate-from", "", "start as a follower of the primary at this replication address (empty with -repl-addr = start as primary)")
		advertise = flag.String("advertise", "", "replication address to advertise to peers (default: the bound -repl-addr)")
		peers     = flag.String("peers", "", "comma-separated replication addresses of every OTHER node (election quorum + discovery)")
		nodeID    = flag.Int("node-id", 0, "this node's unique id in the cluster (election tie-break: lower wins)")
		replAck   = flag.String("repl-ack", "one", "write acknowledgement policy: none, one, majority")
		hbEvery   = flag.Duration("heartbeat-every", 50*time.Millisecond, "primary lease-renewal period")
		leaseTo   = flag.Duration("lease-timeout", 0, "follower election trigger after this silence (default 5 × -heartbeat-every)")
		readWait  = flag.Duration("max-read-wait", time.Second, "bounded-staleness read wait budget before StatusLagging")
	)
	flag.Parse()

	if *admit != server.AdmitReject && *admit != server.AdmitBlock {
		fmt.Fprintf(os.Stderr, "nztm-server: -admission must be %q or %q, got %q\n",
			server.AdmitReject, server.AdmitBlock, *admit)
		os.Exit(2)
	}
	backend, err := kv.OpenBackend(*system, *threads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nztm-server:", err)
		os.Exit(2)
	}
	sys := backend.Sys
	cfg := server.Config{
		MaxAttempts:    *maxAtt,
		RequestTimeout: *timeout,
		MaxInflight:    *infl,
		RetryBackoff:   *backoff,
		QueueDepth:     *queueD,
		Admission:      *admit,
	}
	// -executors 0 keeps the server's own default (2×GOMAXPROCS, clamped);
	// an explicit count is clamped to what the registry can bind with a
	// slot spared for system actors (WAL, snapshots, replication apply).
	if *execs > 0 {
		cfg.Executors = backend.Executors(*execs)
	}
	var fr *trace.FlightRecorder
	if *traceN > 0 {
		fr = trace.New(*traceN)
		backend.Reg.BindRecorder(fr)
	}
	var metricszHooks []func(io.Writer)
	var plane *fault.Plane
	if *faultSd != 0 {
		fcfg := fault.DefaultConfig(*faultSd)
		if strings.EqualFold(*system, "glock") {
			// The global-lock baseline cannot retry (tm.Retry panics over
			// it); every other fault class stays on.
			fcfg.AbortProb = 0
		}
		plane = fault.New(fcfg)
		cfg.WrapThread = plane.WrapThread
		sys = plane.WrapSystem(sys)
		metricszHooks = append(metricszHooks, plane.WriteProm)
		if fr != nil {
			plane.BindRecorder(fr)
		}
	}

	var store *kv.Store
	var disk *fault.Disk
	if *dataDir != "" {
		policy, err := wal.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nztm-server:", err)
			os.Exit(2)
		}
		dur := kv.Durability{
			Dir:           *dataDir,
			Fsync:         policy,
			FsyncInterval: *fsyncIntv,
			SnapshotEvery: *snapEvery,
			NewThread:     backend.NewThread,
		}
		if fr != nil {
			dur.Recorder = fr.ForSource(trace.WALSource)
		}
		if *crashSeed != 0 {
			probs, err := fault.ParseCrashSites(*crashSites, *crashProb)
			if err != nil {
				fmt.Fprintln(os.Stderr, "nztm-server:", err)
				os.Exit(2)
			}
			cp := fault.NewCrashPoints(fault.CrashConfig{Seed: *crashSeed, Probs: probs})
			dur.CrashHook = cp.Hook
			fmt.Printf("nztm-server: crash points armed: sites=%s prob=%g seed=%d\n",
				*crashSites, *crashProb, *crashSeed)
		}
		if *diskSeed != 0 {
			probs, err := fault.ParseDiskSites(*diskSites, *diskProb)
			if err != nil {
				fmt.Fprintln(os.Stderr, "nztm-server:", err)
				os.Exit(2)
			}
			// The disk stays passthrough until Arm() fires right before the
			// ready line: recovery and the boot MANIFEST always see clean
			// I/O, faults only hit the serving path.
			disk = fault.NewDisk(fault.DiskConfig{Seed: *diskSeed, Probs: probs, Output: os.Stderr})
			dur.FS = disk
			metricszHooks = append(metricszHooks, disk.WriteProm)
			fmt.Printf("nztm-server: disk faults loaded: sites=%s prob=%g seed=%d (armed after recovery)\n",
				*diskSites, *diskProb, *diskSeed)
		}
		// Recovery runs here, before the listener opens: the store never
		// serves a byte it cannot prove.
		s, st, err := kv.NewDurable(sys, *shards, *buckets, dur)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nztm-server:", err)
			os.Exit(1)
		}
		store = s
		fmt.Printf("nztm-server: recovered %s: replayed=%d truncated_bytes=%d in %v (fsync=%s snapshot-every=%v)\n",
			*dataDir, st.ReplayedFrames, st.TruncatedBytes,
			st.Duration.Round(time.Microsecond), policy, *snapEvery)
		metricszHooks = append(metricszHooks, store.WriteDurabilityProm)
	} else {
		store = kv.New(sys, *shards, *buckets)
	}
	store.EnableMetrics()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nztm-server:", err)
		os.Exit(1)
	}

	// The replication plane sits between the listener and the executor:
	// its CheckRequest hook redirects writes off followers, holds bounded
	// reads to their staleness contract, and (via the store's commit
	// gate) delays write acks until enough followers applied the frame.
	var replNode *repl.Node
	var parts *fault.Partitions
	if *replAddr != "" {
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "nztm-server: -repl-addr requires -data-dir (the log is the stream)")
			os.Exit(2)
		}
		rcfg := repl.Config{
			NodeID:         *nodeID,
			KVAddr:         ln.Addr().String(),
			ReplAddr:       *replAddr,
			Advertise:      *advertise,
			PrimaryFrom:    *replFrom,
			AckPolicy:      *replAck,
			HeartbeatEvery: *hbEvery,
			LeaseTimeout:   *leaseTo,
			MaxReadWait:    *readWait,
			NewThread:      backend.NewThread,
			Logf: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			},
		}
		if *peers != "" {
			rcfg.Peers = strings.Split(*peers, ",")
		}
		if fr != nil {
			rcfg.Recorder = fr.ForSource(trace.ReplSource)
		}
		// Every replication dial goes through the partition table, so the
		// soak harness can blackhole peers at runtime via /partitionz.
		parts = fault.NewPartitions()
		rcfg.Dial = parts.Dial
		metricszHooks = append(metricszHooks, parts.WriteProm)
		replNode, err = repl.Start(store, rcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nztm-server:", err)
			os.Exit(1)
		}
		cfg.CheckRequest = replNode.CheckRequest
		metricszHooks = append(metricszHooks, replNode.WriteMetricsz)
		fmt.Printf("nztm-server: replication on %s: node=%d role=%s epoch=%d ack=%s peers=%d\n",
			replNode.ReplAddr(), *nodeID, replNode.Role(), replNode.Epoch(), *replAck, len(rcfg.Peers))
	}

	cfg.ExtraMetricsz = chainWriters(metricszHooks)
	srv := server.New(store, backend.Reg, cfg)
	if plane != nil {
		ln = plane.WrapListener(ln)
		fmt.Printf("nztm-server: fault plane armed, seed=%d\n", *faultSd)
	}
	fmt.Printf("nztm-server: serving %s (%d shards × %d buckets, %d-thread hint, %d slot cap) on %s\n",
		store.System().Name(), *shards, *buckets, *threads, backend.Reg.Max(), ln.Addr())
	fmt.Printf("nztm-server: scheduler: executors=%d queue-depth=%d admission=%s (connections share the executor pool M:N)\n",
		cfg.Executors, srv.QueueCap(), cfg.Admission)

	// The observability mux binds here, before the ready line, so that
	// line can name the bound address (a ":0" request included) and a
	// bind failure stops the server instead of leaving it half up.
	var statszAddr string
	if *statsz != "" {
		sln, err := net.Listen("tcp", *statsz)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nztm-server: observability mux:", err)
			os.Exit(1)
		}
		statszAddr = sln.Addr().String()
		mux := http.NewServeMux()
		mux.HandleFunc("/metricsz", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			srv.WriteMetricsz(w)
		})
		mux.Handle("/tracez", srv.TracezHandler())
		mux.Handle("/slowz", srv.SlowzHandler())
		if parts != nil {
			// Runtime partition control: /partitionz?op=block&peer=<addr>&dir=in|out|both,
			// op=heal&peer=<addr>, op=healall, or bare for status; every
			// answer is the partition plane's /metricsz families.
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
		}
		if *pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		go func() {
			if err := http.Serve(sln, mux); err != nil {
				fmt.Fprintln(os.Stderr, "nztm-server: observability mux:", err)
			}
		}()
		fmt.Printf("nztm-server: /metricsz /tracez /slowz on http://%s (pprof=%v, trace=%d events/thread)\n",
			statszAddr, *pprofOn, *traceN)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	// SIGQUIT is the live-diagnostics signal: dump the flight-recorder
	// rings and the slow-request ring to stderr and keep serving
	// (Notify overrides the runtime's kill-with-stacks default).
	diag := make(chan os.Signal, 1)
	signal.Notify(diag, syscall.SIGQUIT)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	if disk != nil {
		// Recovery (and any repl bootstrap snapshot of a clean boot) is
		// done; everything the serving path writes from here on may fault.
		disk.Arm()
		fmt.Printf("nztm-server: disk faults armed: sites=%s prob=%g seed=%d\n",
			*diskSites, *diskProb, *diskSeed)
	}
	// The machine-readable ready line: recovery is complete and the
	// listener is accepting (crash soaks and scripts wait for this). It
	// names the bound KV address and, when the mux is on, its address.
	if statszAddr != "" {
		fmt.Printf("nztm-server: ready addr=%s statsz=%s\n", ln.Addr(), statszAddr)
	} else {
		fmt.Printf("nztm-server: ready addr=%s\n", ln.Addr())
	}

serve:
	for {
		select {
		case <-diag:
			fmt.Fprintln(os.Stderr, "nztm-server: SIGQUIT: dumping diagnostics")
			if fr != nil {
				fr.Dump(os.Stderr)
			} else {
				fmt.Fprintln(os.Stderr, "nztm-server: flight recorder disabled (-trace 0)")
			}
			srv.DumpSlow(os.Stderr)
			fmt.Fprintln(os.Stderr, "nztm-server: diagnostics done")
		case sig := <-sigs:
			fmt.Printf("nztm-server: %v, draining...\n", sig)
			if err := srv.Shutdown(*drain); err != nil {
				// In-flight requests may still be running; closing the WAL
				// under them could tear a frame, so fail loudly instead.
				fmt.Fprintln(os.Stderr, "nztm-server:", err)
				os.Exit(1)
			}
			<-done
			break serve
		case err := <-done:
			fmt.Fprintln(os.Stderr, "nztm-server:", err)
			os.Exit(1)
		}
	}
	// Drained: flush + sync + close the WAL and release registry slots,
	// so a clean exit always recovers to exactly the acknowledged state.
	if replNode != nil {
		replNode.Close()
	}
	if err := store.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "nztm-server: close:", err)
		os.Exit(1)
	}
	srv.WriteMetricsz(os.Stdout)
}

// chainWriters folds metrics appenders into one hook (nil when
// the list is empty, keeping the export paths branch-free).
func chainWriters(hooks []func(io.Writer)) func(io.Writer) {
	if len(hooks) == 0 {
		return nil
	}
	return func(w io.Writer) {
		for _, h := range hooks {
			h(w)
		}
	}
}
