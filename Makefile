# Tier-1 verification and developer shortcuts.
#
#   make check      build + go vet + full tests (including the hot-path
#                   allocation gate and the tracing 0-allocs-off /
#                   ≤2-allocs-on guard) + the kv bucket-update benchmark smoke
#                   and allocation gate + the server request-path benchmark
#                   smoke and allocation gate + race detector over the concurrency-
#                   critical packages (tm, core, kv, server, fault, trace,
#                   metrics, histcheck, wal, repl, bench, node, the
#                   soak harness's own tests; kv and
#                   server hold the value aliasing tests) + a tracing-enabled
#                   race pass + TestGenomePhases ×1000 (the repeat-read
#                   reproducer) + the contended serving workload +
#                   protocol and WAL fuzzers + a short fault-injected soak +
#                   the crash-recovery soak + the storage-fault soak +
#                   the failover/partition soak — run this before sending
#                   a PR; it writes no tracked file
#   make vet        go vet ./..., and fail if gofmt -l lists any file of
#                   internal cmd examples benchmark or the root package
#                   (named, not ".": .bench-ab/ and .diskfault-rate/ hold
#                   archived copies of other commits)
#   make genome     TestGenomePhases 1000 times (~2 s): four workers insert
#                   into one shared set; a reader whose repeated Read lost its
#                   registration let a writer slip past it and the set ended
#                   with a duplicate (ROADMAP item 1). 0 failures required
#   make contended  the benchmark's ungated mem-batch-contended workload for
#                   5 s: NZSTM under real conflicts, aborts and inflations,
#                   every GET and the final state checked; any failed check
#                   exits non-zero
#   make item1      the item-1 flake ledger (not part of check): builds the
#                   test binaries once and prints failures per test at fixed
#                   counts — TestBankInvariantUnderInflation ×3000,
#                   TestFaultedSystemStaysCorrect ×1000, TestGenomePhases
#                   ×3000, TestRegistryChurnNZ ×200 (ITEM1_DIR for the
#                   binaries). Run it on both commits of a core change
#   make fuzz       native Go fuzzing of the wire protocol and the WAL
#                   frame/recovery decoders (10s per target)
#   make soak       short seeded fault-injection soak with linearizability
#                   checking, then an oversubscribed pass (connections ≫
#                   executors through the M:N scheduler, backpressure and
#                   slot-leak gates on; see cmd/nztm-soak; SOAK_FLAGS /
#                   OVERSUB_FLAGS to customise)
#   make crash      crash-recovery soak: a child nztm-server SIGKILLs
#                   itself at the disk-fault filesystem's seeded kill sites
#                   (before, halfway through and after a write, before a
#                   rename, before a remove; all five), is restarted, and
#                   every acknowledged write must survive, the recovered
#                   history stay linearizable and no child need a parent
#                   kill (CRASH_FLAGS to customise; see DESIGN.md §12)
#   make failover   replication failover soak: run a 3-node cluster of
#                   child servers under load, SIGKILL the primary ≥50
#                   times, require automatic promotion each time, prove
#                   the deposed primary is fenced on rejoin, then run
#                   split-brain partition episodes (blackhole the primary
#                   from both followers mid-load, require a higher-epoch
#                   promotion, prove the isolated primary never acks and
#                   fences itself on heal WITHOUT a restart), and verify
#                   no acked write is lost and the cross-failover history
#                   stays linearizable (FAILOVER_FLAGS to customise; see
#                   DESIGN.md §13 and §17)
#   make diskfault  storage fault soak: boot a child nztm-server on a
#                   seeded fault-injecting filesystem (EIO, short writes,
#                   ENOSPC, fsync failure, open/rename errors at named
#                   sites), drive acked load through ≥100 injected I/O
#                   errors, require zero acked-write loss and zero wedges,
#                   at least one stop under the sync site and one under
#                   write-enospc, every write a stopped store refuses
#                   answered StatusReadOnly, a running store acking a
#                   probe write, and a linearizable history
#                   (DISKFAULT_FLAGS to customise; see DESIGN.md §17)
#   make diskfault-rate  the diskfault leg's pass rate (not part of check):
#                   builds nztm-server and nztm-soak once into
#                   DISKFAULT_RATE_DIR, runs the leg RUNS times (default 20)
#                   and prints each run's verdict, each failure's error line
#                   and the pass/fail counts. Compare commits from the same
#                   kind of checkout, alternating the sides
#   make race-rate  a package's pass rate under the race detector (not part
#                   of check): builds PKG's test binary (default
#                   ./internal/repl) with -race once into RACE_RATE_DIR, runs
#                   it RUNS times (default 20) in the package directory and
#                   prints each failing run's first --- FAIL line (or its
#                   first panic line) with its first test-file message, and
#                   the pass/fail counts. For a parent
#                   without the target, run make -C <parent> -f <this
#                   tree>/Makefile race-rate RACE_RATE_DIR=<dir>
#   make bench-ab   A/B of the repo's benchmark (not part of check): builds
#                   ./benchmark from a git archive of REV (default HEAD) and
#                   from the work tree into BENCH_AB_DIR, then runs PAIRS pairs
#                   (default 4) of WORKLOAD (default mem-batch-hot) for SECONDS
#                   each (default 10; SEED picks another seed), alternating
#                   which side goes first, and prints each pair's
#                   throughput_rps and setup_s. Each side runs in its own
#                   directory, so its WAL and span files stay there
#   make bench-wal  WAL microbenchmark (the wal line of the per-layer budget):
#                   BenchmarkAppend over an in-memory wal.FS with a free Sync —
#                   fsync {always, never} × vector width {1, 7, 16} × {1, 8}
#                   appenders — reporting ns/op, B/op, writes/op, syncs/op
#   make bench-repl replication microbenchmark (the repl line of the per-layer
#                   budget, not part of check): BenchmarkReplicatedPut — a 1-PUT
#                   write through server.Client.DoVec to a primary whose commit
#                   gate waits for its one follower's ack, loopback, fsync=never;
#                   ns/op and allocs/op
#   make bench-kv-data  kv microbenchmark (the kv+tm line of the per-layer
#                   budget) and its gate: BenchmarkBucketUpdate — one committed
#                   128-byte PUT into a bucket of 1 / 16 / 64 keys, ns/op and
#                   B/op flat across occupancy because a backup copies entry
#                   headers, not value bytes — as a 2000-iteration smoke (no
#                   threshold), plus TestBucketUpdateAllocs (PUT ≤ 6 objects,
#                   GET ≤ 4 and no value copy); and BenchmarkDurablePutBatch — one
#                   16-PUT batch on the 16×64 geometry, durable under fsync=never
#                   and its memory-only twin — with TestDurablePutBatchAllocs
#                   (durable allocs/op ≤ 1.2 × the memory twin's)
#   make bench-server  server microbenchmark (the server line of the per-layer
#                   budget) and its gates: BenchmarkRequestPath — one Client to one
#                   Server over loopback; a single 128-byte PUT and the 8 GET + 8 PUT
#                   batch one request at a time, and the batch from 4 callers on the
#                   one Client; ns/op, B/op, allocs/op and conn.Write calls per
#                   request for both ends of the connection — as a 2000-iteration
#                   smoke (no threshold), plus TestRequestPathAllocs (whole process,
#                   steady state: single ≤ 10 objects per round trip, batch16 ≤ 17)
#                   and TestRequestPathWrites (1 caller: exactly 1 write per request
#                   at each end; 4 callers: ≤ 0.8 at each end)
#   make durable    the durable-batch workload of the repo's benchmark with its
#                   per-layer trace (wal.fsyncs_per_req, wal.frame_copies_per_req,
#                   disk.*, stage times): the before/after table for a WAL
#                   change is this command on both commits
#   make profile    CPU and heap profiles of BenchmarkRequestPath (not part
#                   of check), written to results/ — feed them to
#                   `go tool pprof results/request-path-cpu.pprof` to see
#                   where serving cycles go
#   make serve      run nztm-server with defaults

GO ?= go

RACE_PKGS = ./internal/tm ./internal/core ./internal/kv ./internal/server \
            ./internal/fault ./internal/histcheck ./internal/trace \
            ./internal/metrics ./internal/wal ./internal/repl \
            ./internal/bench ./internal/node ./cmd/nztm-soak

FUZZ_TIME ?= 10s
SOAK_FLAGS ?= -seed 1 -duration 5s
# Oversubscribed soak: 64 connections (16× the 4 executors) at a rate and
# key spread that keeps the per-clique histories inside the checker budget.
OVERSUB_FLAGS ?= -leg oversub -seed 1 -duration 4s -threads 4 -keys 64 -rate 25
CRASH_FLAGS ?= -leg crash -crash-target 200 -seed 1
FAILOVER_FLAGS ?= -leg failover -kills 50 -partitions 4 -seed 1
DISKFAULT_FLAGS ?= -leg diskfault -diskfault-target 120 -seed 1

ITEM1_DIR ?= .item1
WORKLOAD ?= mem-batch-hot
PAIRS ?= 4
SECONDS ?= 10
REV ?= HEAD
BENCH_AB_DIR ?= .bench-ab
RUNS ?= 20
DISKFAULT_RATE_DIR ?= .diskfault-rate
PKG ?= ./internal/repl
RACE_RATE_DIR ?= .race-rate

.PHONY: check build vet test bench-kv-data bench-server race race-tracing genome contended item1 fuzz soak crash failover diskfault diskfault-rate race-rate bench-ab bench-wal bench-repl durable profile serve

check: build vet test bench-kv-data bench-server race race-tracing genome contended fuzz soak crash diskfault failover

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l internal cmd examples benchmark *.go); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# The flight recorder is lock-free and read while written; drive the traced
# hot path under the race detector (contended transactions with a recorder
# bound, plus the allocation guard for both tracing modes).
race-tracing:
	$(GO) test -race -run 'TestTracing' .

genome:
	$(GO) test -count=1000 -run '^TestGenomePhases$$' ./internal/stamp

contended:
	$(GO) run -buildvcs=false ./benchmark --workload mem-batch-contended --seconds 5

# Each line: <package>:<test>:<count>. A run that panics stops its binary
# early, so the ledger prints the panic beside the count it reached.
ITEM1_TESTS = core:TestBankInvariantUnderInflation:3000 \
              fault:TestFaultedSystemStaysCorrect:1000 \
              stamp:TestGenomePhases:3000 \
              core:TestRegistryChurnNZ:200

item1:
	mkdir -p $(ITEM1_DIR)
	$(GO) test -c -o $(ITEM1_DIR)/core.test ./internal/core
	$(GO) test -c -o $(ITEM1_DIR)/fault.test ./internal/fault
	$(GO) test -c -o $(ITEM1_DIR)/stamp.test ./internal/stamp
	@for spec in $(ITEM1_TESTS); do \
		pkg=$${spec%%:*}; rest=$${spec#*:}; name=$${rest%%:*}; n=$${rest#*:}; \
		out=$$($(ITEM1_DIR)/$$pkg.test -test.count=$$n -test.run "^$$name\$$" 2>&1); \
		fails=$$(printf '%s\n' "$$out" | grep -c "^--- FAIL: $$name "); \
		panic=$$(printf '%s\n' "$$out" | grep -m1 '^panic:'); \
		echo "$$name $$fails / $$n $$panic"; \
	done

fuzz:
	$(GO) test -run=NoTestsMatch -fuzz=FuzzParseRequest -fuzztime=$(FUZZ_TIME) ./internal/server
	$(GO) test -run=NoTestsMatch -fuzz=FuzzParseResponse -fuzztime=$(FUZZ_TIME) ./internal/server
	$(GO) test -run=NoTestsMatch -fuzz=FuzzFrame -fuzztime=$(FUZZ_TIME) ./internal/server
	$(GO) test -run=NoTestsMatch -fuzz=FuzzWALFrame -fuzztime=$(FUZZ_TIME) ./internal/wal
	$(GO) test -run=NoTestsMatch -fuzz=FuzzRecoverLog -fuzztime=$(FUZZ_TIME) ./internal/wal
	$(GO) test -run=NoTestsMatch -fuzz=FuzzReplFrame -fuzztime=$(FUZZ_TIME) ./internal/repl

soak:
	$(GO) run ./cmd/nztm-soak $(SOAK_FLAGS)
	$(GO) run ./cmd/nztm-soak $(OVERSUB_FLAGS)

crash:
	$(GO) run ./cmd/nztm-soak $(CRASH_FLAGS)

failover:
	$(GO) run ./cmd/nztm-soak $(FAILOVER_FLAGS)

diskfault:
	$(GO) run ./cmd/nztm-soak $(DISKFAULT_FLAGS)

diskfault-rate:
	mkdir -p $(DISKFAULT_RATE_DIR)
	$(GO) build -buildvcs=false -o $(DISKFAULT_RATE_DIR)/ ./cmd/nztm-server ./cmd/nztm-soak
	@pass=0; fail=0; \
	for i in $$(seq 1 $(RUNS)); do \
		if out=$$($(DISKFAULT_RATE_DIR)/nztm-soak $(DISKFAULT_FLAGS) -server-bin $(abspath $(DISKFAULT_RATE_DIR))/nztm-server 2>&1); then \
			pass=$$((pass + 1)); echo "run $$i: PASS"; \
		else \
			fail=$$((fail + 1)); echo "run $$i: $$(printf '%s\n' "$$out" | grep -m1 '^nztm-soak: FAIL')"; \
		fi; \
	done; \
	echo "diskfault-rate: $$pass pass, $$fail fail of $(RUNS)"

race-rate:
	mkdir -p $(RACE_RATE_DIR)
	$(GO) test -race -c -o $(abspath $(RACE_RATE_DIR))/race.test $(PKG)
	@pass=0; fail=0; \
	for i in $$(seq 1 $(RUNS)); do \
		if out=$$(cd $(PKG) && $(abspath $(RACE_RATE_DIR))/race.test 2>&1); then \
			pass=$$((pass + 1)); echo "run $$i: PASS"; \
		else \
			fail=$$((fail + 1)); echo "run $$i: $$(printf '%s\n' "$$out" | grep -m1 -e '--- FAIL' -e '^panic:' || echo "FAIL with no --- FAIL line")"; \
			printf '%s\n' "$$out" | grep -m1 '_test\.go:[0-9]*:' || true; \
		fi; \
	done; \
	echo "race-rate: $(PKG): $$pass pass, $$fail fail of $(RUNS)"

# One side's throughput_rps and setup_s, from the JSON line a run prints last.
AB_RUN = cd $(BENCH_AB_DIR)/$$side && ../$$side.bin -workload $(WORKLOAD) -seconds $(SECONDS) $(if $(SEED),-seed $(SEED)) | tail -n 1 | \
	sed -n 's/^{"correct":true,.*"setup_s":{"value":\([^,]*\),.*"throughput_rps":{"value":\([^,]*\),.*/\2 \1/p'

bench-ab:
	rm -rf $(BENCH_AB_DIR) && mkdir -p $(BENCH_AB_DIR)/base $(BENCH_AB_DIR)/tree
	git archive $(REV) | tar -x -C $(BENCH_AB_DIR)/base
	cd $(BENCH_AB_DIR)/base && $(GO) build -buildvcs=false -o ../base.bin ./benchmark
	$(GO) build -buildvcs=false -o $(BENCH_AB_DIR)/tree.bin ./benchmark
	@echo "bench-ab: $(WORKLOAD), $(PAIRS) pairs of $(SECONDS) s; base = $(REV) ($$(git rev-parse --short $(REV))), tree = the work tree"
	@for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) = 1 ]; then order="base tree"; else order="tree base"; fi; \
		for side in $$order; do \
			set -- $$( $(AB_RUN) ); \
			if [ $$# != 2 ]; then echo "pair $$i: the $$side run failed"; exit 1; fi; \
			eval "$$side=\"$$(printf 'throughput_rps=%.0f setup_s=%.5f' $$1 $$2)\""; \
		done; \
		echo "pair $$i: base $$base | tree $$tree"; \
	done

bench-kv-data:
	$(GO) test -run 'TestBucketUpdateAllocs|TestDurablePutBatchAllocs' -bench 'BenchmarkBucketUpdate|BenchmarkDurablePutBatch' -benchtime 2000x -benchmem ./internal/kv

bench-server:
	$(GO) test -run 'TestRequestPathAllocs|TestRequestPathWrites' -bench BenchmarkRequestPath -benchtime 2000x -benchmem ./internal/server

bench-wal:
	$(GO) test -run '^$$' -bench BenchmarkAppend -benchmem ./internal/wal

bench-repl:
	$(GO) test -run '^$$' -bench BenchmarkReplicatedPut -benchmem ./internal/repl

durable:
	$(GO) run ./benchmark -workload durable-batch -trace 1 -seconds 10

# go test writes the package's test binary beside the profiles; remove it.
profile:
	mkdir -p results
	$(GO) test -run '^$$' -bench BenchmarkRequestPath -benchtime 2000x \
		-cpuprofile results/request-path-cpu.pprof -memprofile results/request-path-heap.pprof \
		-o results/server.test ./internal/server
	rm -f results/server.test

serve:
	$(GO) run ./cmd/nztm-server
