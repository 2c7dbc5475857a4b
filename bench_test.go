// Benchmarks that regenerate the paper's evaluation (§4) under `go test
// -bench`. Each sub-benchmark is one cell family of a figure: a benchmark
// panel × TM system, measured on the simulated CMP machine at a
// representative thread count. Reported metrics:
//
//	Mops/Gcycle  — simulated throughput (the figures' y-axis, unnormalised)
//	abort-%      — aborted attempts / all attempts (§4.4.1's statistic)
//	hw-%         — share of commits completing in hardware (hybrid only)
//
// The figures' full thread sweeps (1/3/7/15 and 1/2/4/8/16, with the
// paper's normalisation) are produced by `go run ./cmd/nztm-bench`; these
// benches keep each cell reproducible and regression-trackable.
package nztm_test

import (
	"fmt"
	"testing"

	"nztm"
	"nztm/internal/harness"
)

// benchThreads is the thread count benchmarked per cell: high enough for
// contention effects, low enough to keep -bench runs quick.
const benchThreads = 7

func runCell(b *testing.B, system, workload string, threads int) {
	b.Helper()
	wl, err := harness.WorkloadByName(workload)
	if err != nil {
		b.Fatal(err)
	}
	cfg := harness.DefaultRunConfig()
	cfg.OpsPerThread = 120
	var totalOps, totalCycles uint64
	var last harness.Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = 42 + uint64(i)
		res, err := harness.RunSim(system, wl, threads, cfg)
		if err != nil {
			b.Fatal(err)
		}
		totalOps += res.Ops
		totalCycles += res.Cycles
		last = res
	}
	if totalCycles > 0 {
		b.ReportMetric(float64(totalOps)/float64(totalCycles)*1e3, "Mops/Gcycle")
	}
	b.ReportMetric(100*last.Stats.AbortRate(), "abort-%")
	if last.Stats.HWCommits > 0 {
		b.ReportMetric(100*last.Stats.HWShare(), "hw-%")
	}
}

// BenchmarkFig3 covers Figure 3's panels: LogTM-SE vs the NZTM hybrid vs
// pure NZSTM on the simulated machine.
func BenchmarkFig3(b *testing.B) {
	for _, wl := range harness.Workloads() {
		for _, sys := range []string{"LogTM-SE", "NZTM", "NZSTM"} {
			b.Run(fmt.Sprintf("%s/%s", wl.Name, sys), func(b *testing.B) {
				runCell(b, sys, wl.Name, benchThreads)
			})
		}
	}
}

// BenchmarkFig4 covers Figure 4's panels: the four software systems run on
// the "Rock-like" machine (plus the GlobalLock baseline the paper
// normalises against).
func BenchmarkFig4(b *testing.B) {
	for _, wl := range harness.Workloads() {
		for _, sys := range []string{"GlobalLock", "DSTM2-SF", "BZSTM", "SCSS", "NZSTM"} {
			b.Run(fmt.Sprintf("%s/%s", wl.Name, sys), func(b *testing.B) {
				runCell(b, sys, wl.Name, benchThreads)
			})
		}
	}
}

// BenchmarkUnresponsive is ablation A1: NZSTM vs BZSTM with injected stalls
// making transactions unresponsive — the blocking-vs-nonblocking headline.
func BenchmarkUnresponsive(b *testing.B) {
	for _, sys := range []string{"NZSTM", "BZSTM"} {
		b.Run(sys, func(b *testing.B) {
			wl, err := harness.WorkloadByName("redblack-high")
			if err != nil {
				b.Fatal(err)
			}
			cfg := harness.DefaultRunConfig()
			cfg.OpsPerThread = 120
			cfg.StallProb = 0.0002
			cfg.StallCycles = 5_000_000
			var ops, cycles uint64
			for i := 0; i < b.N; i++ {
				cfg.Seed = 7 + uint64(i)
				res, err := harness.RunSim(sys, wl, 4, cfg)
				if err != nil {
					b.Fatal(err)
				}
				ops += res.Ops
				cycles += res.Cycles
			}
			b.ReportMetric(float64(ops)/float64(cycles)*1e3, "Mops/Gcycle")
		})
	}
}

// BenchmarkIndirection is ablation A2: the single-thread cost of DSTM's two
// levels of indirection against the zero-indirection systems.
func BenchmarkIndirection(b *testing.B) {
	for _, sys := range []string{"DSTM", "DSTM2-SF", "BZSTM", "NZSTM"} {
		b.Run(sys, func(b *testing.B) {
			runCell(b, sys, "linkedlist-low", 1)
		})
	}
}

// BenchmarkRockHybrid is the §4.4.2 hybrid observation: hashtable-low at 16
// threads, where hardware carries nearly all commits.
func BenchmarkRockHybrid(b *testing.B) {
	for _, sys := range []string{"NZTM", "NZSTM"} {
		b.Run(sys, func(b *testing.B) {
			runCell(b, sys, "hashtable-low", 16)
		})
	}
}

// BenchmarkAtomicRealMode measures the Atomic hot path as an ordinary Go
// library (no simulator): NZSTM in real-concurrency mode with registry-
// minted threads. Run with -benchmem — the read-only and write cells must
// report ~1 alloc/op, the attempt's descriptor (per-thread scratch + backup
// pool + bump arenas cover the rest; TestAtomicRealModeAllocFree pins this
// under `make check`), and the contended cell exercises the conflict path
// at full parallelism.
func BenchmarkAtomicRealMode(b *testing.B) {
	b.Run("ReadOnly", func(b *testing.B) {
		sys, reg := nztm.NewNZSTMDynamic(8, 0)
		o := sys.NewObject(nztm.NewInts(4))
		th := reg.NewThread()
		defer th.Close()
		// Transaction functions are hoisted out of the loops (as a
		// steady-state caller would) so allocs/op reflects the library.
		fn := func(tx nztm.Tx) error {
			_ = tx.Read(o).(*nztm.Ints).V[0]
			return nil
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sys.Atomic(th, fn); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Write", func(b *testing.B) {
		sys, reg := nztm.NewNZSTMDynamic(8, 0)
		o := sys.NewObject(nztm.NewInts(4))
		th := reg.NewThread()
		defer th.Close()
		var v int64
		upd := func(d nztm.Data) { d.(*nztm.Ints).V[0] = v + 1 }
		fn := func(tx nztm.Tx) error {
			v = tx.Read(o).(*nztm.Ints).V[0]
			tx.Update(o, upd)
			return nil
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sys.Atomic(th, fn); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Contended", func(b *testing.B) {
		sys, reg := nztm.NewNZSTMDynamic(8, 0)
		o := sys.NewObject(nztm.NewInts(1))
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			th := reg.NewThread()
			defer th.Close()
			upd := func(d nztm.Data) { d.(*nztm.Ints).V[0]++ }
			fn := func(tx nztm.Tx) error {
				tx.Update(o, upd)
				return nil
			}
			for pb.Next() {
				if err := sys.Atomic(th, fn); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}
