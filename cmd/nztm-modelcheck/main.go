// nztm-modelcheck reproduces the paper's §3: exhaustive state-space
// exploration of the NZSTM protocol model with read sharing — the
// Spin/Promela analysis, mechanised in Go. It checks safety (no lost or
// phantom updates, no stale committed read, no commit with a pending abort
// request), deadlock freedom, and action coverage ("all code paths are
// taken at least once"), and can demonstrate the counterexample the checker
// finds for a naive force-abort design.
//
// Usage:
//
//	nztm-modelcheck -threads 3 -retries 1
//	nztm-modelcheck -variant buggy          (shows the late-write corruption)
//	nztm-modelcheck -crossed                (opposite-order acquisition)
//	nztm-modelcheck -rw -threads 3          (two readers and a writer)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nztm/internal/mc"
)

func main() {
	var (
		threads   = flag.Int("threads", 2, "number of model threads (2–3 are exhaustive in seconds)")
		retries   = flag.Int("retries", 1, "retries per transaction")
		variant   = flag.String("variant", "nz", "nz, bz, scss, or buggy")
		crossed   = flag.Bool("crossed", false, "two threads acquire two objects in opposite orders")
		rw        = flag.Bool("rw", false, "read-sharing scripts: readers, then one writer, on one object")
		maxStates = flag.Int("maxstates", 1<<24, "state budget")
	)
	flag.Parse()

	var v mc.Variant
	switch *variant {
	case "nz":
		v = mc.VariantNZ
	case "bz":
		v = mc.VariantBZ
	case "scss":
		v = mc.VariantSCSS
	case "buggy":
		v = mc.VariantBuggy
	default:
		fmt.Fprintf(os.Stderr, "unknown variant %q\n", *variant)
		os.Exit(2)
	}

	cfg := mc.Config{Variant: v, Objects: 1, Retries: *retries}
	switch {
	case *crossed:
		cfg.Scripts = [][]mc.Op{{mc.W(0), mc.W(1)}, {mc.W(1), mc.W(0)}}
		cfg.Objects = 2
	case *rw:
		for i := 1; i < *threads; i++ {
			cfg.Scripts = append(cfg.Scripts, []mc.Op{mc.R(0)})
		}
		cfg.Scripts = append(cfg.Scripts, []mc.Op{mc.W(0)})
	default:
		for i := 0; i < *threads; i++ {
			cfg.Scripts = append(cfg.Scripts, []mc.Op{mc.W(0)})
		}
	}
	fmt.Printf("checking %s: scripts %v, %d objects, %d retries\n",
		*variant, cfg.Scripts, cfg.Objects, cfg.Retries)
	model := mc.NZSTM(cfg)
	start := time.Now()
	res := mc.Check(model, mc.Options{MaxStates: *maxStates})
	elapsed := time.Since(start)

	fmt.Printf("states: %d   transitions: %d   time: %v\n",
		res.States, res.Transitions, elapsed.Round(time.Millisecond))
	fmt.Printf("actions covered: %v\n", res.Covered)
	if res.Err != nil {
		fmt.Printf("VIOLATION: %v\n", res.Err)
		fmt.Println("counterexample:")
		for i, step := range res.Trace {
			fmt.Printf("  %3d. %s\n", i+1, step)
		}
		os.Exit(1)
	}
	fmt.Println("no violations: invariant holds in every reachable state, no deadlock")
}
