// Command benchmark is the repository's benchmark: it self-hosts the
// shipped serving stack (nzstm backend → sharded kv store → TCP server),
// drives it over loopback with the pipelining client, checks what comes
// back, and reports the end-to-end metrics of one workload — or, with
// -trace 1, the per-layer metrics that say where the time went. See
// README.md in this directory.
//
//	go run ./benchmark -workload mem-single -seed 1 -seconds 25 -trace 0
//	go run ./benchmark            # all four workloads, one child process each
//	go run ./benchmark -trace 1   # the per-layer pass for all four
//	go run ./benchmark -aa 20     # A/A: two sets of ten suites, table to RESULTS.md
//
// The last line of a single-workload run's standard output is one JSON
// object: {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed of a run that names none.
const defaultSeed = 20090811

// outDir holds the durable workload's WAL directories and the traced pass's
// span files: inside the checkout, ignored by git.
const outDir = "benchmark/out"

// defaultSeconds is the measured window of the end-to-end pass, the same
// number BENCHMARK.json gives the driver as run_seconds.
const defaultSeconds = 25

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: all four, one child process each)")
		seed    = flag.Uint64("seed", defaultSeed, "seed of the request streams and values")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the measured window")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		aa      = flag.Int("aa", 0, "A/A mode: run the end-to-end suite this many times and write the table to RESULTS.md")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	// The box has two cores and every number is stated for two: refuse to
	// report from fewer, and pin to two on more.
	if runtime.NumCPU() < 2 {
		fmt.Fprintf(os.Stderr, "benchmark: %d CPU; the workloads are sized for 2 and will not report from fewer\n", runtime.NumCPU())
		os.Exit(1)
	}
	runtime.GOMAXPROCS(2)

	var err error
	switch {
	case *aa > 0:
		err = runAA(*aa, *seed, *seconds)
	case *name == "":
		_, err = runSuite(*seed, *seconds, *traced, true)
	default:
		err = runOne(*name, *seed, *seconds, *traced == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// environment is printed beside the numbers: they mean nothing without it.
func environment() string {
	sha := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, sha)
}

// runOne runs one workload in this process and prints its report, the
// driver's JSON object last.
func runOne(name string, seed uint64, seconds float64, traced bool) error {
	w := findWorkload(name)
	if w == nil {
		names := make([]string, len(workloads))
		for i := range workloads {
			names[i] = workloads[i].name
		}
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	cfg := config{w: w, seed: seed, seconds: seconds, outDir: outDir, log: os.Stdout}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%v %s\n", w.name, seed, seconds, traced, environment())
	fmt.Printf("stack: backend=%s shards=%d buckets/shard=%d executors=%d queue=%d admission=%s max-attempts=%d timeout=%v conns=%d window=%d\n",
		backendName, shards, bucketsPerShard, 2*runtime.GOMAXPROCS(0), serverConfig.QueueDepth, serverConfig.Admission,
		serverConfig.MaxAttempts, serverConfig.RequestTimeout, conns, w.window)
	if w.durable {
		device := fmt.Sprintf("modelled, Sync = %v kernel sleep", syncLatency)
		if w.realDevice {
			device = "the sandbox's disk"
		}
		fmt.Printf("durability: fsync=%s data-dir=%s (real files, fresh per set-up) device=%s\n", fsyncPolicy, outDir, device)
	}
	// A wedged store must not wedge whoever waits for this process.
	limit := time.Duration(3*seconds+60) * time.Second
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s still running after %v; giving up\n", w.name, limit)
		os.Exit(3)
	})
	run := runEndToEnd
	if traced {
		run = runLayers
	}
	rep, err := run(cfg)
	if err != nil {
		return err
	}
	line, err := rep.json()
	if err != nil {
		return err
	}
	fmt.Println(line)
	if !rep.correct {
		return fmt.Errorf("%s: %d of %d operations failed their checks", w.name, rep.failed, rep.attempted)
	}
	return nil
}

// json renders the report as the driver's one-line object.
func (r report) json() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]value, len(r.metrics))}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out) // fails only on a NaN or an infinity
	return string(b), err
}
