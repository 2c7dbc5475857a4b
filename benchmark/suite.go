package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// result is one child run's JSON object, decoded.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one workload in a fresh process of this same binary, pinned
// to two cores, so no workload inherits another's heap, page cache warmth or
// scheduler state. The child's report is passed through to out; its last
// line is the result.
func runChild(name string, seed uint64, seconds float64, traced int, out io.Writer) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced))
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	if err := cmd.Start(); err != nil {
		return res, err
	}
	last := ""
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if !strings.HasPrefix(last, "{") {
			fmt.Fprintln(out, last)
		}
	}
	if err := cmd.Wait(); err != nil {
		return res, fmt.Errorf("%s: %w", name, err)
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("%s: last line is not a result: %w", name, err)
	}
	return res, nil
}

// runSuite runs every workload once, each in its own process, and prints
// one row per workload × metric.
func runSuite(seed uint64, seconds float64, traced int, verbose bool) (map[string]result, error) {
	out := io.Writer(os.Stdout)
	if !verbose {
		out = io.Discard
	}
	all := make(map[string]result, len(workloads))
	for _, w := range workloads[:gated] {
		res, err := runChild(w.name, seed, seconds, traced, out)
		if err != nil {
			return nil, err
		}
		all[w.name] = res
		fmt.Fprintln(out)
	}
	fmt.Printf("%-16s %-32s %16s %-6s\n", "workload", "metric", "value", "unit")
	for _, w := range workloads[:gated] {
		res := all[w.name]
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Slice(names, func(a, b int) bool {
			if oa, ob := layerOrder(names[a]), layerOrder(names[b]); oa != ob {
				return oa < ob
			}
			return names[a] < names[b]
		})
		for _, n := range names {
			fmt.Printf("%-16s %-32s %16.4f %-6s\n", w.name, n, res.Metrics[n].Value, res.Metrics[n].Unit)
		}
		fmt.Printf("%-16s requests+checks=%d failures=%d correct=%v\n", w.name, res.Attempted, res.Failed, res.Correct)
	}
	return all, nil
}
