package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// manifest is the part of BENCHMARK.json the benchmark itself reads: the
// metric tables. The A/A mode checks the bounds against observed noise and
// the tests check that the program prints exactly these metrics.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(b, &m)
}

// runAA runs the end-to-end suite n times on the unchanged tree, a new seed
// each time, and writes what the same code's runs disagree by next to the
// bound BENCHMARK.json grants each metric. One rule for every metric, the
// one a driver comparing two sets of runs applies: the spread within each
// half of the runs and the distance between the halves' medians must stay
// inside the bound. With -aa 20 the halves are the driver's two sets of ten.
func runAA(n int, seed uint64, seconds float64) error {
	if n < 4 {
		return fmt.Errorf("A/A needs at least 4 suites to compare two halves, got %d", n)
	}
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("A/A needs the bounds: %w", err)
	}
	runs := make([]map[string]result, n)
	for i := range runs {
		fmt.Printf("=== A/A suite %d of %d (seed %d) ===\n", i+1, n, seed+uint64(i))
		if runs[i], err = runSuite(seed+uint64(i), seconds, 0, false); err != nil {
			return err
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# A/A results\n\n")
	fmt.Fprintf(&b, "`go run ./benchmark -aa %d -seed %d -seconds %g`: %d end-to-end suites of the same tree, seeds %d..%d, each workload in a fresh process. Set 1 is the first %d suites, set 2 the rest.\n\n",
		n, seed, seconds, n, seed, seed+uint64(n-1), n/2)
	fmt.Fprintf(&b, "Environment: %s\n\n", environment())
	fmt.Fprintf(&b, "`spread` is (q3 − q1) ÷ median within a set, quartiles as Python's `statistics.quantiles(n=4)` gives them; `shift` is how much worse set 2's median is than set 1's (negative: better). `resolution` is the largest of the two spreads and |shift|: what two sets of ten runs of the same code disagree by, and so the smallest change a comparison of two such sets can show. A row is `inside` when its resolution is inside the bound, every metric by the same rule, and `headroom` is the bound ÷ the resolution (the issue asks for 2). `max dev` is the largest |run − median| ÷ median over all suites: how far one run strays. The gate compares medians of ten and never one run, so it is shown and not part of the rule.\n\n")
	fmt.Fprintf(&b, "| workload | metric | unit | median | min | max | max dev | spread 1 | spread 2 | shift | resolution | bound | headroom | inside |\n|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	ok := true
	for _, w := range workloads[:gated] {
		for _, em := range m.EndToEnd {
			vals := make([]float64, n)
			for i := range runs {
				vals[i] = runs[i][w.name].Metrics[em.Name].Value
			}
			set1, set2 := vals[:n/2], vals[n/2:]
			shift := ratio(median(set2)-median(set1), median(set1))
			if em.Better == "higher" {
				shift = -shift
			}
			res := max(spread(set1), spread(set2), math.Abs(shift))
			ok = ok && res <= em.Bound
			fmt.Fprintf(&b, "| %s | %s | %s | %.6g | %.6g | %.6g | %.3f | %.3f | %.3f | %+.3f | %.3f | %.2f | %.1f | %v |\n",
				w.name, em.Name, em.Unit, median(vals), slices.Min(vals), slices.Max(vals), maxRelDev(vals),
				spread(set1), spread(set2), shift, res, em.Bound, ratio(em.Bound, res), res <= em.Bound)
		}
	}
	path := filepath.Join("benchmark", "RESULTS.md")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("A/A table written to %s\n", path)
	if !ok {
		return fmt.Errorf("two sets of runs of the same code disagree by more than a bound: see %s", path)
	}
	return nil
}
