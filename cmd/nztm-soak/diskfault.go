// Disk-fault soak (-diskfault): the storage-error analogue of the crash
// soak. The parent execs nztm-server children with the WAL's disk fault
// plane armed (seeded EIO, error-free short writes, ENOSPC, fsync
// failure, open and rename errors at named sites), hammers each child
// with acknowledged writes while the injections land, and verifies that
// every failure either failed fast or degraded the store — never wedged
// a request, never acknowledged a write the disk did not hold:
//
//   - fail-stop fsync: after an injected fsync error the log poisons
//     itself; a direct write probe must be refused promptly and must
//     never be acknowledged (site sync, mode "failed");
//   - ENOSPC degrades, not kills: an injected ENOSPC flips the store
//     read-only; writes shed with StatusReadOnly (provably no effect)
//     while reads keep serving (site write-enospc, mode "read-only");
//   - durability through it all: after each SIGKILL + restart, every
//     write acknowledged before the episode reads back admissibly (the
//     crash soak's key model), and the full cross-restart history stays
//     linearizable under internal/histcheck;
//   - watchdog hygiene: any request that blocks past its window gets
//     the child killed and the iteration fails — an injected I/O error
//     must surface as an error, not a hang.
//
// Recovery always runs against a clean FS (the child arms the plane
// only after its ready line), so boot never sees injected errors; the
// read-site error path is covered by internal/wal's recovery tests.
package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nztm/internal/fault"
	"nztm/internal/histcheck"
	"nztm/internal/kv"
	"nztm/internal/metrics"
)

// diskCfg bundles the -diskfault mode's knobs.
type diskCfg struct {
	bin     string // nztm-server binary ("" = go build it)
	dir     string // data directory ("" = temp, removed on success)
	seed    uint64
	target  int // total disk-fault injections to accumulate
	shards  int
	buckets int
	keys    int // keys per worker
	workers int
	limit   int // linearizability search budget
}

// diskSoak is the parent-side state across all child lifetimes. It
// borrows the crash soak's key model and graceful-shutdown check.
type diskSoak struct {
	cfg diskCfg
	cs  *crashSoak // model + history recorder + graceful path, reused

	injections   [fault.DiskSiteCount]int
	iters        int
	failedModes  int // episodes that reached mode=failed (fsync fail-stop)
	roModes      int // episodes that reached mode=read-only (ENOSPC)
	readonlyShed atomic.Uint64
	writeErrs    atomic.Uint64
}

func (ds *diskSoak) total() int {
	n := 0
	for _, v := range ds.injections {
		n += v
	}
	return n
}

// diskSites is the per-episode rotation. DiskRead is deliberately
// absent: the serving path never ReadAts through the seam (recovery
// does, but children recover disarmed); internal/wal's recovery tests
// own that site.
var diskSites = []fault.DiskSite{
	fault.DiskWriteEIO, fault.DiskWriteShort, fault.DiskWriteENOSPC,
	fault.DiskSync, fault.DiskOpen, fault.DiskRename,
}

// diskProbFor tunes the per-visit firing probability so each episode
// lands a few injections after some acknowledged load: write and sync
// sites are visited once per cohort written (fsync always; one commit
// per cohort at this soak's concurrency), open/rename only a few times
// a second on the snapshot plane.
func diskProbFor(site fault.DiskSite) float64 {
	switch site {
	case fault.DiskSync:
		return 0.002
	case fault.DiskWriteENOSPC:
		return 0.005
	case fault.DiskOpen, fault.DiskRename:
		return 0.25
	default:
		return 0.01
	}
}

// startDiskChild boots one armed child and returns it with its HTTP
// address (for mode inspection).
func (ds *diskSoak) startDiskChild(iter int, site fault.DiskSite) (*child, string, error) {
	httpAddr, err := pickFreeAddr()
	if err != nil {
		return nil, "", err
	}
	seed := ds.cfg.seed + uint64(iter)*7919 + 1
	c, err := ds.cs.startChild(
		"-statsz", httpAddr,
		"-fsync", "always", // the fail-stop contract under test is the acked-implies-fsynced one
		"-disk-fault-seed", fmt.Sprint(seed),
		"-disk-fault-sites", site.String(),
		"-disk-fault-prob", fmt.Sprint(diskProbFor(site)),
	)
	if err != nil {
		return nil, "", err
	}
	return c, httpAddr, nil
}

// load drives acknowledged writes while the faults land. Unlike the
// crash soak, the child does not die — it degrades — so workers keep
// going through readonly sheds (clean, no effect) and bail only after a
// run of hard errors (fail-stop mode: everything errs fast by design).
func (ds *diskSoak) load(c *child, iter int, deadline time.Duration) {
	var wg sync.WaitGroup
	stop := time.Now().Add(deadline)
	watchdog := time.AfterFunc(deadline+10*time.Second, c.kill)
	defer watchdog.Stop()
	for w := 0; w < ds.cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := newWorkloadRNG(ds.cfg.seed+uint64(iter)*131, w)
			cl, err := dialChild(c)
			if err != nil {
				return
			}
			defer cl.Close()
			// Cap TOTAL (not consecutive) hard errors: once a shard
			// fail-stops, healthy-shard successes would reset a
			// consecutive counter forever, and every hard error is an
			// outcome-unknown op that multiplies the linearizability
			// search space. A dozen per worker per iteration proves the
			// fast-fail behaviour without drowning the checker.
			hardErrs := 0
			for seq := 0; time.Now().Before(stop) && hardErrs < 12; seq++ {
				key := func(i int) string { return fmt.Sprintf("w%d-k%02d", w, i) }
				val := []byte(fmt.Sprintf("w%d.%d.%d", w, iter, seq))
				k := rng.intn(ds.cfg.keys)
				var ops []kv.Op
				switch r := rng.intn(100); {
				case r < 10:
					ops = []kv.Op{
						{Kind: kv.OpPut, Key: key(k &^ 1), Value: val},
						{Kind: kv.OpPut, Key: key(k | 1), Value: val},
					}
				case r < 25:
					ops = []kv.Op{{Kind: kv.OpDelete, Key: key(k)}}
				case r < 40:
					ops = []kv.Op{{Kind: kv.OpGet, Key: key(k)}}
				default:
					ops = []kv.Op{{Kind: kv.OpPut, Key: key(k), Value: val}}
				}
				p := ds.cs.rec.Begin(w, ops)
				res, err := cl.Do(ops)
				switch {
				case err == nil:
					p.Done(res)
					ds.cs.ack(ops)
				case errors.Is(err, kv.ErrBudget):
					p.Discard()
				case errors.Is(err, kv.ErrReadOnly):
					// Shed before execution: provably no effect.
					p.Discard()
					ds.readonlyShed.Add(1)
				default:
					// A write that raced the fault (boundary frame) or a
					// fail-stopped log: outcome unknown, but it came back —
					// fast — instead of wedging.
					p.Lost()
					ds.cs.markLost(ops)
					ds.writeErrs.Add(1)
					hardErrs++
				}
				time.Sleep(500 * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
}

// fetchMode reads the log's mode ("ok", "read-only" or "failed") from the
// child's /metricsz gauges. An unreachable child reads as ""; a malformed
// exposition is an error.
func fetchMode(addr string) (string, error) {
	for i := 0; i < 10; i++ {
		ss, err := scrapeMetrics(addr)
		if errors.Is(err, errMalformed) {
			return "", err
		}
		if err == nil {
			ro, ok1 := sampleValue(ss, "nztm_wal_readonly")
			failed, ok2 := sampleValue(ss, "nztm_wal_failed")
			if !ok1 || !ok2 {
				return "", fmt.Errorf("%s/metricsz has no nztm_wal_readonly/nztm_wal_failed gauges", addr)
			}
			switch {
			case failed == 1:
				return "failed", nil
			case ro == 1:
				return "read-only", nil
			}
			return "ok", nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return "", nil
}

// httpText GETs a URL and returns its body.
func httpText(url string) (string, error) {
	cl := http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(b)))
	}
	return string(b), nil
}

// errMalformed marks an exposition that fails metrics.LintProm.
var errMalformed = errors.New("malformed /metricsz exposition")

// scrapeMetrics GETs a child's /metricsz, lints it and returns its
// samples. Any lint problem is an errMalformed error: the soak fails on
// an exposition a scraper would reject.
func scrapeMetrics(addr string) ([]metrics.Sample, error) {
	body, err := httpText("http://" + addr + "/metricsz")
	if err != nil {
		return nil, err
	}
	return lintedSamples(addr, body)
}

// lintedSamples lints an exposition body and parses its samples.
func lintedSamples(source, body string) ([]metrics.Sample, error) {
	if errs := metrics.LintProm(strings.NewReader(body)); len(errs) > 0 {
		return nil, fmt.Errorf("%w from %s:\n  %s", errMalformed, source, strings.Join(errs, "\n  "))
	}
	ss, err := metrics.Samples(strings.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%w from %s: %v", errMalformed, source, err)
	}
	return ss, nil
}

// sampleValue returns the value of the first sample named name.
func sampleValue(ss []metrics.Sample, name string) (float64, bool) {
	for _, s := range ss {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

// probeDegraded asserts the mode-specific contract with one direct
// write: "failed" must refuse promptly and never ack; "read-only" must
// shed with StatusReadOnly. Both are pre-execution refusals, so the
// probe constrains nothing in the history.
func (ds *diskSoak) probeDegraded(c *child, iter int, site fault.DiskSite, mode string) error {
	cl, err := dialChild(c)
	if err != nil {
		return nil // connection refused beats wedged; verified next boot
	}
	defer cl.Close()
	watchdog := time.AfterFunc(10*time.Second, c.kill)
	defer watchdog.Stop()
	ops := []kv.Op{{Kind: kv.OpPut, Key: "degraded-probe", Value: []byte("must-not-land")}}
	p := ds.cs.rec.Begin(ds.cfg.workers+1, ops)
	_, err = cl.Do(ops)
	if err == nil {
		p.Lost()
		ds.cs.markLost(ops)
		return fmt.Errorf("iter %d (site %s): write ACKED while the log is %s — the store lied about durability",
			iter, site, mode)
	}
	p.Discard()
	if mode == "read-only" && !errors.Is(err, kv.ErrReadOnly) {
		return fmt.Errorf("iter %d (site %s): read-only store refused a write with %v, want StatusReadOnly",
			iter, site, err)
	}
	// Reads must keep serving in degraded modes (stable prefixes stay
	// readable); an error is tolerated only if it is fast — the
	// watchdog turns a wedge into a kill, failing the iteration.
	rops := []kv.Op{{Kind: kv.OpGet, Key: "degraded-probe"}}
	rp := ds.cs.rec.Begin(ds.cfg.workers+1, rops)
	if res, rerr := cl.Do(rops); rerr == nil {
		rp.Done(res)
		if res[0].Found {
			return fmt.Errorf("iter %d (site %s): refused write is visible to reads", iter, site)
		}
	} else {
		rp.Lost()
		if mode == "read-only" {
			return fmt.Errorf("iter %d (site %s): read failed on a read-only store: %v", iter, site, rerr)
		}
	}
	return nil
}

// iterate runs one armed child lifetime: boot (clean recovery of the
// previous episode's carnage), verify, load under injection, check the
// degraded-mode contract, SIGKILL, classify the markers.
func (ds *diskSoak) iterate(iter int, site fault.DiskSite) error {
	ds.iters++
	c, httpAddr, err := ds.startDiskChild(iter, site)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		c.kill()
		c.reap(time.Second)
		return fmt.Errorf("iter %d (site %s): %w", iter, site, err)
	}
	verified, err := ds.cs.verify(c)
	if err != nil {
		return fail(err)
	}
	if !verified {
		// The child died during verify: disk faults never kill, so this
		// is either a wedge-kill (watchdog) or a startup crash — fatal.
		return fail(fmt.Errorf("child died during verify:\n%s", c.dumpTail()))
	}
	ds.load(c, iter, 4*time.Second)
	if c.parentKilled.Load() {
		return fail(fmt.Errorf("child wedged under injected I/O errors (watchdog kill):\n%s", c.dumpTail()))
	}
	mode, err := fetchMode(httpAddr)
	if err != nil {
		return fail(err)
	}
	switch mode {
	case "failed":
		ds.failedModes++
	case "read-only":
		ds.roModes++
	}
	if mode == "failed" || mode == "read-only" {
		if err := ds.probeDegraded(c, iter, site, mode); err != nil {
			return fail(err)
		}
		if c.parentKilled.Load() {
			return fail(fmt.Errorf("child wedged answering the degraded-mode probe:\n%s", c.dumpTail()))
		}
	}
	c.kill()
	c.reap(2 * time.Second)
	for _, s := range c.diskMarkers() {
		if p, ok := fault.DiskSiteByName(s); ok {
			ds.injections[p]++
		}
	}
	return nil
}

// runDiskFault is the -diskfault entry point.
func runDiskFault(cfg diskCfg) error {
	cleanups := []string{}
	if cfg.bin == "" {
		tmp, err := os.MkdirTemp("", "nztm-diskfault-bin-")
		if err != nil {
			return err
		}
		cleanups = append(cleanups, tmp)
		cfg.bin = filepath.Join(tmp, "nztm-server")
		out, err := exec.Command("go", "build", "-o", cfg.bin, "nztm/cmd/nztm-server").CombinedOutput()
		if err != nil {
			return fmt.Errorf("building nztm-server (pass -server-bin to skip): %v\n%s", err, out)
		}
	}
	if cfg.dir == "" {
		tmp, err := os.MkdirTemp("", "nztm-diskfault-data-")
		if err != nil {
			return err
		}
		cleanups = append(cleanups, tmp)
		cfg.dir = tmp
	}

	ds := &diskSoak{
		cfg: cfg,
		cs: &crashSoak{
			cfg: crashCfg{
				bin: cfg.bin, dir: cfg.dir, seed: cfg.seed,
				shards: cfg.shards, buckets: cfg.buckets,
				keys: cfg.keys, workers: cfg.workers, limit: cfg.limit,
			},
			rec:   histcheck.NewRecorder(),
			model: make(map[string]*keyModel),
		},
	}
	fmt.Printf("nztm-soak: diskfault mode: target=%d injections, dir=%s, seed=%d (%d shards, %d workers × %d keys)\n",
		cfg.target, cfg.dir, cfg.seed, cfg.shards, cfg.workers, cfg.keys)

	start := time.Now()
	maxIters := cfg.target + 40
	for iter := 0; ds.total() < cfg.target || ds.failedModes == 0 || ds.roModes == 0; iter++ {
		if iter >= maxIters {
			return fmt.Errorf("only %d of %d injections (failed=%d read-only=%d episodes) after %d iterations (per-site: %s)",
				ds.total(), cfg.target, ds.failedModes, ds.roModes, iter, ds.siteSummary())
		}
		if iter > 0 && iter%8 == 0 {
			// The graceful path must still work between fault episodes: an
			// unarmed child recovers, serves, drains on SIGTERM, exits 0.
			if err := ds.cs.gracefulCheck(2000 + iter/8); err != nil {
				return err
			}
		}
		if err := ds.iterate(iter, diskSites[iter%len(diskSites)]); err != nil {
			return err
		}
		if (iter+1)%10 == 0 {
			fmt.Printf("nztm-soak: iter %d: %d/%d injections (%s), modes failed=%d read-only=%d, %d acked, %d lost, %d readonly-shed\n",
				iter+1, ds.total(), cfg.target, ds.siteSummary(),
				ds.failedModes, ds.roModes, ds.cs.acked.Load(), ds.cs.lost.Load(), ds.readonlyShed.Load())
		}
	}
	// Final unarmed boot: verify every obligation once more and prove the
	// graceful path end-to-end after all the carnage.
	if err := ds.cs.gracefulCheck(3000); err != nil {
		return err
	}
	for _, s := range diskSites {
		if ds.injections[s] == 0 {
			return fmt.Errorf("site %s never fired (per-site: %s)", s, ds.siteSummary())
		}
	}
	if ds.readonlyShed.Load() == 0 {
		return errors.New("no write was ever shed with StatusReadOnly — the ENOSPC degraded mode went unexercised")
	}

	hist := ds.cs.rec.History()
	ckStart := time.Now()
	res := histcheck.CheckWithLimit(hist, cfg.limit)
	fmt.Printf("nztm-soak: diskfault summary: %d injections in %d iterations (%s), modes failed=%d read-only=%d, %d acked, %d lost, %d readonly-shed, %d write-errors, %v elapsed\n",
		ds.total(), ds.iters, ds.siteSummary(), ds.failedModes, ds.roModes,
		ds.cs.acked.Load(), ds.cs.lost.Load(), ds.readonlyShed.Load(), ds.writeErrs.Load(),
		time.Since(start).Round(time.Millisecond))
	fmt.Printf("nztm-soak: checked %d ops in %d partitions (%d states visited) in %v\n",
		res.Ops, res.Partitions, res.Visited, time.Since(ckStart).Round(time.Millisecond))
	if !res.Ok {
		if res.Capped {
			return fmt.Errorf("linearizability check exhausted its state budget after %d states: %v", res.Visited, res.Violation)
		}
		return fmt.Errorf("recovered history is NOT linearizable: %v", res.Violation)
	}
	for _, d := range cleanups {
		os.RemoveAll(d)
	}
	return nil
}

func (ds *diskSoak) siteSummary() string {
	parts := make([]string, 0, len(diskSites))
	for _, s := range diskSites {
		parts = append(parts, fmt.Sprintf("%s=%d", s, ds.injections[s]))
	}
	return strings.Join(parts, " ")
}
