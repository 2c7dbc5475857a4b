// Disk-fault soak (-leg diskfault): the storage-error analogue of the
// crash soak. The parent execs nztm-server children with the WAL's disk
// fault plane armed (seeded EIO, error-free short writes, ENOSPC, fsync
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
//     ledger's key model), and the full cross-restart history stays
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
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"nztm/internal/fault"
	"nztm/internal/kv"
)

// diskLeg is the parent-side state across all child lifetimes.
type diskLeg struct {
	cfg soakCfg
	l   *ledger

	injections   tally
	iters        int
	failedModes  int // episodes that reached mode=failed (fsync fail-stop)
	roModes      int // episodes that reached mode=read-only (ENOSPC)
	readonlyShed atomic.Uint64
	writeErrs    atomic.Uint64
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

// load drives acknowledged writes while the faults land. Unlike the
// crash leg, the child does not die — it degrades — so workers keep
// going through read-only sheds (clean, no effect) and bail only after
// a dozen hard errors each. The cap is on the total, not a run: once a
// shard fail-stops, healthy-shard successes would reset a consecutive
// counter forever, and every hard error is an outcome-unknown op that
// multiplies the linearizability search space.
func (ds *diskLeg) load(c *child, iter int, deadline time.Duration) {
	watchdog := time.AfterFunc(deadline+10*time.Second, c.kill)
	defer watchdog.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	ds.l.load(ctx, ds.cfg, loadSpec{
		iter: iter, reads: 15, pace: 500 * time.Microsecond,
		open: func(int) session {
			hardErrs := 0
			return dialChild(c, func(err error) bool {
				switch {
				case errors.Is(err, kv.ErrReadOnly):
					ds.readonlyShed.Add(1)
				case !shed(err):
					// A write that raced the fault (boundary frame) or a
					// fail-stopped log: outcome unknown, but it came back
					// — fast — instead of wedging.
					ds.writeErrs.Add(1)
					hardErrs++
				}
				return hardErrs >= 12
			})
		},
	})
}

// fetchMode reads the log's mode ("ok", "read-only" or "failed") from the
// child's /metricsz gauges. An unreachable child reads as ""; a malformed
// exposition is an error.
func fetchMode(addr string) (string, error) {
	for i := 0; i < 10; i++ {
		vs, err := gauges(addr, "nztm_wal_readonly", "nztm_wal_failed")
		switch {
		case err == nil && vs[1] == 1:
			return "failed", nil
		case err == nil && vs[0] == 1:
			return "read-only", nil
		case err == nil:
			return "ok", nil
		case errors.Is(err, errMalformed):
			return "", err
		}
		time.Sleep(50 * time.Millisecond)
	}
	return "", nil
}

// probeDegraded asserts the mode-specific contract with one direct
// write: "failed" must refuse promptly and never ack; "read-only" must
// shed with StatusReadOnly. Both are pre-execution refusals, so the
// probe constrains nothing in the history.
func (ds *diskLeg) probeDegraded(c *child, mode string) error {
	cl, err := dial(c.addr, time.Now().Add(time.Second))
	if err != nil {
		return nil // connection refused beats wedged; verified next boot
	}
	defer cl.Close()
	watchdog := time.AfterFunc(10*time.Second, c.kill)
	defer watchdog.Stop()
	ops := []kv.Op{{Kind: kv.OpPut, Key: "degraded-probe", Value: []byte("must-not-land")}}
	p := ds.l.rec.Begin(ds.cfg.workers+1, ops)
	_, err = cl.Do(ops)
	if err == nil {
		p.Lost()
		ds.l.markLost(ops)
		return fmt.Errorf("write ACKED while the log is %s — the store lied about durability", mode)
	}
	p.Discard()
	if mode == "read-only" && !errors.Is(err, kv.ErrReadOnly) {
		return fmt.Errorf("read-only store refused a write with %v, want StatusReadOnly", err)
	}
	// Reads must keep serving in degraded modes (stable prefixes stay
	// readable); an error is tolerated only if it is fast — the
	// watchdog turns a wedge into a kill, failing the iteration.
	rops := []kv.Op{{Kind: kv.OpGet, Key: "degraded-probe"}}
	rp := ds.l.rec.Begin(ds.cfg.workers+1, rops)
	if res, rerr := cl.Do(rops); rerr == nil {
		rp.Done(res)
		if res[0].Found {
			return errors.New("refused write is visible to reads")
		}
	} else {
		rp.Lost()
		if mode == "read-only" {
			return fmt.Errorf("read failed on a read-only store: %v", rerr)
		}
	}
	return nil
}

// iterate runs one armed child lifetime: boot (clean recovery of the
// previous episode's carnage), verify, load under injection, check the
// degraded-mode contract, SIGKILL, classify the markers.
func (ds *diskLeg) iterate(iter int, site fault.DiskSite) error {
	ds.iters++
	c, err := boot(ds.cfg,
		"-fsync", "always", // the fail-stop contract under test is the acked-implies-fsynced one
		"-disk-fault-seed", fmt.Sprint(ds.cfg.seed+uint64(iter)*7919+1),
		"-disk-fault-sites", site.String(),
		"-disk-fault-prob", fmt.Sprint(diskProbFor(site)),
	)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		c.kill()
		c.reap(time.Second)
		return fmt.Errorf("iter %d (site %s): %w", iter, site, err)
	}
	verified, err := verifyChild(c, ds.l, ds.cfg.workers)
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
	mode, err := fetchMode(c.statsz)
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
		if err := ds.probeDegraded(c, mode); err != nil {
			return fail(err)
		}
		if c.parentKilled.Load() {
			return fail(fmt.Errorf("child wedged answering the degraded-mode probe:\n%s", c.dumpTail()))
		}
	}
	c.kill()
	sites, _ := c.reap(2 * time.Second)
	ds.injections.add(sites)
	return nil
}

// runDiskFault is the diskfault leg's entry point.
func runDiskFault(cfg soakCfg) error {
	cleanup, err := prepare(&cfg)
	if err != nil {
		return err
	}
	ds := &diskLeg{cfg: cfg, l: newLedger(), injections: tally{}}
	fmt.Printf("nztm-soak: diskfault mode: target=%d injections, dir=%s, seed=%d (%d shards, %d workers × %d keys)\n",
		cfg.target, cfg.dir, cfg.seed, cfg.shards, cfg.workers, cfg.keys)

	start := time.Now()
	maxIters := cfg.target + 40
	for iter := 0; ds.injections.total() < cfg.target || ds.failedModes == 0 || ds.roModes == 0; iter++ {
		if iter >= maxIters {
			return fmt.Errorf("only %d of %d injections (failed=%d read-only=%d episodes) after %d iterations (per-site: %s)",
				ds.injections.total(), cfg.target, ds.failedModes, ds.roModes, iter, perSite(ds.injections, diskSites))
		}
		if iter > 0 && iter%8 == 0 {
			// The graceful path must still work between fault episodes: an
			// unarmed child recovers, serves, drains on SIGTERM, exits 0.
			if err := graceful(cfg, ds.l, 2000+iter/8); err != nil {
				return err
			}
		}
		if err := ds.iterate(iter, diskSites[iter%len(diskSites)]); err != nil {
			return err
		}
		if (iter+1)%10 == 0 {
			fmt.Printf("nztm-soak: iter %d: %d/%d injections (%s), modes failed=%d read-only=%d, %d acked, %d lost, %d readonly-shed\n",
				iter+1, ds.injections.total(), cfg.target, perSite(ds.injections, diskSites),
				ds.failedModes, ds.roModes, ds.l.acked.Load(), ds.l.lost.Load(), ds.readonlyShed.Load())
		}
	}
	// Final unarmed boot: verify every obligation once more and prove the
	// graceful path end-to-end after all the carnage.
	if err := graceful(cfg, ds.l, 3000); err != nil {
		return err
	}
	if err := allFired(ds.injections, diskSites); err != nil {
		return err
	}
	if ds.readonlyShed.Load() == 0 {
		return errors.New("no write was ever shed with StatusReadOnly — the ENOSPC degraded mode went unexercised")
	}

	fmt.Printf("nztm-soak: diskfault summary: %d injections in %d iterations (%s), modes failed=%d read-only=%d, %d acked, %d lost, %d readonly-shed, %d write-errors, %v elapsed\n",
		ds.injections.total(), ds.iters, perSite(ds.injections, diskSites), ds.failedModes, ds.roModes,
		ds.l.acked.Load(), ds.l.lost.Load(), ds.readonlyShed.Load(), ds.writeErrs.Load(),
		time.Since(start).Round(time.Millisecond))
	if err := checkHistory(ds.l.rec, cfg.limit, "recovered history"); err != nil {
		return err
	}
	cleanup()
	return nil
}
