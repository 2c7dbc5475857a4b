// Disk-fault soak (-leg diskfault): the storage-error analogue of the
// crash soak. The parent execs nztm-server children with the WAL's disk
// fault plane armed (seeded EIO, error-free short writes, ENOSPC, fsync
// failure, open and rename errors at named sites), hammers each child
// with acknowledged writes while the injections land, and verifies that
// every failure either failed fast or stopped the store — never wedged
// a request, never acknowledged a write the disk did not hold:
//
//   - one stop rule: after any storage error the log stops; a direct
//     write probe must be refused promptly with StatusReadOnly (provably
//     no effect) and never acknowledged, whichever site stopped it, a
//     store that did not stop must ack it, and at least one stop must
//     come from sync and one from write-enospc;
//   - reads keep serving on a store that write-enospc stopped;
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
	stops        tally // episodes whose log stopped, by armed site
	iters        int
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
// crash leg, the child does not die — its log stops — so workers keep
// going through read-only sheds (clean, no effect) and bail only after
// a dozen hard errors each. The cap is on the total, not a run: reads
// keep succeeding on a stopped store and would reset a consecutive
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
					// A write in flight when the log stopped (the
					// boundary cohort): outcome unknown, but it came back
					// — fast — instead of wedging.
					ds.writeErrs.Add(1)
					hardErrs++
				}
				return hardErrs >= 12
			})
		},
	})
}

// fetchStopped reads whether the log has stopped from the child's
// /metricsz gauge. An unreachable child reads as running; a malformed
// exposition is an error.
func fetchStopped(addr string) (bool, error) {
	for i := 0; i < 10; i++ {
		vs, err := gauges(addr, "nztm_wal_readonly")
		switch {
		case err == nil:
			return vs[0] == 1, nil
		case errors.Is(err, errMalformed):
			return false, err
		}
		time.Sleep(50 * time.Millisecond)
	}
	return false, nil
}

// probeDegraded checks the stop rule with one direct write. A running
// store must ack it, unless that very write stopped the log. A stopped
// store must refuse it with StatusReadOnly and never ack it (a
// pre-execution refusal, so it constrains nothing in the history), and
// must serve a read when write-enospc stopped it.
func (ds *diskLeg) probeDegraded(c *child, site fault.DiskSite, stopped bool) error {
	cl, err := dial(c.addr, time.Now().Add(time.Second))
	if err != nil {
		return nil // connection refused beats wedged; verified next boot
	}
	defer cl.Close()
	watchdog := time.AfterFunc(10*time.Second, c.kill)
	defer watchdog.Stop()
	if !stopped {
		err := ds.l.run(ds.cfg.workers+1, []kv.Op{{Kind: kv.OpPut, Key: "running-probe", Value: []byte("v")}}, plain(cl))
		if now, _ := fetchStopped(c.statsz); err != nil && !now {
			return fmt.Errorf("a running store refused a write: %v", err)
		}
		return nil
	}
	ops := []kv.Op{{Kind: kv.OpPut, Key: "degraded-probe", Value: []byte("must-not-land")}}
	p := ds.l.rec.Begin(ds.cfg.workers+1, ops)
	_, err = cl.Do(ops)
	if err == nil {
		p.Lost()
		ds.l.markLost(ops)
		return errors.New("write ACKED while the log is stopped — the store lied about durability")
	}
	p.Discard()
	if !errors.Is(err, kv.ErrReadOnly) {
		return fmt.Errorf("stopped store refused a write with %v, want StatusReadOnly", err)
	}
	// Reads of stable prefixes keep serving; an error is tolerated only
	// if it is fast — the watchdog turns a wedge into a kill, failing the
	// iteration — except after write-enospc, where a read must serve.
	rops := []kv.Op{{Kind: kv.OpGet, Key: "degraded-probe"}}
	rp := ds.l.rec.Begin(ds.cfg.workers+1, rops)
	if res, rerr := cl.Do(rops); rerr == nil {
		rp.Done(res)
		if res[0].Found {
			return errors.New("refused write is visible to reads")
		}
	} else {
		rp.Lost()
		if site == fault.DiskWriteENOSPC {
			return fmt.Errorf("read failed on a read-only store: %v", rerr)
		}
	}
	return nil
}

// iterate runs one armed child lifetime: boot (clean recovery of the
// previous episode's carnage), verify, load under injection, check the
// stopped-store contract, SIGKILL, classify the markers.
func (ds *diskLeg) iterate(iter int, site fault.DiskSite) error {
	ds.iters++
	c, err := boot(ds.cfg,
		"-fsync", "always", // the stop contract under test is the acked-implies-fsynced one
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
	stopped, err := fetchStopped(c.statsz)
	if err != nil {
		return fail(err)
	}
	if stopped {
		ds.stops.add([]string{site.String()})
	}
	if err := ds.probeDegraded(c, site, stopped); err != nil {
		return fail(err)
	}
	if c.parentKilled.Load() {
		return fail(fmt.Errorf("child wedged answering the stop-rule probe:\n%s", c.dumpTail()))
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
	ds := &diskLeg{cfg: cfg, l: newLedger(), injections: tally{}, stops: tally{}}
	fmt.Printf("nztm-soak: diskfault mode: target=%d injections, dir=%s, seed=%d (%d shards, %d workers × %d keys)\n",
		cfg.target, cfg.dir, cfg.seed, cfg.shards, cfg.workers, cfg.keys)

	start := time.Now()
	maxIters := cfg.target + 40
	enospc, fsync := fault.DiskWriteENOSPC.String(), fault.DiskSync.String()
	for iter := 0; ds.injections.total() < cfg.target || ds.stops[enospc] == 0 || ds.stops[fsync] == 0; iter++ {
		if iter >= maxIters {
			return fmt.Errorf("only %d of %d injections after %d iterations (per-site: %s; stops: %s)",
				ds.injections.total(), cfg.target, iter, perSite(ds.injections, diskSites), perSite(ds.stops, diskSites))
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
			fmt.Printf("nztm-soak: iter %d: %d/%d injections (%s), stops (%s), %d acked, %d lost, %d readonly-shed\n",
				iter+1, ds.injections.total(), cfg.target, perSite(ds.injections, diskSites),
				perSite(ds.stops, diskSites), ds.l.acked.Load(), ds.l.lost.Load(), ds.readonlyShed.Load())
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
		return errors.New("no write was ever shed with StatusReadOnly — the stopped store went unexercised")
	}

	fmt.Printf("nztm-soak: diskfault summary: %d injections in %d iterations (%s), stops (%s), %d acked, %d lost, %d readonly-shed, %d write-errors, %v elapsed\n",
		ds.injections.total(), ds.iters, perSite(ds.injections, diskSites), perSite(ds.stops, diskSites),
		ds.l.acked.Load(), ds.l.lost.Load(), ds.readonlyShed.Load(), ds.writeErrs.Load(),
		time.Since(start).Round(time.Millisecond))
	if err := checkHistory(ds.l.rec, cfg.limit, "recovered history"); err != nil {
		return err
	}
	cleanup()
	return nil
}
