// Crash-recovery soak (-leg crash): the durability analogue of the chaos
// soak. The parent process execs nztm-server as a child with one of the
// disk-fault plane's kill sites armed (deterministic seeded kill-self
// before, halfway through or after a write, before a rename, before a
// remove), hammers it with acknowledged writes, lets the injection
// SIGKILL the child mid-operation, restarts it against the same data
// directory, and verifies after every recovery that
//
//   - every acknowledged write survived (reads after restart must show
//     the last acknowledged value or a later issued-but-unacknowledged
//     one — never an older or unknown value);
//   - unacknowledged writes may be lost but are never corrupted (any
//     recovered value must be one the workload actually issued);
//   - the full cross-restart history, with crash-severed requests
//     recorded as lost, remains linearizable under internal/histcheck;
//   - every child dies by injection: one the parent's watchdog has to
//     kill (wedged, or never reaching its kill site) fails the leg.
//
// Every few iterations (and at the end) it also runs the graceful path:
// an unarmed child is sent SIGTERM and must drain, flush the WAL and
// exit 0, and its acknowledged writes must be visible after the next
// boot. Sites, fsync policies (always/interval/never) and seeds rotate
// deterministically, so one -seed reproduces one injection schedule.
package main

import (
	"context"
	"fmt"
	"syscall"
	"time"

	"nztm/internal/fault"
	"nztm/internal/kv"
)

// crashLeg is the parent-side state across all child lifetimes.
type crashLeg struct {
	cfg soakCfg
	l   *ledger

	injections tally
	iters      int
	gracefuls  int
}

// crashSites is the per-iteration rotation: every kill site.
var crashSites = []fault.DiskSite{
	fault.DiskKillBeforeWrite, fault.DiskKillMidWrite, fault.DiskKillAfterWrite,
	fault.DiskKillBeforeRename, fault.DiskKillBeforeRemove,
}

// boot starts one single-node child on cfg.dir (the crash and diskfault
// legs).
func boot(cfg soakCfg, extra ...string) (*child, error) {
	args := append(cfg.childArgs(cfg.dir), "-addr", "127.0.0.1:0", "-snapshot-every", "25ms")
	return launch(cfg.bin, append(args, extra...)...)
}

// load drives acknowledged writes until the child dies or the deadline
// passes; a worker whose request fails other than by a clean shed stops
// (the child died under it). A watchdog kills the child past the
// deadline, so a child that hangs requests (instead of crashing) cannot
// wedge a worker inside a blocking Do.
func (cs *crashLeg) load(c *child, iter int, deadline time.Duration) {
	watchdog := time.AfterFunc(deadline+time.Second, c.kill)
	defer watchdog.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	cs.l.load(ctx, cs.cfg, loadSpec{
		iter: iter, reads: 15, pace: 500 * time.Microsecond,
		open: func(int) session {
			return dialChild(c, func(err error) bool { return !shed(err) })
		},
	})
}

// ---------------------------------------------------------------------
// Iterations.

// crashProb picks the per-visit firing probability for a site: write
// sites are visited once per cohort (let a few dozen commits land first),
// rename and remove a few times a second by snapshots (fire fast).
func crashProb(site fault.DiskSite) float64 {
	switch site {
	case fault.DiskKillBeforeRename:
		return 0.5
	case fault.DiskKillBeforeRemove:
		return 0.6
	default:
		return 0.08
	}
}

var crashFsyncs = [...]string{"always", "interval", "never"}

// iterate runs one armed child lifetime: boot (recovers the previous
// crash), verify, load until the injection kills it, classify.
func (cs *crashLeg) iterate(iter int, site fault.DiskSite, fsync string) error {
	cs.iters++
	seed := cs.cfg.seed + uint64(iter)*7919 + 1
	c, err := boot(cs.cfg,
		"-fsync", fsync,
		"-disk-fault-seed", fmt.Sprint(seed),
		"-disk-fault-sites", site.String(),
		"-disk-fault-prob", fmt.Sprint(crashProb(site)),
	)
	if err != nil {
		return err
	}
	verified, err := verifyChild(c, cs.l, cs.cfg.workers)
	if err != nil {
		c.kill()
		c.reap(time.Second)
		return fmt.Errorf("iter %d (site %s, fsync %s): %w", iter, site, fsync, err)
	}
	if verified {
		cs.load(c, iter, 8*time.Second)
	}
	sites, killed := c.reap(5 * time.Second)
	cs.injections.add(sites)
	if len(sites) == 0 {
		return fmt.Errorf("iter %d (site %s, fsync %s): child ended with no kill-site marker (parent kill: %v):\n%s",
			iter, site, fsync, killed, c.dumpTail())
	}
	return nil
}

// graceful runs the clean-shutdown path (the crash and diskfault legs):
// an unarmed child must recover, pass verify, serve acknowledged writes,
// and exit 0 on SIGTERM after flushing the WAL — which the next boot's
// verify then proves durable.
func graceful(cfg soakCfg, l *ledger, round int) error {
	fail := func(c *child, err error) error {
		c.kill()
		c.reap(time.Second)
		return fmt.Errorf("graceful round %d: %w", round, err)
	}
	c, err := boot(cfg, "-fsync", crashFsyncs[round%len(crashFsyncs)])
	if err != nil {
		return err
	}
	verified, err := verifyChild(c, l, cfg.workers)
	if err != nil {
		return fail(c, err)
	}
	if !verified {
		return fail(c, fmt.Errorf("unarmed child died during verify:\n%s", c.dumpTail()))
	}
	cl, err := dial(c.addr, time.Now().Add(time.Second))
	if err != nil {
		return fail(c, fmt.Errorf("dial: %w", err))
	}
	watchdog := time.AfterFunc(15*time.Second, c.kill)
	defer watchdog.Stop()
	for i := 0; i < 4; i++ {
		ops := []kv.Op{{Kind: kv.OpPut, Key: workerKey(i%cfg.workers, i),
			Value: []byte(fmt.Sprintf("graceful.%d.%d", round, i))}}
		if err := l.run(cfg.workers, ops, plain(cl)); err != nil {
			cl.Close()
			return fail(c, fmt.Errorf("write: %w", err))
		}
	}
	cl.Close()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("graceful round %d: signal: %w", round, err)
	}
	if _, killed := c.reap(15 * time.Second); killed {
		return fmt.Errorf("graceful round %d: child ignored SIGTERM for 15s:\n%s", round, c.dumpTail())
	} else if c.exitErr != nil {
		return fmt.Errorf("graceful round %d: SIGTERM exit was not 0: %v\n%s", round, c.exitErr, c.dumpTail())
	}
	return nil
}

// runCrash is the crash leg's entry point.
func runCrash(cfg soakCfg) error {
	cleanup, err := prepare(&cfg)
	if err != nil {
		return err
	}
	cs := &crashLeg{cfg: cfg, l: newLedger(), injections: tally{}}
	fmt.Printf("nztm-soak: crash mode: target=%d injections, dir=%s, seed=%d (%d shards, %d workers × %d keys)\n",
		cfg.target, cfg.dir, cfg.seed, cfg.shards, cfg.workers, cfg.keys)

	start := time.Now()
	// An iteration either fails or adds an injection, so the loop ends
	// within target iterations.
	for iter := 0; cs.injections.total() < cfg.target; iter++ {
		if iter > 0 && iter%50 == 0 {
			cs.gracefuls++
			if err := graceful(cfg, cs.l, iter/50); err != nil {
				return err
			}
		}
		if err := cs.iterate(iter, crashSites[iter%len(crashSites)], crashFsyncs[iter%len(crashFsyncs)]); err != nil {
			return err
		}
		if (iter+1)%25 == 0 {
			fmt.Printf("nztm-soak: iter %d: %d/%d injections (%s), %d acked, %d lost\n",
				iter+1, cs.injections.total(), cfg.target, perSite(cs.injections, crashSites),
				cs.l.acked.Load(), cs.l.lost.Load())
		}
	}
	// Two final graceful rounds: the first proves SIGTERM flushes, the
	// second that a clean shutdown's state recovers byte-for-byte.
	for _, round := range []int{1000, 1001} {
		cs.gracefuls++
		if err := graceful(cfg, cs.l, round); err != nil {
			return err
		}
	}
	if err := allFired(cs.injections, crashSites); err != nil {
		return err
	}

	fmt.Printf("nztm-soak: crash summary: %d injections in %d iterations (%s), %d graceful exits, %d acked, %d lost, %v elapsed\n",
		cs.injections.total(), cs.iters, perSite(cs.injections, crashSites), cs.gracefuls,
		cs.l.acked.Load(), cs.l.lost.Load(), time.Since(start).Round(time.Millisecond))
	if err := checkHistory(cs.l.rec, cfg.limit, "recovered history"); err != nil {
		return err
	}
	cleanup()
	return nil
}
