package fault

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"nztm/internal/wal"
)

// CrashMarkerPrefix starts the line a firing crash point writes before
// killing the process. The crash soak's parent greps the child's stderr
// for it to count injections per site.
const CrashMarkerPrefix = "CRASH-POINT"

// CrashConfig configures deterministic kill-self injection at the WAL's
// named crash sites.
type CrashConfig struct {
	// Seed derives one deterministic Bernoulli stream per site.
	Seed uint64
	// Probs is the per-visit firing probability for each site; a zero
	// entry disarms that site.
	Probs [wal.CrashPointCount]float64
	// Output receives the crash marker line (default os.Stderr).
	Output io.Writer
}

// CrashPoints injects process death at WAL crash sites: on a hit it
// writes a marker line and SIGKILLs its own process — no deferred
// cleanup, no flushes, exactly the failure a power cut or OOM kill
// delivers. Wire Hook into wal.Config.CrashHook.
type CrashPoints struct {
	cfg  CrashConfig
	kill func() // SIGKILL self; swappable so tests survive a fire

	mu      sync.Mutex
	streams [wal.CrashPointCount]*stream

	// Visits counts hook invocations per site (useful in tests; the
	// post-crash world learns hits from the marker, not from memory).
	Visits [wal.CrashPointCount]atomic.Uint64
}

// NewCrashPoints builds a crash injector. A zero-prob config never
// fires (every site disarmed).
func NewCrashPoints(cfg CrashConfig) *CrashPoints {
	if cfg.Output == nil {
		cfg.Output = os.Stderr
	}
	c := &CrashPoints{cfg: cfg, kill: killSelf}
	for i := range c.streams {
		c.streams[i] = newStream(cfg.Seed, 0x5eed+uint64(i))
	}
	return c
}

// Hook is the wal.Config.CrashHook implementation. When the site's
// deterministic stream fires, it does not return.
func (c *CrashPoints) Hook(p wal.CrashPoint) {
	if p < 0 || p >= wal.CrashPointCount {
		return
	}
	c.Visits[p].Add(1)
	prob := c.cfg.Probs[p]
	if prob <= 0 {
		return
	}
	c.mu.Lock()
	fire := c.streams[p].hit(prob)
	c.mu.Unlock()
	if !fire {
		return
	}
	fmt.Fprintf(c.cfg.Output, "%s site=%s seed=%d\n", CrashMarkerPrefix, p, c.cfg.Seed)
	c.kill()
}

// killSelf terminates the process without running any deferred cleanup.
// SIGKILL cannot be caught; the kernel reaps us mid-instruction.
func killSelf() {
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	// SIGKILL delivery can race the next instruction; never limp on.
	select {}
}

// ParseCrashSites parses a comma-separated site list ("mid-append" or
// "pre-append,mid-snapshot" or "all") into a per-site probability
// vector with prob at each named site.
func ParseCrashSites(list string, prob float64) (probs [wal.CrashPointCount]float64, err error) {
	err = parseSites("crash", list, prob, probs[:], func(i int) string { return wal.CrashPoint(i).String() })
	return probs, err
}

// parseSites sets probs[i] = prob for every site named in list ("all"
// names them all); name(i) is site i's name.
func parseSites(kind, list string, prob float64, probs []float64, name func(int) string) error {
	if list == "" {
		return nil
	}
	for _, n := range strings.Split(list, ",") {
		n = strings.TrimSpace(n)
		found := false
		for i := range probs {
			if n == "all" || n == name(i) {
				probs[i], found = prob, true
			}
		}
		if !found {
			return fmt.Errorf("fault: unknown %s site %q", kind, n)
		}
	}
	return nil
}
