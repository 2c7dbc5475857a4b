// The engine the child-process legs (crash, diskfault, failover) run
// on: one config, one ledger of durability obligations beside the
// recorded history, one launcher for nztm-server children, one
// dial-with-retry, one worker loop, one history gate and one prologue.
// What each leg proves — its injection schedule, its episodes and the
// gates only it has — stays in the leg's own file.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nztm/internal/fault"
	"nztm/internal/histcheck"
	"nztm/internal/kv"
	"nztm/internal/metrics"
	"nztm/internal/node"
	"nztm/internal/server"
)

// soakCfg is every leg's configuration; each leg reads what it needs.
type soakCfg struct {
	leg     string
	seed    uint64
	limit   int // linearizability search budget (0 = checker default)
	shards  int
	buckets int
	keys    int // chaos: key-space size; child legs: keys per worker

	// The in-process legs (chaos, oversub): their node's system, thread
	// hint, trace capacity and data directory come from the flags.
	node     node.Config
	duration time.Duration
	clients  int
	rate     int
	oversub  bool

	// The child-process legs (crash, diskfault, failover).
	bin        string // nztm-server binary ("" = go build it)
	dir        string // data directory ("" = temp, removed on success)
	workers    int
	target     int // crash, diskfault: injections to accumulate
	kills      int // failover: primary SIGKILLs to survive
	partitions int // failover: split-brain episodes after the kills
}

// ---------------------------------------------------------------------
// The ledger.

// effect is the result of one write op on its key: a value or absence.
type effect struct {
	del bool
	val string
}

func (e effect) String() string {
	if e.del {
		return "<absent>"
	}
	return fmt.Sprintf("%q", e.val)
}

// keyModel tracks one key's durability obligations since the last
// verified read (the "rebase point"):
//
//	base      — the state a verified read proved (acknowledged, so
//	            durable: recovery may never regress past it);
//	lastAcked — the newest acknowledged write since the rebase; if any
//	            write was acked, base is no longer admissible;
//	lost      — writes whose response never arrived (the child died).
//	            Each may or may not have committed, and a lost write can
//	            commit after later acknowledged ones (its server-side
//	            transaction outlives the severed connection), so every
//	            lost effect stays admissible until the next rebase.
//
// Admissible states: {lastAcked} (or {base} when nothing was acked) ∪
// lost. Anything else is either a lost acknowledged write or a corrupt
// record.
type keyModel struct {
	base      effect
	lastAcked *effect
	lost      []effect
}

func (m *keyModel) touched() bool { return m.lastAcked != nil || len(m.lost) > 0 }

func (m *keyModel) admissible(found bool, val []byte) bool {
	match := func(e effect) bool {
		if e.del {
			return !found
		}
		return found && string(val) == e.val
	}
	if m.lastAcked != nil {
		if match(*m.lastAcked) {
			return true
		}
	} else if match(m.base) {
		return true
	}
	for _, e := range m.lost {
		if match(e) {
			return true
		}
	}
	return false
}

func (m *keyModel) rebase(found bool, val []byte) {
	m.base = effect{del: !found, val: string(val)}
	m.lastAcked = nil
	m.lost = nil
}

// ledger is a leg's parent-side truth across every child lifetime: the
// per-key obligations and the history the checker runs on at the end.
// Worker goroutines share it; mu guards the model.
type ledger struct {
	rec *histcheck.Recorder

	mu    sync.Mutex
	model map[string]*keyModel

	acked atomic.Uint64
	lost  atomic.Uint64
}

func newLedger() *ledger {
	return &ledger{rec: histcheck.NewRecorder(), model: make(map[string]*keyModel)}
}

func (l *ledger) modelFor(key string) *keyModel {
	m := l.model[key]
	if m == nil {
		m = &keyModel{base: effect{del: true}} // fresh stores hold nothing
		l.model[key] = m
	}
	return m
}

// writes calls f with the key model and effect of each write in ops.
func (l *ledger) writes(ops []kv.Op, f func(m *keyModel, e effect)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range ops {
		switch ops[i].Kind {
		case kv.OpPut:
			f(l.modelFor(ops[i].Key), effect{val: string(ops[i].Value)})
		case kv.OpDelete:
			f(l.modelFor(ops[i].Key), effect{del: true})
		}
	}
}

// ack folds an acknowledged request's writes into the model.
func (l *ledger) ack(ops []kv.Op) {
	l.writes(ops, func(m *keyModel, e effect) { m.lastAcked = &e })
	l.acked.Add(1)
}

// markLost records a request whose response never arrived: each of its
// writes may or may not have committed.
func (l *ledger) markLost(ops []kv.Op) {
	l.writes(ops, func(m *keyModel, e effect) { m.lost = append(m.lost, e) })
	l.lost.Add(1)
}

// touchedKeys returns, sorted, every key with outstanding obligations.
func (l *ledger) touchedKeys() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var keys []string
	for k, m := range l.model {
		if m.touched() {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// settle checks a read of key against its obligations. With rebase, an
// admissible read becomes the key's new base and clears them.
func (l *ledger) settle(key string, found bool, val []byte, rebase bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.modelFor(key)
	if !m.admissible(found, val) {
		return fmt.Errorf("key %s reads as %v; admissible: lastAcked=%v base=%v lost=%v",
			key, effect{del: !found, val: string(val)}, m.lastAcked, m.base, m.lost)
	}
	if rebase {
		m.rebase(found, val)
	}
	return nil
}

// errSevered marks a verify whose connection died: the outcome of the
// read is unknown, not wrong.
var errSevered = errors.New("connection severed")

// verify reads back every key with outstanding obligations through cl,
// recorded as history client clientID, and checks each value is
// admissible, rebasing key by key. The reads are real acknowledged
// operations (durability-gated by the server), so a completed verify
// proves the state it saw is itself recoverable.
func (l *ledger) verify(cl *server.Client, clientID int) error {
	for _, k := range l.touchedKeys() {
		ops := []kv.Op{{Kind: kv.OpGet, Key: k}}
		p := l.rec.Begin(clientID, ops)
		res, err := cl.Do(ops)
		if err != nil {
			p.Lost()
			return fmt.Errorf("%w: verify read of %s: %v", errSevered, k, err)
		}
		p.Done(res)
		if err := l.settle(k, res[0].Found, res[0].Value, true); err != nil {
			return fmt.Errorf("acknowledged write lost or corrupted: %w", err)
		}
	}
	return nil
}

// doFunc sends one request. clean=false means an earlier attempt died
// mid-flight and may have executed too.
type doFunc func(ops []kv.Op) (res []kv.Result, clean bool, err error)

// plain adapts a single-attempt client: every answer is clean.
func plain(cl *server.Client) doFunc {
	return func(ops []kv.Op) ([]kv.Result, bool, error) {
		res, err := cl.Do(ops)
		return res, true, err
	}
}

// shed reports a clean rejection the server guarantees had no effect.
func shed(err error) bool {
	return errors.Is(err, kv.ErrBudget) || errors.Is(err, kv.ErrReadOnly) || errors.Is(err, server.ErrOverloaded)
}

// run sends ops as history client id and folds the outcome into the
// history and the model: acknowledged, shed (no effect) or lost
// (outcome unknown). It returns do's error.
func (l *ledger) run(id int, ops []kv.Op, do doFunc) error {
	p := l.rec.Begin(id, ops)
	res, clean, err := do(ops)
	switch {
	case err == nil && clean:
		p.Done(res)
		l.ack(ops)
	case err == nil:
		// Acked, but a duplicate execution may show in the results: the
		// effect is durable, the observation is not trusted.
		p.Lost()
		l.ack(ops)
	case clean && shed(err):
		p.Discard()
	default:
		p.Lost()
		l.markLost(ops)
	}
	return err
}

// ---------------------------------------------------------------------
// The worker loop.

// workerKey is worker w's i-th key. Each worker owns its keys, so
// per-key write order equals issue order and the model stays exact.
func workerKey(w, i int) string { return fmt.Sprintf("w%d-k%02d", w, i) }

// genOps is the op generator: a single-key GET with probability
// reads %, else a two-key batch on a neighbouring pair (often crossing
// shards), a DELETE or a PUT.
func genOps(rng *workloadRNG, w, keys, reads int, val []byte) []kv.Op {
	k := rng.intn(keys)
	switch r := rng.intn(100); {
	case r < reads:
		return []kv.Op{{Kind: kv.OpGet, Key: workerKey(w, k)}}
	case r < reads+10:
		return []kv.Op{
			{Kind: kv.OpPut, Key: workerKey(w, k&^1), Value: val},
			{Kind: kv.OpPut, Key: workerKey(w, k|1), Value: val},
		}
	case r < reads+25:
		return []kv.Op{{Kind: kv.OpDelete, Key: workerKey(w, k)}}
	default:
		return []kv.Op{{Kind: kv.OpPut, Key: workerKey(w, k), Value: val}}
	}
}

// session is one worker's connection for a round; a nil do sits the
// round out.
type session struct {
	do doFunc
	// outcome sees each failed request's error after the ledger took it;
	// true stops the worker. nil never stops.
	outcome func(err error) (stop bool)
	close   func()
}

// loadSpec is one round of load: the leg's connection and hooks.
type loadSpec struct {
	iter  int           // round number: seeds the workload and tags values
	reads int           // percent of ops that are single-key GETs
	pace  time.Duration // pause after each request
	open  func(w int) session
	// read, when set, takes the GETs instead of do, outside the history.
	read func(key string)
}

// load runs cfg.workers workers on spec until ctx ends or every worker
// has quit. History client IDs are the worker numbers.
func (l *ledger) load(ctx context.Context, cfg soakCfg, spec loadSpec) {
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := spec.open(w)
			if s.do == nil {
				return
			}
			if s.close != nil {
				defer s.close()
			}
			rng := newWorkloadRNG(cfg.seed+uint64(spec.iter)*131, w)
			for seq := 0; ctx.Err() == nil; seq++ {
				ops := genOps(rng, w, cfg.keys, spec.reads, []byte(fmt.Sprintf("w%d.%d.%d", w, spec.iter, seq)))
				if spec.read != nil && ops[0].Kind == kv.OpGet {
					spec.read(ops[0].Key)
					continue
				}
				if err := l.run(w, ops, s.do); err != nil && s.outcome != nil && s.outcome(err) {
					return
				}
				time.Sleep(spec.pace)
			}
		}(w)
	}
	wg.Wait()
}

// ---------------------------------------------------------------------
// Children.

// readyPrefix starts nztm-server's machine-readable ready line, printed
// only after recovery completes: "ready addr=<kv> [statsz=<http>]".
const readyPrefix = "nztm-server: ready "

// child is one nztm-server process under parent control.
type child struct {
	cmd     *exec.Cmd
	exitCh  chan error
	exitErr error // cmd.Wait's result, once reaped

	mu           sync.Mutex
	addr         string // KV address, from the ready line
	statsz       string // observability mux address, from the ready line
	readyCh      chan struct{}
	readyOnce    sync.Once
	sites        []string // DISK-FAULT sites seen on its output
	tail         []string // last output lines, for post-mortem
	parentKilled atomic.Bool
}

// note records one output line, firing the ready latch and collecting
// fault markers. Called synchronously from the exec pipe copiers, so
// cmd.Wait returning implies every marker has been seen.
func (c *child) note(line string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tail = append(c.tail, line)
	if len(c.tail) > 40 {
		c.tail = c.tail[len(c.tail)-40:]
	}
	if rest, ok := strings.CutPrefix(line, readyPrefix); ok {
		for _, f := range strings.Fields(rest) {
			if a, ok := strings.CutPrefix(f, "addr="); ok {
				c.addr = a
			} else if a, ok := strings.CutPrefix(f, "statsz="); ok {
				c.statsz = a
			}
		}
		c.readyOnce.Do(func() { close(c.readyCh) })
	}
	if strings.HasPrefix(line, fault.DiskMarkerPrefix) {
		for _, f := range strings.Fields(line) {
			if s, ok := strings.CutPrefix(f, "site="); ok {
				c.sites = append(c.sites, s)
			}
		}
	}
}

// lineWriter feeds an io.Writer stream to note line by line. Using a
// Writer (not StdoutPipe) makes cmd.Wait block until the stream is
// fully drained — no marker can race the exit status.
type lineWriter struct {
	c   *child
	buf []byte
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		w.c.note(string(w.buf[:i]))
		w.buf = w.buf[i+1:]
	}
}

// launch starts bin with args and waits for its ready line.
func launch(bin string, args ...string) (*child, error) {
	c := &child{
		cmd:     exec.Command(bin, args...),
		exitCh:  make(chan error, 1),
		readyCh: make(chan struct{}),
	}
	c.cmd.Stdout = &lineWriter{c: c}
	c.cmd.Stderr = &lineWriter{c: c}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { c.exitCh <- c.cmd.Wait() }()
	select {
	case <-c.readyCh:
		return c, nil
	case err := <-c.exitCh:
		return nil, fmt.Errorf("child exited before ready (%v):\n%s", err, c.dumpTail())
	case <-time.After(20 * time.Second):
		c.kill()
		<-c.exitCh
		return nil, fmt.Errorf("child not ready after 20s:\n%s", c.dumpTail())
	}
}

// childArgs is the argument list every leg's child starts from; a leg
// appends its own.
func (cfg soakCfg) childArgs(dir string) []string {
	return []string{
		"-statsz", "127.0.0.1:0", "-system", "nzstm",
		"-shards", fmt.Sprint(cfg.shards), "-buckets", fmt.Sprint(cfg.buckets),
		"-threads", "4", "-drain", "5s",
		"-data-dir", dir, "-fsync-interval", "10ms",
	}
}

func (c *child) kill() {
	c.parentKilled.Store(true)
	if c.cmd.Process != nil {
		c.cmd.Process.Kill()
	}
}

func (c *child) dumpTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return "  | " + strings.Join(c.tail, "\n  | ")
}

// reap waits for the child to die (killing it if nothing ends it within
// grace) and returns the fault sites that fired plus whether the parent
// had to kill it; c.exitErr then holds the exit status.
func (c *child) reap(grace time.Duration) (sites []string, killed bool) {
	select {
	case c.exitErr = <-c.exitCh:
	case <-time.After(grace):
		c.kill()
		c.exitErr = <-c.exitCh
	}
	c.mu.Lock()
	sites = append(sites, c.sites...)
	c.mu.Unlock()
	return sites, c.parentKilled.Load()
}

// tally counts a leg's fault injections by site name.
type tally map[string]int

func (t tally) add(sites []string) {
	for _, s := range sites {
		t[s]++
	}
}

func (t tally) total() (n int) {
	for _, v := range t {
		n += v
	}
	return n
}

// perSite renders the count of each of sites, in order: "a=1 b=0".
func perSite[S fmt.Stringer](t tally, sites []S) string {
	parts := make([]string, len(sites))
	for i, s := range sites {
		parts[i] = fmt.Sprintf("%s=%d", s, t[s.String()])
	}
	return strings.Join(parts, " ")
}

// allFired fails if any of sites never fired.
func allFired[S fmt.Stringer](t tally, sites []S) error {
	for _, s := range sites {
		if t[s.String()] == 0 {
			return fmt.Errorf("site %s never fired (per-site: %s)", s, perSite(t, sites))
		}
	}
	return nil
}

// dial connects to addr with short retries until the deadline (a
// child's listener is up before its accept loop is scheduled; a chaos
// reset drops a connection).
func dial(addr string, until time.Time) (*server.Client, error) {
	for {
		cl, err := server.Dial(addr)
		if err == nil || !time.Now().Before(until) {
			return cl, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// dialChild opens a worker session on child c with the leg's outcome
// hook; an empty one when the child is not accepting.
func dialChild(c *child, outcome func(error) bool) session {
	cl, err := dial(c.addr, time.Now().Add(time.Second))
	if err != nil {
		return session{}
	}
	return session{do: plain(cl), outcome: outcome, close: func() { cl.Close() }}
}

// verifyChild runs the ledger's verify through child c under a wedge
// watchdog. ok=false means the child died mid-verify (a snapshot-site
// injection can fire under read-only load); the next boot re-verifies.
func verifyChild(c *child, l *ledger, clientID int) (ok bool, err error) {
	cl, err := dial(c.addr, time.Now().Add(time.Second))
	if err != nil {
		return false, nil
	}
	defer cl.Close()
	watchdog := time.AfterFunc(15*time.Second, c.kill)
	defer watchdog.Stop()
	err = l.verify(cl, clientID)
	if errors.Is(err, errSevered) {
		return false, nil
	}
	return true, err
}

// ---------------------------------------------------------------------
// Gates and the prologue.

// checkHistory is every leg's linearizability gate over rec's history.
func checkHistory(rec *histcheck.Recorder, limit int, what string) error {
	start := time.Now()
	res := histcheck.CheckWithLimit(rec.History(), limit)
	fmt.Printf("nztm-soak: checked %d ops in %d partitions (%d states visited) in %v\n",
		res.Ops, res.Partitions, res.Visited, time.Since(start).Round(time.Millisecond))
	switch {
	case res.Ok:
		return nil
	case res.Capped:
		return fmt.Errorf("linearizability check exhausted its state budget after %d states (lower -rate or raise -limit): %v",
			res.Visited, res.Violation)
	}
	return fmt.Errorf("%s is NOT linearizable: %v", what, res.Violation)
}

// prepare builds nztm-server unless cfg.bin names one and points
// cfg.dir at a fresh data directory unless it names one, both under one
// temp dir. cleanup removes that dir; a leg calls it only on success, so
// a failure leaves the evidence.
func prepare(cfg *soakCfg) (cleanup func(), err error) {
	tmp, err := os.MkdirTemp("", "nztm-"+cfg.leg+"-")
	if err != nil {
		return nil, err
	}
	cleanup = func() { os.RemoveAll(tmp) }
	if cfg.bin == "" {
		cfg.bin = filepath.Join(tmp, "nztm-server")
		if out, err := exec.Command("go", "build", "-o", cfg.bin, "nztm/cmd/nztm-server").CombinedOutput(); err != nil {
			cleanup()
			return nil, fmt.Errorf("building nztm-server (pass -server-bin to skip): %v\n%s", err, out)
		}
	}
	if cfg.dir == "" {
		cfg.dir = filepath.Join(tmp, "data")
	}
	return cleanup, nil
}

// ---------------------------------------------------------------------
// /metricsz.

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

// errMalformed marks an exposition that fails metrics.LintProm or lacks
// a sample a leg reads.
var errMalformed = errors.New("malformed /metricsz exposition")

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

// gauges GETs a child's /metricsz, lints it and returns the values of
// the named samples: the soak fails on an exposition a scraper would
// reject.
func gauges(addr string, names ...string) ([]float64, error) {
	body, err := httpText("http://" + addr + "/metricsz")
	if err != nil {
		return nil, err
	}
	ss, err := lintedSamples(addr, body)
	if err != nil {
		return nil, err
	}
	vs := make([]float64, len(names))
next:
	for i, name := range names {
		for _, s := range ss {
			if s.Name == name {
				vs[i] = s.Value
				continue next
			}
		}
		return nil, fmt.Errorf("%w from %s: no %s sample", errMalformed, addr, name)
	}
	return vs, nil
}
