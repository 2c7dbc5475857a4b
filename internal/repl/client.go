package repl

// Cluster is the replica-aware client: writes go to the primary
// (discovered by probing and by following "primary=" redirect hints),
// reads round-robin across the replicas under a staleness budget and a
// read-your-writes token, falling back to the primary when a replica
// reports itself too far behind.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"nztm/internal/kv"
	"nztm/internal/server"
	"nztm/internal/wal"
)

// ClusterConfig configures a replica-aware client.
type ClusterConfig struct {
	// Addrs lists every node's KV (client protocol) address.
	Addrs []string
	// MaxLagMs is the read staleness budget in milliseconds. 0 (the
	// strictest) demands the replica prove freshness with a stamp
	// received after the read arrived; server.NoLagBudget waives the
	// freshness bound, leaving only the read-your-writes token.
	MaxLagMs uint32
	// RetryFor bounds how long an operation retries across redirects,
	// elections, and dead nodes before giving up (default 15s — long
	// enough to ride out a failover).
	RetryFor time.Duration
}

// Cluster routes requests across a replication cluster.
type Cluster struct {
	cfg ClusterConfig

	mu      sync.Mutex
	conns   map[string]*server.Client
	primary string         // believed primary KV address ("" unknown)
	token   []wal.ShardLSN // read-your-writes vector: element-wise max of observed commit vectors
	rr      int            // read round-robin cursor
}

// DialCluster builds a client over the given node addresses.
// Connections are dialed lazily and redialed after failures.
func DialCluster(cfg ClusterConfig) (*Cluster, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("repl: cluster with no addresses")
	}
	if cfg.RetryFor <= 0 {
		cfg.RetryFor = 15 * time.Second
	}
	return &Cluster{cfg: cfg, conns: make(map[string]*server.Client)}, nil
}

// Close tears down every connection.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cl := range c.conns {
		cl.Close()
	}
	c.conns = make(map[string]*server.Client)
	return nil
}

// Primary returns the believed primary's KV address, "" when unknown.
// It is accurate immediately after a successful Write.
func (c *Cluster) Primary() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.primary
}

// conn returns (dialing if needed) the connection to addr.
func (c *Cluster) conn(addr string) (*server.Client, error) {
	c.mu.Lock()
	if cl, ok := c.conns[addr]; ok {
		c.mu.Unlock()
		return cl, nil
	}
	c.mu.Unlock()
	cl, err := server.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if prev, ok := c.conns[addr]; ok {
		c.mu.Unlock()
		cl.Close()
		return prev, nil
	}
	c.conns[addr] = cl
	c.mu.Unlock()
	return cl, nil
}

// drop discards a (presumably dead) connection.
func (c *Cluster) drop(addr string, cl *server.Client) {
	c.mu.Lock()
	if c.conns[addr] == cl {
		delete(c.conns, addr)
	}
	c.mu.Unlock()
	cl.Close()
}

// mergeToken folds a commit vector into the read-your-writes token.
func (c *Cluster) mergeToken(vec []wal.ShardLSN) {
	if len(vec) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.token = mergeVec(c.token, vec)
}

// mergeVec returns the element-wise max of two sparse vectors (both
// sorted by shard); the result reuses a's backing where possible.
func mergeVec(a, b []wal.ShardLSN) []wal.ShardLSN {
	for _, sl := range b {
		found := false
		for i := range a {
			if a[i].Shard == sl.Shard {
				if sl.LSN > a[i].LSN {
					a[i].LSN = sl.LSN
				}
				found = true
				break
			}
		}
		if !found {
			a = append(a, sl)
		}
	}
	return a
}

// parsePrimaryHint extracts the primary address from a
// StatusNotPrimary message ("primary=<addr>"), "" if absent.
func parsePrimaryHint(msg string) string {
	const p = "primary="
	i := strings.Index(msg, p)
	if i < 0 {
		return ""
	}
	rest := msg[i+len(p):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

// Write executes ops (at least one mutation, or any batch the caller
// wants linearized at the primary) on the primary, following redirects
// and riding out failovers up to RetryFor. The returned commit vector
// is already folded into the client's token.
func (c *Cluster) Write(ops []kv.Op) ([]kv.Result, error) {
	results, _, err := c.WriteChecked(ops)
	return results, err
}

// WriteChecked is Write plus an exactly-once flag. clean=true means
// every failed attempt provably preceded execution (a dial failure, or
// a status refusal the server issues instead of executing), so the
// returned results are single-execution observations. clean=false
// means some attempt died mid-flight and may have executed: on success
// the write is applied and acknowledged, but its results can reflect a
// duplicate execution (a retried delete observing its own first
// attempt reports the key already absent) — don't feed them to an
// observation-checking oracle such as a linearizability checker.
func (c *Cluster) WriteChecked(ops []kv.Op) (results []kv.Result, clean bool, err error) {
	st := &server.Staleness{MaxLagMs: server.NoLagBudget}
	deadline := time.Now().Add(c.cfg.RetryFor)
	clean = true
	var lastErr error
	for attempt := 0; ; attempt++ {
		if time.Now().After(deadline) {
			if lastErr == nil {
				lastErr = errors.New("no primary found")
			}
			return nil, clean, fmt.Errorf("repl: write failed after %v: %w", c.cfg.RetryFor, lastErr)
		}
		addr := c.pickPrimary(attempt)
		cl, err := c.conn(addr)
		if err != nil {
			// Never dialed: provably not executed.
			lastErr = err
			c.notPrimary(addr, "")
			c.backoff(attempt)
			continue
		}
		results, vec, status, msg, err := cl.DoVec(ops, st)
		if err != nil {
			// The request was sent and the connection died: the server may
			// have executed it without us seeing the response.
			clean = false
			lastErr = err
			c.drop(addr, cl)
			c.notPrimary(addr, "")
			c.backoff(attempt)
			continue
		}
		switch status {
		case server.StatusOKVec:
			c.mu.Lock()
			c.primary = addr
			c.mu.Unlock()
			c.mergeToken(vec)
			return results, clean, nil
		case server.StatusNotPrimary:
			// Refused before execution (replica gate): still clean.
			c.notPrimary(addr, parsePrimaryHint(msg))
			lastErr = fmt.Errorf("%s: not primary", addr)
			c.backoff(attempt)
		case server.StatusLagging, server.StatusShutdown:
			// Lagging never applies to a primary write and shutdown means
			// this node is dying mid-failover: both are pre-execution
			// refusals and transient — move on.
			lastErr = fmt.Errorf("%s: status %d: %s", addr, status, msg)
			c.drop(addr, cl)
			c.notPrimary(addr, "")
			c.backoff(attempt)
		case server.StatusReadOnly:
			// The node's log stopped and it shed the write before
			// executing it (still clean). Keep the connection (the node
			// serves reads fine) but forget it as primary and retry
			// elsewhere. No failover follows yet: a stopped primary keeps
			// its lease (DESIGN.md §13.3), so this ends after RetryFor.
			lastErr = fmt.Errorf("%s: status %d: %s", addr, status, msg)
			c.notPrimary(addr, "")
			c.backoff(attempt)
		default:
			// A real execution error (budget, malformed): the primary
			// answered, so don't retry elsewhere.
			return nil, clean, fmt.Errorf("repl: write status %d: %s", status, msg)
		}
	}
}

// Read executes a read-only batch against a replica under the
// cluster's staleness budget and the client's read-your-writes token,
// falling back to the primary when replicas are lagging or dead.
func (c *Cluster) Read(ops []kv.Op) ([]kv.Result, error) {
	c.mu.Lock()
	st := &server.Staleness{MaxLagMs: c.cfg.MaxLagMs, Vector: append([]wal.ShardLSN(nil), c.token...)}
	primary := c.primary
	c.mu.Unlock()

	deadline := time.Now().Add(c.cfg.RetryFor)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if time.Now().After(deadline) {
			if lastErr == nil {
				lastErr = errors.New("no replica answered")
			}
			return nil, fmt.Errorf("repl: read failed after %v: %w", c.cfg.RetryFor, lastErr)
		}
		addr := c.pickReplica(primary, attempt)
		cl, err := c.conn(addr)
		if err != nil {
			lastErr = err
			c.backoff(attempt)
			continue
		}
		results, vec, status, msg, err := cl.DoVec(ops, st)
		if err != nil {
			lastErr = err
			c.drop(addr, cl)
			c.backoff(attempt)
			continue
		}
		switch status {
		case server.StatusOKVec:
			c.mergeToken(vec)
			return results, nil
		case server.StatusLagging:
			// This replica can't meet the bound; try the primary next (it
			// is never stale).
			lastErr = fmt.Errorf("%s: %s", addr, msg)
			if primary != "" && addr != primary {
				if rs, rerr := c.readFrom(primary, ops, st); rerr == nil {
					return rs, nil
				}
			}
			c.backoff(attempt)
		case server.StatusNotPrimary:
			// Read-only batches never redirect; a replica said this because
			// the batch carries writes. Surface it.
			return nil, fmt.Errorf("repl: read batch redirected: %s", msg)
		case server.StatusShutdown:
			lastErr = fmt.Errorf("%s: %s", addr, msg)
			c.drop(addr, cl)
			c.backoff(attempt)
		default:
			return nil, fmt.Errorf("repl: read status %d: %s", status, msg)
		}
	}
}

// readFrom executes one bounded read against a specific node.
func (c *Cluster) readFrom(addr string, ops []kv.Op, st *server.Staleness) ([]kv.Result, error) {
	cl, err := c.conn(addr)
	if err != nil {
		return nil, err
	}
	results, vec, status, msg, err := cl.DoVec(ops, st)
	if err != nil {
		c.drop(addr, cl)
		return nil, err
	}
	if status != server.StatusOKVec {
		return nil, fmt.Errorf("%s: status %d: %s", addr, status, msg)
	}
	c.mergeToken(vec)
	return results, nil
}

// pickPrimary chooses where to send a write: the believed primary, or
// a rotating probe when unknown.
func (c *Cluster) pickPrimary(attempt int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.primary != "" {
		return c.primary
	}
	return c.cfg.Addrs[attempt%len(c.cfg.Addrs)]
}

// pickReplica chooses where to send a read: prefer non-primary nodes
// (that is the point of replicas), rotating round-robin.
func (c *Cluster) pickReplica(primary string, attempt int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.cfg.Addrs) == 1 {
		return c.cfg.Addrs[0]
	}
	for i := 0; i < len(c.cfg.Addrs); i++ {
		addr := c.cfg.Addrs[c.rr%len(c.cfg.Addrs)]
		c.rr++
		if addr != primary {
			return addr
		}
	}
	return c.cfg.Addrs[attempt%len(c.cfg.Addrs)]
}

// notPrimary records that addr is not the primary (with an optional
// hint at who is).
func (c *Cluster) notPrimary(addr, hint string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.primary == addr {
		c.primary = ""
	}
	if hint != "" {
		c.primary = hint
	}
}

// backoff sleeps briefly between retries, growing with the attempt.
func (c *Cluster) backoff(attempt int) {
	d := time.Duration(attempt+1) * 10 * time.Millisecond
	if d > 200*time.Millisecond {
		d = 200 * time.Millisecond
	}
	time.Sleep(d)
}
