package fault

// Partitions is the network fault plane's peer-addressed layer: a
// runtime-mutable table of blackholed peers enforced on the DIALING
// side of every replication connection. Blocking is per direction —
// "in" drops everything the peer sends us, "out" drops everything we
// send it — so both symmetric partitions and the nastier asymmetric
// ones (we hear the primary but it never hears our acks) are one call.
//
// Enforcement is per Read/Write, not per dial: installing a partition
// mid-flight immediately affects long-lived subscription streams.
// Swallowed writes report full success (the bytes vanish, exactly like
// a blackholed packet); blocked reads discard whatever arrives until
// the connection's own deadline fires, so lease timeouts behave as
// they would under a real partition.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nztm/internal/metrics"
)

// ErrPartitioned is returned by Dial for a blackholed peer.
var ErrPartitioned = errors.New("fault: peer is partitioned away")

// PartitionStats counts the plane's interventions. Every field is
// exported by reflection into /metricsz (metrics.WriteFields).
type PartitionStats struct {
	BlockedDials    atomic.Uint64 // dials refused to partitioned peers
	SwallowedWrites atomic.Uint64 // writes blackholed on live connections
	DiscardedReads  atomic.Uint64 // inbound reads discarded on live connections
	Blocks          atomic.Uint64 // Block operations applied
	Heals           atomic.Uint64 // Heal operations applied
}

// Partitions is one node's partition table. The zero value is unusable;
// use NewPartitions.
type Partitions struct {
	mu  sync.Mutex
	in  map[string]struct{} // peers whose inbound traffic we drop
	out map[string]struct{} // peers our outbound traffic never reaches

	stats PartitionStats
}

// NewPartitions builds an empty (fully connected) table.
func NewPartitions() *Partitions {
	return &Partitions{in: make(map[string]struct{}), out: make(map[string]struct{})}
}

// Block blackholes traffic with peer in the given directions: "in",
// "out", or "both".
func (p *Partitions) Block(peer, dir string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch dir {
	case "in":
		p.in[peer] = struct{}{}
	case "out":
		p.out[peer] = struct{}{}
	case "both", "":
		p.in[peer] = struct{}{}
		p.out[peer] = struct{}{}
	default:
		return fmt.Errorf("fault: unknown partition direction %q (have in, out, both)", dir)
	}
	p.stats.Blocks.Add(1)
	return nil
}

// Heal removes every block involving peer.
func (p *Partitions) Heal(peer string) {
	p.mu.Lock()
	delete(p.in, peer)
	delete(p.out, peer)
	p.stats.Heals.Add(1)
	p.mu.Unlock()
}

// HealAll restores full connectivity.
func (p *Partitions) HealAll() {
	p.mu.Lock()
	p.in = make(map[string]struct{})
	p.out = make(map[string]struct{})
	p.stats.Heals.Add(1)
	p.mu.Unlock()
}

// Active returns the number of blocked (peer, direction) pairs.
func (p *Partitions) Active() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.in) + len(p.out)
}

// Stats returns the plane's counters.
func (p *Partitions) Stats() *PartitionStats { return &p.stats }

func (p *Partitions) inBlocked(peer string) bool {
	p.mu.Lock()
	_, ok := p.in[peer]
	p.mu.Unlock()
	return ok
}

func (p *Partitions) outBlocked(peer string) bool {
	p.mu.Lock()
	_, ok := p.out[peer]
	p.mu.Unlock()
	return ok
}

// Dial is a repl.Config.Dial implementation: dials peer unless a block
// in either direction would keep the TCP handshake from completing.
func (p *Partitions) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	if p.inBlocked(addr) || p.outBlocked(addr) {
		p.stats.BlockedDials.Add(1)
		// A real partitioned dial hangs until timeout; a short sleep keeps
		// retry loops honest without wasting the full window.
		wait := timeout
		if wait > 50*time.Millisecond {
			wait = 50 * time.Millisecond
		}
		time.Sleep(wait)
		return nil, &net.OpError{Op: "dial", Net: network, Err: ErrPartitioned}
	}
	c, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return &partConn{Conn: c, p: p, peer: addr}, nil
}

// partConn enforces the table on a live connection.
type partConn struct {
	net.Conn
	p    *Partitions
	peer string
}

// Read implements net.Conn. While inbound traffic from the peer is
// blocked, arriving bytes are discarded and the read only returns when
// the connection's deadline fires (or the peer closes) — the caller
// experiences pure silence, as under a real partition.
func (c *partConn) Read(b []byte) (int, error) {
	for {
		n, err := c.Conn.Read(b)
		if !c.p.inBlocked(c.peer) {
			return n, err
		}
		if n > 0 {
			c.p.stats.DiscardedReads.Add(1)
		}
		if err != nil {
			return 0, err
		}
	}
}

// Write implements net.Conn. Blocked writes vanish with full success:
// the peer simply never receives them.
func (c *partConn) Write(b []byte) (int, error) {
	if c.p.outBlocked(c.peer) {
		c.p.stats.SwallowedWrites.Add(1)
		return len(b), nil
	}
	return c.Conn.Write(b)
}

// WriteProm exports the active-partition gauge and every PartitionStats
// field (metrics.WriteFields) as Prometheus families.
func (p *Partitions) WriteProm(w io.Writer) {
	metrics.GaugeFam(w, "nztm_partition_active", "blocked peer-direction pairs", float64(p.Active()))
	metrics.WriteFields(w, "nztm_partition", "counter", &p.stats)
}
