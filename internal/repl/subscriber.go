package repl

// Follower side of the replication stream: subscribe to the primary
// with the (LSN, epoch) pair of every shard, apply its frames through the
// same transactional path recovery uses, install bootstrap and re-seed
// snapshots, track staleness from heartbeats, ack applied vectors
// upstream, and fence any stale-epoch sender.

import (
	"bufio"
	"errors"
	"fmt"
	"time"

	"nztm/internal/server"
	"nztm/internal/tm"
	"nztm/internal/trace"
	"nztm/internal/wal"
)

// subscribe runs one follower session against the primary at addr:
// fence the store, dial, announce the applied vector with the epoch at
// each LSN, then apply whatever arrives until the stream breaks, the
// lease lapses (no message for LeaseTimeout), or the epoch fences one
// side.
func (n *Node) subscribe(addr string) error {
	// A deposed primary may still run writes CheckRequest admitted
	// before the deposition, some committed in memory past its stable
	// vector. The fence refuses those that have not reached the store
	// and waits until the rest are in the log, so the pairs below
	// describe every value this store can serve.
	if err := n.store.Fence(n.stop); err != nil {
		return fmt.Errorf("repl: fence the store: %w", err)
	}
	conn, err := n.cfg.Dial("tcp", addr, 2*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	br := server.NewBufReader(conn)
	bw := server.NewBufWriter(conn)

	n.mu.Lock()
	epoch := n.epoch
	reseeding := n.reseeding
	n.mu.Unlock()
	lsns, epochs := n.log.StableEpochs()
	nShards := len(lsns)
	req := &Message{Type: MsgSubscribe, Epoch: epoch, NodeID: uint16(n.cfg.NodeID), KVAddr: n.cfg.KVAddr}
	if !reseeding {
		// Mid-re-seed the chain is gone and the shards mix old state with
		// new snapshots: offer no pairs, and the primary re-seeds again.
		req.Vector, req.Epochs = lsns, epochs
	}
	if err := writeMsg(bw, req); err != nil {
		return err
	}

	// Snapshots accumulate per shard until their Last chunk.
	type pendingSnap struct {
		lsn  uint64
		keys map[string][]byte
	}
	snaps := make(map[int]*pendingSnap)
	reseeded := make(map[int]bool) // shards this session's re-seed installed

	var hbStamp uint64 // the newest heartbeat's send stamp, echoed in every ack
	var buf []byte
	for {
		select {
		case <-n.stop:
			return errors.New("repl: node closed")
		default:
		}
		conn.SetReadDeadline(time.Now().Add(n.cfg.LeaseTimeout))
		m, b, err := readMsg(br, buf)
		if err != nil {
			return fmt.Errorf("repl: lease lapsed or stream broke: %w", err)
		}
		buf = b

		// Epoch discipline. A sender behind our epoch is a deposed
		// primary: refuse it loudly (the reject both proves the fencing
		// and tells it to step down). A sender ahead of us carries news of
		// a newer election: adopt.
		if m.Epoch < epoch {
			n.stats.FencingRejects.Add(1)
			n.rec.Record(tm.Monotime(), trace.KindReplReject, uint64(n.cfg.NodeID), m.Epoch, epoch)
			writeMsg(bw, &Message{
				Type: MsgReject, Epoch: epoch, Code: RejectStaleEpoch,
				Text: fmt.Sprintf("stale epoch %d < %d", m.Epoch, epoch),
			})
			return fmt.Errorf("repl: fenced a stale-epoch (%d < %d) sender", m.Epoch, epoch)
		}
		if m.Epoch > epoch {
			epoch = m.Epoch
			n.mu.Lock()
			n.adoptEpochLocked(m.Epoch, "", "")
			n.mu.Unlock()
		}

		switch m.Type {
		case MsgHeartbeat:
			n.stats.Heartbeats.Add(1)
			hbStamp = m.Stamp
			total := n.appliedTotalLocked()
			now := time.Now()
			n.mu.Lock()
			n.lastHBTotal = m.Total
			n.lastHBAt = now
			if m.KVAddr != "" {
				n.primaryKV = m.KVAddr
			}
			if total >= m.Total {
				n.freshAsOf = now
			}
			if !n.reseeding {
				// Re-seed snapshots precede a stream's first heartbeat, so a
				// heartbeat without one means our pairs were on the primary's
				// log: our state is a prefix of its history.
				n.matched = true
			}
			n.updateLagLocked(total)
			n.broadcastLocked()
			n.mu.Unlock()
			if err := n.sendAck(bw, epoch, hbStamp); err != nil {
				return err
			}

		case MsgSnapshot:
			sh := int(m.Shard)
			if sh < 0 || sh >= nShards {
				return fmt.Errorf("repl: snapshot for shard %d of %d", sh, nShards)
			}
			ps := snaps[sh]
			if ps == nil || ps.lsn != m.LSN {
				ps = &pendingSnap{lsn: m.LSN, keys: make(map[string][]byte)}
				snaps[sh] = ps
			}
			for k, v := range m.Keys {
				ps.keys[k] = v
			}
			if !m.Last {
				continue
			}
			delete(snaps, sh)
			if m.Reseed && len(reseeded) == 0 {
				if err := n.beginReseed(); err != nil {
					return err
				}
			}
			if err := n.store.LoadShardSnapshot(n.applyTh, sh, ps.lsn, m.LSNEpoch, ps.keys, m.Reseed); err != nil {
				return fmt.Errorf("repl: install snapshot shard %d: %w", sh, err)
			}
			n.stats.SnapshotsLoaded.Add(1)
			n.cfg.Logf("repl: node %d: installed snapshot shard=%d lsn=%d keys=%d reseed=%v",
				n.cfg.NodeID, sh, ps.lsn, len(ps.keys), m.Reseed)
			if m.Reseed {
				reseeded[sh] = true
				if len(reseeded) < nShards {
					continue // acked once whole: until then the log cannot prove the applied vector
				}
				n.endReseed()
			}
			n.mu.Lock()
			n.broadcastLocked()
			n.mu.Unlock()
			if err := n.sendAck(bw, epoch, hbStamp); err != nil {
				return err
			}

		case MsgFrames:
			appliedCount := 0
			for _, raw := range m.Frames {
				f, _, err := wal.DecodeFrame(raw)
				if err != nil {
					return fmt.Errorf("repl: decode shipped frame: %w", err)
				}
				if err := n.store.ApplyFrame(n.applyTh, f); err != nil {
					// A gap means we lost the stream's order (the sender's
					// readiness rule prevents it); the next subscribe places
					// our log afresh.
					return fmt.Errorf("repl: apply shipped frame: %w", err)
				}
				appliedCount++
			}
			n.stats.FramesApplied.Add(uint64(appliedCount))
			total := n.appliedTotalLocked()
			n.rec.Record(tm.Monotime(), trace.KindReplFrames, uint64(n.cfg.NodeID), uint64(appliedCount), total)
			n.mu.Lock()
			if total >= n.lastHBTotal && !n.lastHBAt.IsZero() {
				n.freshAsOf = n.lastHBAt
			}
			n.updateLagLocked(total)
			n.broadcastLocked()
			n.mu.Unlock()
			if err := n.sendAck(bw, epoch, hbStamp); err != nil {
				return err
			}

		case MsgReject:
			if m.Code == RejectNotPrimary {
				n.mu.Lock()
				n.adoptEpochLocked(m.Epoch, m.KVAddr, m.ReplAddr)
				if m.ReplAddr == "" && n.primaryRpl == addr {
					// It doesn't know the primary either; forget it and elect.
					n.primaryKV, n.primaryRpl = "", ""
				}
				n.mu.Unlock()
				return fmt.Errorf("repl: %s is not the primary (hint %q)", addr, m.ReplAddr)
			}
			return fmt.Errorf("repl: rejected by %s: code=%d %s", addr, m.Code, m.Text)

		default:
			return fmt.Errorf("repl: unexpected message type %d on follower stream", m.Type)
		}
	}
}

// sendAck reports the follower's applied vector upstream, echoing the
// send stamp of the newest heartbeat it has received (the primary's
// lease counts from it).
func (n *Node) sendAck(bw *bufio.Writer, epoch, hbStamp uint64) error {
	vec := n.store.AppliedVector()
	var total uint64
	for _, v := range vec {
		total += v
	}
	err := writeMsg(bw, &Message{Type: MsgAck, Epoch: epoch, Total: total, Stamp: hbStamp, Vector: vec})
	if err == nil {
		n.stats.AcksSent.Add(1)
	}
	return err
}

// updateLagLocked refreshes the follower's exported lag gauges from its
// applied total and the last heartbeat. Callers hold n.mu.
func (n *Node) updateLagLocked(appliedTotal uint64) {
	var frames uint64
	if n.lastHBTotal > appliedTotal {
		frames = n.lastHBTotal - appliedTotal
	}
	n.stats.LagFrames.Store(frames)
	if n.freshAsOf.IsZero() {
		return
	}
	ms := time.Since(n.freshAsOf).Milliseconds()
	if ms < 0 {
		ms = 0
	}
	n.stats.LagMs.Store(uint64(ms))
}
