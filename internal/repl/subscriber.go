package repl

// Follower side of the replication stream: subscribe to the primary
// with the (LSN, epoch) pair of every shard, apply its frames through the
// same transactional path recovery uses, install bootstrap and re-seed
// snapshots, track staleness from the messages' stamps, ack each stamp
// with the applied vector, and fence any stale-epoch sender.

import (
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
	req := &Message{Type: MsgSubscribe, Epoch: epoch, NodeID: uint16(n.cfg.NodeID), KVAddr: n.cfg.KVAddr}
	if !reseeding {
		// Mid-re-seed the chain is gone and the shards mix old state with
		// new snapshots: offer no pairs, and the primary re-seeds again.
		req.Vector, req.Epochs = lsns, epochs
	}
	if err := writeMsg(bw, req); err != nil {
		return err
	}

	var snap, frames []byte        // the snapshot container, and the frame containers, whose chunks are arriving
	reseeded := make(map[int]bool) // shards this session's re-seed installed
	placed := false                // the stream put our state on the primary's history: acks carry the applied vector
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

		switch {
		case m.Type == MsgReject && m.Code == RejectNotPrimary:
			n.mu.Lock()
			n.adoptEpochLocked(m.Epoch, m.KVAddr, m.ReplAddr)
			if m.ReplAddr == "" && n.primaryRpl == addr {
				// It doesn't know the primary either; forget it and elect.
				n.primaryKV, n.primaryRpl = "", ""
			}
			n.mu.Unlock()
			return fmt.Errorf("repl: %s is not the primary (hint %q)", addr, m.ReplAddr)
		case m.Type == MsgReject:
			return fmt.Errorf("repl: rejected by %s: code=%d %s", addr, m.Code, m.Text)
		case m.Type != MsgAppend:
			return fmt.Errorf("repl: unexpected message type %d on follower stream", m.Type)
		}
		arrived := time.Now()
		applied := 0 // frames this message completed

		switch {
		case m.Snapshot:
			snap = append(snap, m.Data...)
			if !m.Last {
				break
			}
			container := snap
			snap = nil
			if m.Reseed && len(reseeded) == 0 {
				if err := n.beginReseed(); err != nil {
					return err
				}
			}
			sh, lsn, err := n.store.LoadShardSnapshot(n.applyTh, container, m.Reseed)
			if err != nil {
				return fmt.Errorf("repl: install snapshot: %w", err)
			}
			n.stats.SnapshotsLoaded.Add(1)
			n.cfg.Logf("repl: node %d: installed snapshot shard=%d lsn=%d bytes=%d reseed=%v",
				n.cfg.NodeID, sh, lsn, len(container), m.Reseed)
			if m.Reseed {
				reseeded[sh] = true
				if len(reseeded) == len(lsns) {
					n.endReseed()
					placed = true
				}
			}
		case len(m.Data) == 0:
			n.stats.Heartbeats.Add(1)
		default:
			// Apply every frame the chunks so far complete; a frame's tail
			// may still be on its way.
			frames = append(frames, m.Data...)
			for len(frames) > 0 {
				f, size, err := wal.DecodeFrame(frames)
				if errors.Is(err, wal.ErrTorn) {
					break
				}
				if err != nil {
					return fmt.Errorf("repl: decode shipped frame: %w", err)
				}
				if err := n.store.ApplyFrame(n.applyTh, f); err != nil {
					// A gap means we lost the stream's order (the sender's
					// readiness rule prevents it); the next subscribe places
					// our log afresh.
					return fmt.Errorf("repl: apply shipped frame: %w", err)
				}
				frames = frames[size:]
				applied++
			}
			n.stats.FramesApplied.Add(uint64(applied))
		}

		// A message that is no snapshot chunk tells us our pairs were on
		// the primary's log, and that every shard it had to replace is in
		// (streamTo sends re-seeds and catch-up snapshots first): our state
		// is a prefix of its history. Each stamp's stable vector was read
		// as it was sent, so once it is applied our state is fresh as of
		// the stamp's arrival; frames are applied only as a stamp arrives.
		vec := n.store.AppliedVector()
		total, stableTotal := sumVec(vec), sumVec(m.Vector)
		if applied > 0 {
			n.rec.Record(tm.Monotime(), trace.KindReplFrames, uint64(n.cfg.NodeID), uint64(applied), total)
		}
		n.mu.Lock()
		n.stampAt = arrived
		if !m.Snapshot && !n.reseeding {
			placed, n.matched = true, true
		}
		if placed && total >= stableTotal {
			n.freshAsOf = arrived
		}
		n.updateLagLocked(total, stableTotal)
		n.broadcastLocked()
		n.mu.Unlock()
		if !placed {
			vec = nil // the ack renews the lease and counts for no commit
		}
		if err := writeMsg(bw, &Message{Type: MsgAck, Epoch: epoch, Stamp: m.Stamp, Vector: vec}); err != nil {
			return err
		}
		n.stats.AcksSent.Add(1)
	}
}

// updateLagLocked refreshes the follower's exported lag gauges from its
// applied total and the newest stamp's stable total. Callers hold n.mu.
func (n *Node) updateLagLocked(appliedTotal, stableTotal uint64) {
	var frames uint64
	if stableTotal > appliedTotal {
		frames = stableTotal - appliedTotal
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
