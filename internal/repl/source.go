package repl

// Primary side of the replication stream: accept subscriptions and
// election polls and votes, place each subscriber's log on this node's
// own, ship durable WAL frames in the log's own file order, ship
// snapshots when the log has been truncated past a follower's position
// or the follower holds history this log does not, and fold follower
// acks into the commit gate.

import (
	"bufio"
	"errors"
	"io"
	"io/fs"
	"net"
	"time"

	"nztm/internal/metrics"
	"nztm/internal/server"
	"nztm/internal/tm"
	"nztm/internal/trace"
	"nztm/internal/wal"
)

// framesPerBatch caps the frames one MsgAppend carries, so a follower
// acks at least once per that many frames it applies.
const framesPerBatch = 64

// acceptLoop owns the replication listener.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.stop:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		n.wg.Add(1)
		go n.handleConn(conn)
	}
}

// handleConn dispatches one inbound replication connection on its first
// message: an election poll or vote (answer and close) or a subscription
// (serve the stream until it breaks or this node is deposed).
func (n *Node) handleConn(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	br := server.NewBufReader(conn)
	bw := server.NewBufWriter(conn)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, _, err := readMsg(br, nil)
	if err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})
	switch m.Type {
	case MsgPoll, MsgVote:
		n.handleElection(bw, m)
	case MsgSubscribe:
		n.handleSubscribe(conn, br, bw, m)
	}
}

// handleSubscribe serves one follower's stream on this goroutine and
// reads its acks on a second until either side breaks or this node
// stops being the primary at the stream's epoch.
func (n *Node) handleSubscribe(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, m *Message) {
	stale, reseed := n.place(m.Vector, m.Epochs, n.store.Shards())
	n.mu.Lock()
	// A subscriber advertising a higher epoch proves a newer primary was
	// elected: step down first, then redirect.
	n.adoptEpochLocked(m.Epoch, "", "")
	if n.role != RolePrimary {
		rej := &Message{
			Type: MsgReject, Epoch: n.epoch, Code: RejectNotPrimary,
			Text: "not primary", KVAddr: n.primaryKV, ReplAddr: n.primaryRpl,
		}
		n.mu.Unlock()
		writeMsg(bw, rej)
		return
	}
	epoch := n.epoch
	followerTotal := sumVec(m.Vector)
	sub := &subState{nodeID: int(m.NodeID), remote: conn.RemoteAddr().String()}
	if !reseed && len(stale) == 0 {
		// Its applied vector counts towards the commit gate from now on;
		// any other follower counts once it acks its snapshots.
		sub.ackedVec, sub.ackedTotal = append([]uint64(nil), m.Vector...), followerTotal
	}
	for old := range n.subs {
		if old.nodeID == sub.nodeID {
			// A follower counts once towards the quorum: its newest
			// stream stands for it.
			delete(n.subs, old)
		}
	}
	n.subs[sub] = struct{}{}
	n.broadcastLocked()
	n.mu.Unlock()

	n.stats.Subscribes.Add(1)
	n.rec.Record(tm.Monotime(), trace.KindReplSubscribe, uint64(m.NodeID), epoch, followerTotal)
	n.cfg.Logf("repl: node %d: follower %d subscribed (epoch=%d applied_total=%d)",
		n.cfg.NodeID, m.NodeID, epoch, followerTotal)

	n.wg.Add(1)
	go n.readAcks(conn, br, sub, epoch)

	err := n.streamTo(bw, sub, m, epoch, stale, reseed)
	conn.Close() // unblocks readAcks, which unregisters sub
	if err != nil && !errors.Is(err, net.ErrClosed) {
		n.cfg.Logf("repl: node %d: stream to follower %d ended: %v", n.cfg.NodeID, sub.nodeID, err)
	}
}

// readAcks consumes a follower's acks, folding them into the sub state
// the commit gate and the lease count. A message bearing a higher epoch
// deposes this primary. Exits (and unregisters the sub) when the conn
// dies.
func (n *Node) readAcks(conn net.Conn, br *bufio.Reader, sub *subState, epoch uint64) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.subs, sub)
		n.broadcastLocked()
		n.mu.Unlock()
	}()
	var buf []byte
	for {
		m, b, err := readMsg(br, buf)
		if err != nil {
			return
		}
		buf = b
		if m.Epoch > epoch {
			n.mu.Lock()
			n.adoptEpochLocked(m.Epoch, m.KVAddr, m.ReplAddr)
			n.mu.Unlock()
			return
		}
		if m.Epoch < epoch || m.Type != MsgAck {
			if m.Type == MsgReject {
				return
			}
			continue
		}
		n.stats.AcksReceived.Add(1)
		total, stableTotal := sumVec(m.Vector), sumVec(n.log.StableVector())
		now := trace.Now()
		n.mu.Lock()
		sub.ackedVec = append(sub.ackedVec[:0], m.Vector...)
		sub.ackedTotal = total
		if m.Stamp > sub.stamp && m.Stamp <= now {
			sub.stamp = m.Stamp
			h := n.ackLat[sub.nodeID]
			if h == nil {
				h = &metrics.Histogram{}
				n.ackLat[sub.nodeID] = h
			}
			h.ObserveValue(now - m.Stamp)
		}
		if total >= stableTotal {
			sub.behindSince = time.Time{}
		} else if sub.behindSince.IsZero() {
			sub.behindSince = time.Now()
		}
		n.broadcastLocked()
		n.mu.Unlock()
	}
}

// streamTo ships the log to one follower in file order, which the
// log's admission rule already made a valid replication order: every
// frame follows every earlier LSN of each of its shards, so every
// follower's state is a prefix of one shared history. Before anything
// else the follower's state is made such a prefix (see place): a
// follower with a pair off this log is re-seeded (every shard's
// snapshot, flagged), and one with pairs below what this log knows gets
// a catch-up snapshot of those shards. So the first message that is not
// a snapshot chunk tells the follower its state is on this history.
// Frames the follower's vector already covers are skipped, frames past
// the durable prefix wait, and a shard the log no longer reaches back
// far enough for is caught up with a bootstrap snapshot. Every message
// carries its send stamp and the stable vector read with it; one goes
// out empty when a heartbeat falls due with nothing else to send. A pass flushes once, when nothing more is ready. Returns when
// the connection breaks, the node stops, or this node is no longer the
// primary at epoch.
func (n *Node) streamTo(bw *bufio.Writer, sub *subState, m *Message, epoch uint64, stale []int, reseed bool) error {
	th := n.cfg.NewThread()
	defer th.Close()

	notify := make(chan struct{}, 1)
	n.log.NotifyStable(notify)
	defer n.log.StopNotify(notify)

	var enc []byte
	var inflight [2]uint64 // the stamps of the last two messages with data
	send := func(msg *Message) error {
		if len(msg.Data) > 0 {
			// A third waits for the first's ack: a stamp queues behind at
			// most one chunk, whatever the connection buffers.
			if err := n.awaitAck(bw, sub, inflight[0]); err != nil {
				return err
			}
		}
		// The vector is read with the stamp: a write committed through
		// other followers before this send is in it.
		msg.Type, msg.Epoch, msg.Stamp, msg.Vector = MsgAppend, epoch, trace.Now(), n.log.StableVector()
		if len(msg.Data) > 0 {
			inflight = [2]uint64{inflight[1], msg.Stamp}
		}
		var err error
		if enc, err = EncodeMessage(enc[:0], msg); err != nil {
			return err
		}
		return server.WriteFrame(bw, enc)
	}

	sent := make([]uint64, n.store.Shards())
	if reseed {
		n.stats.Resyncs.Add(1)
		n.cfg.Logf("repl: node %d: follower %d holds history off this log: re-seeding", n.cfg.NodeID, sub.nodeID)
		stale = make([]int, len(sent))
		for s := range stale {
			stale[s] = s
		}
	} else {
		copy(sent, m.Vector)
	}
	for _, s := range stale {
		lsn, err := n.shipSnapshot(send, th, s, reseed)
		if err != nil {
			return err
		}
		sent[s] = lsn
	}

	hb := time.NewTicker(n.cfg.HeartbeatEvery)
	defer hb.Stop()
	beat := true // the first pass sends at once, if only a heartbeat
	var reader *wal.StreamReader
	defer func() {
		if reader != nil {
			reader.Close()
		}
	}()
	var head wal.StreamEntry // Frame != nil: read, but past the durable prefix when last looked at
	var data []byte          // frame containers gathered for the next messages
	frames := 0
	ship := func() error {
		for off := 0; off < len(data) || beat; {
			chunk := data[off:min(len(data), off+chunkBytes)]
			if len(chunk) == 0 {
				n.stats.Heartbeats.Add(1)
			}
			if err := send(&Message{Data: chunk}); err != nil {
				return err
			}
			off, beat = off+len(chunk), false
		}
		if frames > 0 {
			n.stats.FramesShipped.Add(uint64(frames))
			n.stats.BytesShipped.Add(uint64(len(data)))
			n.rec.Record(tm.Monotime(), trace.KindReplFrames, 0, uint64(frames), sumVec(sent))
		}
		data, frames = data[:0], 0
		return nil
	}

	for {
		if n.Epoch() != epoch || n.Role() != RolePrimary {
			return errors.New("repl: deposed")
		}
		stable := n.log.StableVector()
		if reader == nil {
			reader = n.log.OpenStream(sent)
		}
		for {
			if head.Frame == nil {
				e, err := reader.Next()
				if errors.Is(err, io.EOF) || errors.Is(err, wal.ErrTorn) {
					break // the live tail: nothing more to read yet
				}
				if errors.Is(err, fs.ErrNotExist) {
					// Snapshot truncation deleted a segment under the reader.
					// Reopen from the resume point; whatever is gone for good
					// shows up below as a gap and is answered with a snapshot.
					reader.Close()
					reader = n.log.OpenStream(sent)
					continue
				}
				if err != nil {
					return err
				}
				head = e
			}
			vec := head.Frame.Shards
			if !coversSparse(stable, vec) {
				break // not durable yet: recovery could still drop it
			}
			// Ready when every shard in the vector is exactly one behind or
			// already covers it; a shard further behind needs a snapshot.
			fresh := false
			for _, sl := range vec {
				if sl.LSN > sent[sl.Shard]+1 {
					if err := ship(); err != nil {
						return err
					}
					lsn, err := n.shipSnapshot(send, th, sl.Shard, false)
					if err != nil {
						return err
					}
					sent[sl.Shard] = lsn // ≥ sl.LSN: the frame is durable, so the store holds it
				}
				fresh = fresh || sl.LSN == sent[sl.Shard]+1
			}
			if fresh {
				for _, sl := range vec {
					sent[sl.Shard] = max(sent[sl.Shard], sl.LSN)
				}
				data = append(data, head.Raw...) // Raw dies at the next read
				frames++
				if frames == framesPerBatch || len(data) >= chunkBytes {
					if err := ship(); err != nil {
						return err
					}
				}
			}
			head = wal.StreamEntry{}
		}
		if err := ship(); err != nil {
			return err
		}
		if head.Frame == nil {
			// Everything the log holds inside stable has been read, so a
			// shard still behind stable has no frames left on disk: its
			// history was truncated under a snapshot.
			for s := range sent {
				if sent[s] < stable[s] {
					lsn, err := n.shipSnapshot(send, th, s, false)
					if err != nil {
						return err
					}
					sent[s] = lsn
				}
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}

		select {
		case <-notify:
		case <-hb.C:
			beat = true
		case <-n.stop:
			return errors.New("repl: node closed")
		}
	}
}

// awaitAck returns once the follower of sub has acked the message
// stamped stamp (0: none), flushing the stream if it has to wait. It
// fails once the subscription has ended or the node stops.
func (n *Node) awaitAck(bw *bufio.Writer, sub *subState, stamp uint64) error {
	for {
		n.mu.Lock()
		_, live := n.subs[sub]
		acked, ch := sub.stamp >= stamp, n.waitCh
		n.mu.Unlock()
		if acked {
			return nil
		}
		if !live {
			return errors.New("repl: subscription ended")
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		select {
		case <-ch:
		case <-n.stop:
			return errors.New("repl: node closed")
		}
	}
}

// place compares a subscriber's per-shard (LSN, epoch) pairs with this
// node's log. One epoch has one primary, which wrote each (shard, LSN)
// at most once, so two logs that agree on the epoch at an LSN agree up
// to it. reseed reports a pair off the log: a tail this primary never
// saw, a different epoch's frame at the same LSN, or no pairs at all
// (a follower mid-re-seed offers none). The follower may then hold
// history this primary does not, in any shard. Otherwise stale lists
// the shards whose pair lies below the oldest LSN this log knows the
// epoch of (its snapshot, after a restart or an install). Such a shard
// can hold only frames of its own that this log lacks: a frame that
// also named a matched shard is on this log. A catch-up snapshot, taken
// at or above this log's base and so above the follower's position,
// replaces all of them.
func (n *Node) place(lsns, epochs []uint64, shards int) (stale []int, reseed bool) {
	if len(lsns) != shards || len(epochs) != shards {
		return nil, true
	}
	stable := n.log.StableVector()
	for s, lsn := range lsns {
		e, known := n.log.EpochAt(s, lsn)
		switch {
		case known && e == epochs[s]:
		case !known && lsn < stable[s]: // below the base: the log knows every LSN from it to its end
			stale = append(stale, s)
		default:
			return nil, true
		}
	}
	return stale, false
}

// shipSnapshot sends shard's snapshot container (wal.Log.SnapshotContainer,
// which waits until the cut is durable) in chunks through the stream's
// send and returns the cut LSN. reseed flags the chunks as one shard of
// a re-seed.
func (n *Node) shipSnapshot(send func(*Message) error, th *tm.Thread, shard int, reseed bool) (uint64, error) {
	lsn, keys, err := n.store.SnapshotShard(th, shard)
	if err != nil {
		return 0, err
	}
	container, err := n.log.SnapshotContainer(shard, lsn, keys)
	if err != nil {
		return 0, err
	}
	for rest := container; len(rest) > 0; {
		chunk := rest[:min(len(rest), chunkBytes)]
		rest = rest[len(chunk):]
		if err := send(&Message{Snapshot: true, Reseed: reseed, Last: len(rest) == 0, Data: chunk}); err != nil {
			return 0, err
		}
	}
	n.stats.SnapshotsShipped.Add(1)
	n.cfg.Logf("repl: node %d: shipped snapshot shard=%d lsn=%d keys=%d bytes=%d", n.cfg.NodeID, shard, lsn, len(keys), len(container))
	return lsn, nil
}
