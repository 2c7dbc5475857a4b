package repl

// Lease-based election. Every node boots as a follower that knows no
// primary, and so does a follower whose primary lease lapses (stream
// broken, no heartbeat for LeaseTimeout); either polls every peer, and
// this is the only road to primary. It promotes
// itself only when (a) at least quorum peers answer, so that with this
// node they form a majority, (b) no answering peer sees a live primary
// at an epoch ≥ ours, and (c) no answering peer has applied more
// history (ties break toward the lower node id). The primary ships one
// merged order and acknowledged a write only after quorum followers
// applied it; that majority meets the election's, so the most-caught-up
// answering node provably holds every acknowledged write, and rule (c)
// is exactly "no acked write lost". The epoch bump on promotion fences
// the old primary. A node that led and has not resynced since stands
// with its whole log while no epoch later than the one it led at is
// known: its tail is then the newest history, not a diverged one
// (divergedLocked).

import (
	"slices"
	"sync"
	"time"

	"nztm/internal/server"
)

// runElection polls the cluster once and promotes this node if it
// should lead. Safe to call repeatedly; a lost election just returns
// and followOnce retries after its backoff.
func (n *Node) runElection() {
	n.stats.Elections.Add(1)
	n.mu.Lock()
	epoch := n.epoch
	n.mu.Unlock()

	resps := n.pollPeers(&Message{Type: MsgPoll, Epoch: epoch, NodeID: uint16(n.cfg.NodeID), Total: n.AppliedTotal()})
	maxEpoch := epoch
	liveKV, liveRpl := "", ""
	var livePrimaryEpoch uint64
	for _, m := range resps {
		if m.Epoch > maxEpoch {
			maxEpoch = m.Epoch
		}
		if m.PrimaryLive && m.Epoch >= epoch && m.Epoch >= livePrimaryEpoch {
			livePrimaryEpoch = m.Epoch
			liveKV, liveRpl = m.KVAddr, m.ReplAddr
		}
	}

	if liveRpl != "" && liveRpl != n.cfg.Advertise {
		// Someone still sees a primary: follow it instead of fighting it.
		n.mu.Lock()
		n.adoptEpochLocked(maxEpoch, liveKV, liveRpl)
		n.mu.Unlock()
		return
	}
	n.mu.Lock()
	n.adoptEpochLocked(maxEpoch, "", "")
	diverged := n.divergedLocked()
	n.mu.Unlock()

	if len(resps) < n.quorum {
		n.cfg.Logf("repl: node %d: election stalled: %d of %d peers answered, %d needed",
			n.cfg.NodeID, len(resps), len(n.cfg.Peers), n.quorum)
		return
	}
	if diverged {
		// A later epoch exists, so this node's tail may hold history nobody
		// else shares: it resyncs from whoever wins instead of standing.
		n.cfg.Logf("repl: node %d: election: standing aside (unresynced diverged tail)", n.cfg.NodeID)
		return
	}
	myTotal := n.AppliedTotal()
	for _, m := range resps {
		if m.Total > myTotal || (m.Total == myTotal && int(m.NodeID) < n.cfg.NodeID) {
			return // a better-positioned peer will promote itself
		}
	}
	n.promote(maxEpoch + 1)
}

// pollPeers sends poll to every peer at once and returns the answers
// that arrived, in peer order.
func (n *Node) pollPeers(poll *Message) []*Message {
	resps := make([]*Message, len(n.cfg.Peers))
	var wg sync.WaitGroup
	for i, addr := range n.cfg.Peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := n.pollPeer(addr, poll); err == nil {
				resps[i] = resp
			}
		}()
	}
	wg.Wait()
	return slices.DeleteFunc(resps, func(m *Message) bool { return m == nil })
}

// pollPeer sends one MsgPoll and reads the MsgPollResp.
func (n *Node) pollPeer(addr string, poll *Message) (*Message, error) {
	conn, err := n.cfg.Dial("tcp", addr, 500*time.Millisecond)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Second))
	bw := server.NewBufWriter(conn)
	if err := writeMsg(bw, poll); err != nil {
		return nil, err
	}
	m, _, err := readMsg(server.NewBufReader(conn), nil)
	if err != nil {
		return nil, err
	}
	if m.Type != MsgPollResp {
		return nil, errMsg
	}
	return m, nil
}
