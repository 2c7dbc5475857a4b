package repl

// Elections (DESIGN §13.3). A follower whose lease lapsed, or that
// booted, runs one; it is the only road to primary. Two rounds, both
// answered with MsgPollResp:
//
//   - The pre-vote poll (Ongaro's thesis, §9.6) changes nothing. The
//     candidate goes on only if quorum peers answer, none sees a live
//     primary, and quorum of them would grant it their vote.
//   - The vote (Raft, USENIX ATC 2014, §5.2 and §5.4.1). The candidate
//     durably moves to epoch e+1 with its own vote and asks for the
//     others' — unless the epoch moved since the pre-vote or it granted
//     another candidate its vote less than LeaseTimeout ago. A voter
//     grants one vote per epoch, persisted before it answers, and only
//     to a history — newest frame's epoch, then applied total — at
//     least as new as its own. Quorum grants promote the candidate, at
//     e+1 only.
//
// One vote per voter per epoch and intersecting majorities give at most
// one primary per epoch; the acking majority meets the voting one in a
// voter that granted only to a log as new as its own, so the winner
// holds every acked write. A node whose log has stopped never stands:
// it could commit nothing. Nor does a node whose re-seed is incomplete,
// which judges candidates by the history its re-seed file recorded: its
// log no longer proves the writes it acked, and it acks nothing until
// the re-seed is done.

import (
	"bufio"
	"slices"
	"sync"
	"time"

	"nztm/internal/server"
)

// runElection polls the cluster once and, when the pre-vote allows,
// stands for the next epoch. Safe to call repeatedly; a lost election
// just returns and followOnce retries after its backoff.
func (n *Node) runElection() {
	n.stats.Elections.Add(1)
	n.mu.Lock()
	epoch := n.epoch
	last, total := n.historyLocked()
	n.mu.Unlock()
	ask := &Message{Type: MsgPoll, Epoch: epoch, NodeID: uint16(n.cfg.NodeID), LastEpoch: last, Total: total}

	resps := n.pollPeers(ask)
	maxEpoch, prevotes := epoch, 0
	live, liveKV, liveRpl := false, "", ""
	var livePrimaryEpoch uint64
	for _, m := range resps {
		maxEpoch = max(maxEpoch, m.Epoch)
		if m.PrimaryLive && m.Epoch >= epoch && m.ReplAddr != n.cfg.Advertise {
			live = true
			if m.ReplAddr != "" && m.Epoch >= livePrimaryEpoch {
				livePrimaryEpoch = m.Epoch
				liveKV, liveRpl = m.KVAddr, m.ReplAddr
			}
		}
		if m.Granted {
			prevotes++
		}
	}
	if live {
		// Someone still sees a primary: follow it, when it is named,
		// instead of fighting it.
		n.mu.Lock()
		n.adoptEpochLocked(maxEpoch, liveKV, liveRpl)
		n.mu.Unlock()
		return
	}
	n.mu.Lock()
	n.adoptEpochLocked(maxEpoch, "", "")
	epoch = n.epoch
	reseeding := n.reseeding
	n.mu.Unlock()
	switch {
	case len(resps) < n.quorum:
		n.cfg.Logf("repl: node %d: election stalled: %d of %d peers answered, %d needed",
			n.cfg.NodeID, len(resps), len(n.cfg.Peers), n.quorum)
		return
	case reseeding:
		n.cfg.Logf("repl: node %d: election: standing aside (re-seed incomplete)", n.cfg.NodeID)
		return
	case prevotes < n.quorum:
		return // a majority holds a newer log: one of its members stands
	}

	e := n.stand(epoch)
	if e == 0 {
		return
	}
	ask.Type, ask.Epoch = MsgVote, e
	grants := 0
	maxEpoch = e
	for _, m := range n.pollPeers(ask) {
		maxEpoch = max(maxEpoch, m.Epoch)
		if m.Granted && m.Epoch == e {
			grants++
		}
	}
	if maxEpoch > e {
		n.mu.Lock()
		n.adoptEpochLocked(maxEpoch, "", "")
		n.mu.Unlock()
		return
	}
	if grants < n.quorum {
		n.cfg.Logf("repl: node %d: lost the vote at epoch %d: %d of %d grants", n.cfg.NodeID, e, grants, n.quorum)
		return
	}
	n.promote(e)
}

// stand moves this node from epoch from to the next with its own vote,
// persisted before any peer is asked, and returns that epoch. It returns
// 0 when the epoch moved since the pre-vote; when the vote could not be
// persisted (the log has stopped); within LeaseTimeout of
// granting its vote to another candidate, which gets that long to win
// and heartbeat (Raft's election timer, reset by a grant); and within
// LeaseTimeout of its newest stamp's arrival, however its stream ended,
// so that it never stands while a lease it renewed can hold.
func (n *Node) stand(from uint64) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.epoch != from || time.Since(n.grantedAt) < n.cfg.LeaseTimeout || time.Since(n.stampAt) < n.cfg.LeaseTimeout {
		return 0
	}
	e := n.epoch + 1
	if !n.persistEpoch(e, n.cfg.NodeID) {
		return 0
	}
	n.epoch, n.votedFor = e, n.cfg.NodeID
	n.stats.Epoch.Store(e)
	n.broadcastLocked()
	return e
}

// historyLocked returns the epoch of this node's newest frame and its
// applied total: the pair a vote compares. Epochs only grow along a
// shard's history, so the newest frame's epoch is the largest at any
// stable LSN. Mid-re-seed it is the pair the re-seed file recorded.
// Callers hold n.mu.
func (n *Node) historyLocked() (last, total uint64) {
	if n.reseeding {
		return n.reseedFrom[0], n.reseedFrom[1]
	}
	lsns, epochs := n.log.StableEpochs()
	for s, lsn := range lsns {
		total += lsn
		last = max(last, epochs[s])
	}
	return last, total
}

// handleElection answers a pre-vote poll or a vote request with this
// node's epoch, its grant, and whether a primary is live from here
// (itself, or a lease-fresh upstream). A poll changes nothing; a vote
// request adopts a newer epoch first (deposing this node if it leads)
// and records the grant before the answer leaves.
func (n *Node) handleElection(bw *bufio.Writer, m *Message) {
	n.mu.Lock()
	if m.Type == MsgVote {
		n.adoptEpochLocked(m.Epoch, "", "")
	}
	last, total := n.historyLocked()
	grant := m.LastEpoch > last || m.LastEpoch == last && m.Total >= total
	if m.Type == MsgVote && grant {
		cand := int(m.NodeID)
		switch {
		case m.Epoch != n.epoch || n.votedFor >= 0 && n.votedFor != cand:
			grant = false
		case n.votedFor < 0 && !n.persistEpoch(n.epoch, cand):
			grant = false
		case n.votedFor < 0:
			n.votedFor, n.grantedAt = cand, time.Now()
		}
	}
	resp := &Message{
		Type:        MsgPollResp,
		Epoch:       n.epoch,
		Granted:     grant,
		PrimaryLive: n.role == RolePrimary || time.Since(n.stampAt) < n.cfg.LeaseTimeout,
		KVAddr:      n.primaryKV,
		ReplAddr:    n.primaryRpl,
	}
	n.mu.Unlock()
	writeMsg(bw, resp)
}

// pollPeers sends ask to every peer at once and returns the answers
// that arrived, in peer order.
func (n *Node) pollPeers(ask *Message) []*Message {
	resps := make([]*Message, len(n.cfg.Peers))
	var wg sync.WaitGroup
	for i, addr := range n.cfg.Peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := n.pollPeer(addr, ask); err == nil {
				resps[i] = resp
			}
		}()
	}
	wg.Wait()
	return slices.DeleteFunc(resps, func(m *Message) bool { return m == nil })
}

// pollPeer sends one poll or vote request and reads the MsgPollResp.
func (n *Node) pollPeer(addr string, ask *Message) (*Message, error) {
	conn, err := n.cfg.Dial("tcp", addr, 500*time.Millisecond)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Second))
	bw := server.NewBufWriter(conn)
	if err := writeMsg(bw, ask); err != nil {
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
