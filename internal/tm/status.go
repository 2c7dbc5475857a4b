package tm

import "sync/atomic"

// TxState is a transaction's lifecycle state.
type TxState uint32

// Transaction states, as in Figure 1 of the paper.
const (
	Active TxState = iota
	Committed
	Aborted
)

// String implements fmt.Stringer.
func (s TxState) String() string {
	switch s {
	case Active:
		return "Active"
	case Committed:
		return "Committed"
	case Aborted:
		return "Aborted"
	}
	return "Invalid"
}

// StatusWord layout: the two state bits and the AbortNowPlease flag of the
// paper's Figure 1.
const (
	stateMask = 0b11
	anpBit    = 1 << 2 // AbortNowPlease flag, packed with the state
)

// StatusWord packs a transaction's {Active, Committed, Aborted} state with
// its AbortNowPlease flag in one word so both can be inspected and updated
// with a single Compare&Swap, exactly as the paper's Transaction descriptor
// does (§2.1, Figure 1). Each attempt gets a fresh descriptor (§3), so once
// the state is terminal it stays terminal: a stale pointer to the descriptor
// always denotes that one finished attempt.
type StatusWord struct {
	w atomic.Uint32
}

// Load returns the current state and AbortNowPlease flag.
func (s *StatusWord) Load() (TxState, bool) {
	v := s.w.Load()
	return TxState(v & stateMask), v&anpBit != 0
}

// State returns just the lifecycle state.
func (s *StatusWord) State() TxState {
	st, _ := s.Load()
	return st
}

// AbortRequested reports whether AbortNowPlease is set.
func (s *StatusWord) AbortRequested() bool {
	_, anp := s.Load()
	return anp
}

// RequestAbort atomically sets AbortNowPlease if the transaction is still
// Active, returning the state observed. This is how one transaction
// "requests" (never forces) that another abort itself (§2.2).
func (s *StatusWord) RequestAbort() TxState {
	for {
		v := s.w.Load()
		st := TxState(v & stateMask)
		if st != Active || v&anpBit != 0 {
			return st
		}
		if s.w.CompareAndSwap(v, v|anpBit) {
			return Active
		}
	}
}

// TryCommit atomically moves Active→Committed, failing if AbortNowPlease has
// been set or the transaction is no longer active: the only word it can
// commit from is a clean Active one.
func (s *StatusWord) TryCommit() bool {
	return s.w.CompareAndSwap(uint32(Active), uint32(Committed))
}

// ForceAbort atomically aborts the transaction unless it has already
// committed, returning whether it is now aborted. This is the original DSTM
// abort: it is safe only for transactions whose speculative writes live in
// private copies (never in place) — NZSTM's in-place writers must instead be
// *asked* via RequestAbort and acknowledged.
func (s *StatusWord) ForceAbort() bool { return s.Acknowledge() }

// Acknowledge moves the transaction to Aborted, acknowledging any pending
// abort request; the requester's wait loop observes this (§2.2). It returns
// false if the transaction had already committed.
func (s *StatusWord) Acknowledge() bool {
	for {
		v := s.w.Load()
		switch TxState(v & stateMask) {
		case Committed:
			return false
		case Aborted:
			return true
		}
		if s.w.CompareAndSwap(v, uint32(Aborted)) {
			return true
		}
	}
}
