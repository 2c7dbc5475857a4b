package mc

import "fmt"

// This file extends the NZSTM protocol model with visible read sharing, the
// configuration §3 actually checked: "each thread accessing up to three
// objects for either writing or reading using our read-sharing algorithm".
//
// A reader registers in the object's reader table, re-confirms the owner
// word, records the logical value it observed, and deregisters at the end
// of its transaction — never earlier: a registration is one bit per
// (transaction, object), not one per read, so a failed re-check keeps the
// bit an earlier read of the same object set. A writer must drive every registered active reader to
// an acknowledged abort before mutating data in place (or, in the NZ
// variant, inflate past an unresponsive one). The checked invariant is the
// read-sharing safety property this protocol exists for: a transaction that
// COMMITS having read an object must have observed that object's current
// logical value as of its commit — i.e. no writer changed the object out
// from under a still-active reader.

// Op is one scripted access.
type Op struct {
	Obj   int
	Write bool
}

// R and W build script entries.
func R(obj int) Op { return Op{Obj: obj} }

// W builds a write entry.
func W(obj int) Op { return Op{Obj: obj, Write: true} }

// RWConfig configures the read-sharing model.
type RWConfig struct {
	Variant Variant
	Scripts [][]Op
	Objects int
	Retries int
}

// Additional thread PCs for the reader path.
const (
	pcRRegister int8 = 20 + iota
	pcRRecheck
	pcRRead
)

type rwState struct {
	cfg  *RWConfig
	Objs []objState
	Txns []txState
	Thr  []thrState
	// Readers[obj] is a bitmask of txn ids registered on obj.
	Readers []uint32
	// Seen[txn*objects+obj] records the value the txn read (+1; 0 = none).
	Seen []int8
}

// Key implements State.
func (s *rwState) Key() string {
	b := appendKey(make([]byte, 0, 7*len(s.Objs)+2*len(s.Txns)+7*len(s.Thr)+4*len(s.Readers)+len(s.Seen)),
		s.Objs, s.Txns, s.Thr)
	for _, r := range s.Readers {
		b = append(b, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
	}
	for _, v := range s.Seen {
		b = append(b, byte(v))
	}
	return string(b)
}

// Clone implements State.
func (s *rwState) Clone() State {
	c := &rwState{cfg: s.cfg}
	c.Objs = append([]objState(nil), s.Objs...)
	c.Txns = append([]txState(nil), s.Txns...)
	c.Thr = append([]thrState(nil), s.Thr...)
	c.Readers = append([]uint32(nil), s.Readers...)
	c.Seen = append([]int8(nil), s.Seen...)
	return c
}

func (c *RWConfig) txID(tid int, attempt int8) int8 {
	return int8(tid*(c.Retries+1) + int(attempt))
}

func (s *rwState) me(tid int) int8 { return s.cfg.txID(tid, s.Thr[tid].Attempt) }
func (s *rwState) op(tid int) Op   { return s.cfg.Scripts[tid][s.Thr[tid].Idx] }

// logical returns an object's current logical value.
func (s *rwState) logical(oi int) int8 { return logicalValue(&s.Objs[oi], s.Txns) }

// RWModel builds the read-sharing model.
func RWModel(cfg RWConfig) Model {
	threads := len(cfg.Scripts)
	txns := threads * (cfg.Retries + 1)
	init := &rwState{cfg: &cfg}
	init.Objs, init.Thr = initState(cfg.Objects, threads)
	init.Txns = make([]txState, txns)
	init.Readers = make([]uint32, cfg.Objects)
	init.Seen = make([]int8, txns*cfg.Objects)

	return Model{
		Name:    fmt.Sprintf("nzstm-rw-v%d", cfg.Variant),
		Init:    init,
		Threads: threads,
		Enabled: func(st State, tid int) []Action { return rwEnabled(st.(*rwState), tid) },
		Invariant: func(st State) error {
			return rwInvariant(st.(*rwState))
		},
		Final: func(st State) bool {
			s := st.(*rwState)
			for i := range s.Thr {
				if s.Thr[i].PC != pcDone {
					return false
				}
			}
			return true
		},
	}
}

// releaseTxn clears a transaction's reader registrations (the finish step).
func (s *rwState) releaseTxn(tx int8) {
	for oi := range s.Readers {
		s.Readers[oi] &^= 1 << uint(tx)
	}
}

// activeReader returns a registered active (unacknowledged) reader of oi
// other than me, or -1.
func (s *rwState) activeReader(oi int, me int8) int8 {
	for t := 0; t < len(s.Txns); t++ {
		if int8(t) == me || s.Readers[oi]&(1<<uint(t)) == 0 {
			continue
		}
		if s.Txns[t].Status == stActive {
			return int8(t)
		}
	}
	return -1
}

// inflateObserve is inflate's observe step in the read-sharing model: an
// inflater that clones the in-place data does so registered as a reader.
func (s *rwState) inflateObserve(tid, oi int, owner, enemy int8) {
	if inflateObserve(&s.Objs[oi], &s.Thr[tid], owner, enemy) {
		s.Readers[oi] |= 1 << uint(s.me(tid))
	}
}

func rwAct(name string, f func(s *rwState)) Action {
	return Action{Name: name, Next: func(st State) State {
		s := st.(*rwState)
		f(s)
		return s
	}}
}

func rwEnabled(s *rwState, tid int) []Action {
	th := &s.Thr[tid]
	if th.PC == pcDone {
		return nil
	}
	cfg := s.cfg
	me := s.me(tid)
	myTx := &s.Txns[me]
	var oi int
	var isWrite bool
	if int(th.Idx) < len(cfg.Scripts[tid]) {
		oi = s.op(tid).Obj
		isWrite = s.op(tid).Write
	}

	retryActs := func() []Action {
		return []Action{rwAct("retry", func(s *rwState) {
			th := &s.Thr[tid]
			s.releaseTxn(s.me(tid))
			if int(th.Attempt) >= s.cfg.Retries {
				th.Failed = true
				th.PC = pcDone
				return
			}
			th.Attempt++
			th.Idx = 0
			th.Adopted, th.Bak = false, 0
			th.PC = pcObserve
		})}
	}

	switch th.PC {
	case pcRetry:
		return retryActs()

	case pcObserve:
		return []Action{rwAct("observe", func(s *rwState) {
			o := &s.Objs[oi]
			s.Thr[tid].Obs = o.Owner
			s.Thr[tid].ObsInfl = o.Inflated
			s.Thr[tid].PC = pcDecide
		})}

	case pcDecide:
		if !isWrite {
			return rwReaderDecide(s, tid, oi)
		}
		return rwWriterDecide(s, tid, oi)

	// ---- reader path ----
	case pcRRegister:
		return []Action{rwAct("r-register", func(s *rwState) {
			s.Readers[oi] |= 1 << uint(s.me(tid))
			s.Thr[tid].PC = pcRRecheck
		})}

	case pcRRecheck:
		obs, obsInfl := th.Obs, th.ObsInfl
		return []Action{rwAct("r-recheck", func(s *rwState) {
			o := &s.Objs[oi]
			if o.Owner != obs || o.Inflated != obsInfl {
				s.Thr[tid].PC = pcObserve // a writer slipped in; stay registered
				return
			}
			s.Thr[tid].PC = pcRRead
		})}

	case pcRRead:
		if myTx.ANP || myTx.Status != stActive {
			return []Action{rwAct("r-validate-ack", func(s *rwState) {
				s.Txns[me].Status = stAborted
				s.Thr[tid].PC = pcRetry
			})}
		}
		return []Action{rwAct("r-read", func(s *rwState) {
			th := &s.Thr[tid]
			s.Seen[int(me)*s.cfg.Objects+oi] = s.logical(oi) + 1
			th.Idx++
			if int(th.Idx) < len(s.cfg.Scripts[tid]) {
				th.PC = pcObserve
			} else {
				th.PC = pcCommit
			}
		})}

	// ---- writer path (after pcDecide) ----
	case pcTryCAS:
		obs, obsInfl := th.Obs, th.ObsInfl
		return []Action{rwAct("cas-owner", func(s *rwState) {
			o := &s.Objs[oi]
			th := &s.Thr[tid]
			if o.Owner != obs || o.Inflated != obsInfl {
				th.PC = pcObserve
				return
			}
			claim(o, s.Txns, th, me)
			if th.Adopted {
				th.PC = pcRestore
			} else {
				th.PC = pcBackup
			}
		})}

	case pcBackup:
		return []Action{rwAct("backup", func(s *rwState) {
			s.Thr[tid].Bak = s.Objs[oi].Val
			s.Thr[tid].PC = pcReady
		})}

	case pcReady:
		return []Action{rwAct("ready", func(s *rwState) {
			publishReady(&s.Objs[oi], &s.Thr[tid], me)
			s.Thr[tid].PC = pcRestore
		})}

	case pcRestore:
		// Post-CAS reader resolution comes first: every registered active
		// reader must acknowledge (or, in NZ, be inflated past) before data
		// is touched in place.
		if r := s.activeReader(oi, me); r >= 0 {
			var acts []Action
			if !s.Txns[r].ANP {
				acts = append(acts, rwAct("w-request-reader-abort", func(s *rwState) {
					s.Txns[r].ANP = true
				}))
			} else if cfg.Variant == VariantNZ {
				acts = append(acts, rwAct("w-inflate-past-reader", func(s *rwState) {
					s.inflateObserve(tid, oi, me, r)
				}))
			}
			acts = append(acts, rwAct("w-cm-abort-self", func(s *rwState) {
				s.Txns[me].Status = stAborted
				s.Thr[tid].PC = pcRetry
			}))
			return acts // otherwise blocked until the reader acknowledges
		}
		return []Action{rwAct("restore", func(s *rwState) {
			th := &s.Thr[tid]
			if th.Adopted {
				s.Objs[oi].Val = th.Bak
				th.Adopted, th.Bak = false, 0
			}
			th.PC = pcValidate
		})}

	case pcInflateCAS:
		return []Action{rwAct("inflate-cas", func(s *rwState) {
			th := &s.Thr[tid]
			if !inflateCAS(&s.Objs[oi], th, me) {
				return
			}
			if isWrite {
				th.ViaLoc = true
				th.PC = pcValidate
			} else {
				th.PC = pcObserve // read via the locator path
			}
		})}

	case pcValidate:
		if myTx.ANP || myTx.Status != stActive {
			return []Action{rwAct("validate-ack", func(s *rwState) {
				s.Txns[me].Status = stAborted
				s.Thr[tid].PC = pcRetry
			})}
		}
		return []Action{rwAct("validate-ok", func(s *rwState) {
			s.Thr[tid].PC = pcWrite
		})}

	case pcDeflateCopy:
		return []Action{rwAct("deflate-copy", func(s *rwState) {
			s.Objs[oi].Val = s.Thr[tid].Bak
			s.Thr[tid].Bak = 0
			s.Thr[tid].PC = pcWrite
		})}

	case pcWrite:
		o := &s.Objs[oi]
		var acts []Action
		if th.ViaLoc && o.Inflated && o.Owner == me {
			// Writing through our Locator: every registered reader must be
			// doomed first — it may have read the in-place value before we
			// inflated (mirrors doomReaders in the implementation).
			for t := 0; t < len(s.Txns); t++ {
				t := t
				if int8(t) == me || s.Readers[oi]&(1<<uint(t)) == 0 {
					continue
				}
				if s.Txns[t].Status == stActive && !s.Txns[t].ANP {
					return []Action{
						rwAct("w-doom-reader", func(s *rwState) {
							s.Txns[t].ANP = true
						}),
						rwAct("w-cm-abort-self", func(s *rwState) {
							s.Txns[me].Status = stAborted
							s.Thr[tid].PC = pcRetry
						}),
					}
				}
			}
		}
		if o.Inflated && o.Owner == me && !o.LocDirty &&
			o.LocAborted >= 0 && s.Txns[o.LocAborted].Status == stAborted &&
			s.activeReader(oi, me) < 0 {
			acts = append(acts, rwAct("deflate", func(s *rwState) {
				deflateCAS(&s.Objs[oi], &s.Thr[tid])
			}))
		}
		acts = append(acts, rwAct("write", func(s *rwState) {
			o := &s.Objs[oi]
			th := &s.Thr[tid]
			switch {
			case th.ViaLoc && o.Inflated && o.Owner == me:
				o.LocNew++
				o.LocDirty = true
			case th.ViaLoc:
				// displaced: private copy, no shared effect
			default:
				o.Val++
			}
			finishOp(th, len(s.cfg.Scripts[tid]))
		}))
		return acts

	case pcCommit:
		return []Action{rwAct("commit", func(s *rwState) {
			tx := &s.Txns[me]
			th := &s.Thr[tid]
			if tx.Status == stActive && !tx.ANP {
				tx.Status = stCommitted
				s.releaseTxn(me)
				th.PC = pcDone
			} else {
				tx.Status = stAborted
				th.PC = pcRetry
			}
		})}
	}
	return nil
}

// rwReaderDecide handles pcDecide for a read access.
func rwReaderDecide(s *rwState, tid int, oi int) []Action {
	me := s.me(tid)
	th := &s.Thr[tid]
	if th.ObsInfl {
		// Inflated object: readers take the displaced value directly after
		// registering; model it by re-observing until a writer deflates or
		// by reading via the locator value.
		return []Action{rwAct("r-loc-read", func(s *rwState) {
			o := &s.Objs[oi]
			th := &s.Thr[tid]
			if !o.Inflated {
				th.PC = pcObserve
				return
			}
			lo := o.Owner
			me := s.me(tid)
			if lo >= 0 && lo != me && s.Txns[lo].Status == stActive && !s.Txns[lo].ANP {
				// active locator owner: wait (re-observe later)
				th.PC = pcObserve
				return
			}
			s.Readers[oi] |= 1 << uint(me)
			v := o.LocOld
			if lo == me || (lo >= 0 && s.Txns[lo].Status == stCommitted) {
				v = o.LocNew
			}
			s.Seen[int(s.me(tid))*s.cfg.Objects+oi] = v + 1
			th.Idx++
			if int(th.Idx) < len(s.cfg.Scripts[tid]) {
				th.PC = pcObserve
			} else {
				th.PC = pcCommit
			}
		})}
	}
	if th.Obs >= 0 && th.Obs != me && s.Txns[th.Obs].Status == stActive {
		enemy := th.Obs
		var acts []Action
		if !s.Txns[enemy].ANP {
			acts = append(acts, rwAct("r-request-abort", func(s *rwState) {
				s.Txns[enemy].ANP = true
			}))
		}
		acts = append(acts, rwAct("r-cm-abort-self", func(s *rwState) {
			s.Txns[me].Status = stAborted
			s.Thr[tid].PC = pcRetry
		}))
		if s.cfg.Variant == VariantNZ && s.Txns[enemy].ANP {
			// A blocked reader may inflate past an unresponsive owner too.
			acts = append(acts, rwAct("r-inflate", func(s *rwState) {
				s.inflateObserve(tid, oi, enemy, enemy)
			}))
		}
		return acts // blocked until the owner acknowledges
	}
	return []Action{rwAct("r-go-register", func(s *rwState) {
		s.Thr[tid].PC = pcRRegister
	})}
}

// rwWriterDecide handles pcDecide for a write access.
func rwWriterDecide(s *rwState, tid int, oi int) []Action {
	me := s.me(tid)
	th := &s.Thr[tid]
	cfg := s.cfg
	if th.ObsInfl {
		return []Action{rwAct("w-loc-replace", func(s *rwState) {
			o := &s.Objs[oi]
			th := &s.Thr[tid]
			if !o.Inflated {
				th.PC = pcObserve
				return
			}
			lo := o.Owner
			if lo >= 0 && lo != me && s.Txns[lo].Status == stActive && !s.Txns[lo].ANP {
				s.Txns[lo].ANP = true // DSTM semantics: doom, no ack needed
				th.PC = pcObserve
				return
			}
			if lo == me {
				th.ViaLoc = true
				th.PC = pcValidate
				return
			}
			cur := o.LocOld
			if lo >= 0 && s.Txns[lo].Status == stCommitted {
				cur = o.LocNew
			}
			// Doom registered readers (no ack needed: displaced copies).
			for t := 0; t < len(s.Txns); t++ {
				if int8(t) != me && s.Readers[oi]&(1<<uint(t)) != 0 &&
					s.Txns[t].Status == stActive {
					s.Txns[t].ANP = true
				}
			}
			o.Owner = me
			o.LocOld, o.LocNew = cur, cur
			o.LocDirty = false
			th.ViaLoc = true
			th.PC = pcValidate
		})}
	}
	if th.Obs >= 0 && th.Obs != me && s.Txns[th.Obs].Status == stActive {
		enemy := th.Obs
		var acts []Action
		if cfg.Variant == VariantBuggy {
			acts = append(acts, rwAct("force-abort", func(s *rwState) {
				s.Txns[enemy].Status = stAborted
				s.Thr[tid].PC = pcTryCAS
			}))
			return acts
		}
		if !s.Txns[enemy].ANP {
			acts = append(acts, rwAct("request-abort", func(s *rwState) {
				s.Txns[enemy].ANP = true
			}))
		}
		acts = append(acts, rwAct("cm-abort-self", func(s *rwState) {
			s.Txns[me].Status = stAborted
			s.Thr[tid].PC = pcRetry
		}))
		if cfg.Variant == VariantNZ && s.Txns[enemy].ANP {
			acts = append(acts, rwAct("inflate-observe", func(s *rwState) {
				s.inflateObserve(tid, oi, enemy, enemy)
			}))
		}
		return acts
	}
	return []Action{rwAct("goto-cas", func(s *rwState) {
		s.Thr[tid].PC = pcTryCAS
	})}
}

// rwInvariant checks the read-sharing safety property plus the terminal
// conservation check.
func rwInvariant(s *rwState) error {
	for i := range s.Txns {
		t := &s.Txns[i]
		if t.Status == stCommitted && t.ANP {
			return fmt.Errorf("txn %d committed with AbortNowPlease set", i)
		}
	}
	// Read-sharing safety, checked continuously: every object an active,
	// un-doomed transaction has read must still hold the value it saw — a
	// writer may change it only after dooming the reader, so the reader can
	// never commit a stale view. The check keys on what the transaction
	// read, not on whether it is still registered: a reader that lost its
	// registration while still active is exactly what a writer's reader
	// scan cannot see.
	for tid := range s.Thr {
		me := s.me(tid)
		tx := &s.Txns[me]
		if tx.Status != stActive || tx.ANP {
			continue
		}
		for oi := 0; oi < s.cfg.Objects; oi++ {
			seen := s.Seen[int(me)*s.cfg.Objects+oi]
			if seen == 0 {
				continue // not read
			}
			if s.logical(oi) != seen-1 {
				return fmt.Errorf("active un-doomed reader txn %d saw object %d as %d but logical value is now %d",
					me, oi, seen-1, s.logical(oi))
			}
		}
	}
	// Terminal conservation of increments.
	for i := range s.Thr {
		if s.Thr[i].PC != pcDone {
			return nil
		}
	}
	expect := make([]int8, s.cfg.Objects)
	for tid, script := range s.cfg.Scripts {
		committed := false
		for a := 0; a <= s.cfg.Retries; a++ {
			if s.Txns[s.cfg.txID(tid, int8(a))].Status == stCommitted {
				committed = true
			}
		}
		if committed {
			for _, op := range script {
				if op.Write {
					expect[op.Obj]++
				}
			}
		}
	}
	for oi := 0; oi < s.cfg.Objects; oi++ {
		if s.logical(oi) != expect[oi] {
			return fmt.Errorf("object %d: logical value %d, want %d committed increments",
				oi, s.logical(oi), expect[oi])
		}
	}
	return nil
}
