package mc

import (
	"fmt"
)

// This file models NZSTM (§2.2–2.3) with visible read sharing at the
// granularity of its atomic machine steps, for exhaustive checking: the
// configuration the paper's Promela model checked (§3), "each thread
// accessing up to three objects for either writing or reading using our
// read-sharing algorithm".
//
// Each thread runs one transaction over its script of reads and writes,
// increments each object it writes, and commits, retrying up to Retries
// times. The model exposes the protocol's critical races: the abort-request
// / acknowledgement handshake, lazy backup restoration, late writes by
// unresponsive zombies, inflation past them (owners and readers alike), and
// deflation afterwards.
//
// The Owner word carries its owner's backup, as in internal/core: the
// object's Bak and Ready fields belong to the plain owner word installed
// now, and every CAS that installs a word sets them with it. Acquisition
// follows acquireWrite: the CAS either adopts an aborted predecessor's ready
// backup or is followed by a copy of the in-place data and the step that
// marks it ready; then the reader scan, then the lazy restore of an adopted
// backup. Inflation observes its source, then CASes; deflation is one CAS
// that publishes owner and backup, followed by a separate in-place copy.
//
// A reader registers in the object's reader table, re-confirms the owner
// word, records the logical value it observed, and deregisters at the end
// of its transaction — never earlier: a registration is one bit per
// (transaction, object), not one per read, so a failed re-check keeps the
// bit an earlier read of the same object set. A writer must drive every
// registered active reader to an acknowledged abort before mutating data in
// place, and doom every one before writing through a Locator. DESIGN.md
// §10.5 maps each action to the code step it models.
//
// Four variants are checkable:
//
//   - VariantNZ — full NZSTM: unresponsive enemies are inflated past.
//   - VariantBZ — blocking: waiters may only wait for the ack (or give up).
//   - VariantBuggy — a deliberately broken design that force-aborts the
//     enemy without the request/acknowledge handshake, as a nonblocking STM
//     storing data in place might naively try. The checker must find the
//     lost-update this permits; this is the race that motivates the whole
//     NZSTM design (§2: "T2 cannot simply wait … it is not safe for T2 …
//     to update the object data in place, because T1 may still overwrite
//     the data").
//   - VariantSCSS — the same direct abort made safe by pairing every store
//     (and the backup copy) with a check of the writer's own status word
//     (§2.3.2).
type Variant int

// Model variants.
const (
	VariantNZ Variant = iota
	VariantBZ
	VariantBuggy
	// VariantSCSS models §2.3.2: conflicts are resolved by a direct abort
	// (like VariantBuggy — no acknowledgement handshake), but every store
	// is atomically paired with a check of the writer's own status, so a
	// displaced writer's "late write" can never land. The checker proves
	// this is exactly the difference between broken and correct: Buggy
	// fails, SCSS passes.
	VariantSCSS
)

// steals reports whether the variant aborts an enemy directly, without the
// request/acknowledge handshake.
func (v Variant) steals() bool { return v == VariantBuggy || v == VariantSCSS }

// Transaction status values in the model.
const (
	stActive uint8 = iota
	stCommitted
	stAborted
)

// Thread program counters.
const (
	pcObserve int8 = iota
	pcDecide
	pcTryCAS
	pcBackup
	pcReady
	pcRestore
	pcInflateCAS
	pcDeflateCopy
	pcValidate
	pcWrite
	pcCommit
	pcRetry
	pcDone
	pcRRegister
	pcRRecheck
	pcRRead
)

type objState struct {
	Owner      int8 // txn id; -1 = never owned
	Inflated   bool
	Val        int8 // in-place Data field
	Bak        int8 // the plain owner word's backup, valid when Ready
	Ready      bool
	LocOld     int8
	LocNew     int8
	LocDirty   bool
	LocAborted int8
}

type txState struct {
	Status uint8
	ANP    bool
}

type thrState struct {
	Attempt int8
	PC      int8
	Idx     int8 // position in the script
	Obs     int8 // observed owner at pcObserve (inflate: the word it CASes)
	ObsInfl bool
	ViaLoc  bool // current object was acquired via a Locator: writes go to
	// the (private) new-data copy, never to the in-place Data field
	Failed  bool
	Adopted bool // the word we installed adopted its predecessor's backup
	Bak     int8 // the backup of the word we installed (or are building)
	Src     int8 // inflate: the source value observed for the Locator
	Enemy   int8 // inflate: the unresponsive transaction stepped past
}

// Op is one scripted access.
type Op struct {
	Obj   int
	Write bool
}

// R builds a read entry.
func R(obj int) Op { return Op{Obj: obj} }

// W builds a write entry.
func W(obj int) Op { return Op{Obj: obj, Write: true} }

// String implements fmt.Stringer: "R0", "W1".
func (op Op) String() string {
	if op.Write {
		return fmt.Sprintf("W%d", op.Obj)
	}
	return fmt.Sprintf("R%d", op.Obj)
}

// Config describes a model instance.
type Config struct {
	Variant Variant
	Scripts [][]Op // Scripts[tid] = the accesses of thread tid, in order
	Objects int
	Retries int // attempts per thread = Retries+1
}

// instance is what every state of one model shares: its configuration, the
// thread renamings its key is canonical under, and the key's scratch.
type instance struct {
	Config
	sym         []perm
	local, a, b []byte
}

type state struct {
	in   *instance
	Objs []objState
	Txns []txState
	Thr  []thrState
	// Readers[obj] is a bitmask of txn ids registered on obj.
	Readers []uint32
	// Seen[txn*objects+obj] records the value the txn read (+1; 0 = none).
	Seen []int8
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// Clone implements State.
func (s *state) Clone() State {
	c := &state{in: s.in}
	c.Objs = append([]objState(nil), s.Objs...)
	c.Txns = append([]txState(nil), s.Txns...)
	c.Thr = append([]thrState(nil), s.Thr...)
	c.Readers = append([]uint32(nil), s.Readers...)
	c.Seen = append([]int8(nil), s.Seen...)
	return c
}

// txID maps (thread, attempt) to a transaction slot: a retried transaction
// is a fresh Transaction object, as in the implementation and the paper.
func (c *Config) txID(tid int, attempt int8) int8 {
	return int8(tid*(c.Retries+1) + int(attempt))
}

// me returns the thread's current transaction id.
func (s *state) me(tid int) int8 { return s.in.txID(tid, s.Thr[tid].Attempt) }

// op returns the access the thread is currently working on.
func (s *state) op(tid int) Op { return s.in.Scripts[tid][s.Thr[tid].Idx] }

// logical returns an object's current logical value.
func (s *state) logical(oi int) int8 { return logicalValue(&s.Objs[oi], s.Txns) }

// NZSTM builds the checkable model for the configuration. Its states are
// keyed canonically under renamings of threads with identical scripts.
func NZSTM(cfg Config) Model { return build(cfg, true) }

// build builds the model; without reduce, every state is its own key.
func build(cfg Config, reduce bool) Model {
	threads := len(cfg.Scripts)
	txns := threads * (cfg.Retries + 1)
	in := &instance{Config: cfg, sym: symmetries(cfg.Scripts, cfg.Retries)}
	if !reduce {
		in.sym = in.sym[:1] // the identity
	}
	init := &state{in: in}
	init.Objs = make([]objState, cfg.Objects)
	for i := range init.Objs {
		init.Objs[i] = objState{Owner: -1, LocAborted: -1}
	}
	init.Thr = make([]thrState, threads)
	for i := range init.Thr {
		init.Thr[i] = thrState{PC: pcObserve, Obs: -1, Enemy: -1}
	}
	init.Txns = make([]txState, txns)
	init.Readers = make([]uint32, cfg.Objects)
	init.Seen = make([]int8, txns*cfg.Objects)

	return Model{
		Name:      fmt.Sprintf("nzstm-v%d", cfg.Variant),
		Init:      init,
		Threads:   threads,
		Enabled:   func(st State, tid int) []Action { return steps(st.(*state), tid) },
		Invariant: func(st State) error { return check(st.(*state)) },
		Final: func(st State) bool {
			for _, th := range st.(*state).Thr {
				if th.PC != pcDone {
					return false
				}
			}
			return true
		},
	}
}

// act is a helper for building actions that mutate the cloned state.
func act(name string, f func(s *state)) Action {
	return Action{Name: name, Next: func(st State) State {
		s := st.(*state)
		f(s)
		return s
	}}
}

// logicalValue is an object's current logical value: its committed state.
// Under a plain owner word whose backup is ready that is the backup until
// the owner commits; before the backup is ready the owner has not written
// in place, so it is the in-place data.
func logicalValue(o *objState, txns []txState) int8 {
	switch {
	case o.Inflated:
		if o.Owner >= 0 && txns[o.Owner].Status == stCommitted {
			return o.LocNew
		}
		return o.LocOld
	case o.Owner >= 0 && o.Ready && txns[o.Owner].Status != stCommitted:
		return o.Bak
	default:
		return o.Val
	}
}

// claim is the acquire CAS's effect when it succeeds: the new word adopts an
// aborted predecessor's ready backup (claimRef), or starts with none ready.
func claim(o *objState, txns []txState, th *thrState, me int8) {
	th.Adopted = !o.Inflated && o.Owner >= 0 && o.Ready && txns[o.Owner].Status == stAborted
	if th.Adopted {
		th.Bak = o.Bak
	} else {
		o.Ready = false
	}
	o.Owner = me
	o.Inflated = false
	th.ViaLoc = false
}

// inflateObserve is inflate's first step: the owner word must still be
// owner's plain word; the Locator's source is its backup when ready, and
// otherwise the in-place data, which the code clones registered as a
// reader after re-checking the word (one step here).
func (s *state) inflateObserve(tid, oi int, owner, enemy int8) {
	o, th := &s.Objs[oi], &s.Thr[tid]
	if o.Owner != owner || o.Inflated {
		th.PC = pcObserve
		return
	}
	th.Obs, th.Enemy = owner, enemy
	th.Src = o.Val
	if o.Ready {
		th.Src = o.Bak
	} else {
		s.Readers[oi] |= 1 << uint(s.me(tid))
	}
	th.PC = pcInflateCAS
}

// inflateCAS is inflate's second step: swing the observed word to a fresh
// Locator built from the observed source. It reports success.
func inflateCAS(o *objState, th *thrState, me int8) bool {
	src, enemy := th.Src, th.Enemy
	th.Src, th.Enemy = 0, -1
	if o.Owner != th.Obs || o.Inflated {
		th.PC = pcObserve
		return false
	}
	o.Inflated = true
	o.Owner = me
	o.LocOld, o.LocNew = src, src
	o.LocDirty = false
	o.LocAborted = enemy
	return true
}

// finishOp advances past a written (or read) object.
func finishOp(th *thrState, scriptLen int) {
	th.Idx++
	if int(th.Idx) < scriptLen {
		th.PC = pcObserve
	} else {
		th.PC = pcCommit
	}
}

// releaseTxn clears a transaction's reader registrations (the finish step).
func (s *state) releaseTxn(tx int8) {
	for oi := range s.Readers {
		s.Readers[oi] &^= 1 << uint(tx)
	}
}

// activeReaders returns the registered readers of oi other than me whose
// transactions are still active. The code scans them in slot order; the
// model lets the writer take them in any order, which keeps the step
// relation symmetric under thread renaming.
func (s *state) activeReaders(oi int, me int8) []int8 {
	var rs []int8
	for t := range s.Txns {
		if int8(t) != me && s.Readers[oi]&(1<<uint(t)) != 0 && s.Txns[t].Status == stActive {
			rs = append(rs, int8(t))
		}
	}
	return rs
}

// abortSelf is the contention manager's AbortSelf verdict.
func abortSelf(name string, tid int, me int8) Action {
	return act(name, func(s *state) {
		s.Txns[me].Status = stAborted
		s.Thr[tid].PC = pcRetry
	})
}

// requestAbort sets enemy's AbortNowPlease flag.
func requestAbort(name string, enemy int8) Action {
	return act(name, func(s *state) { s.Txns[enemy].ANP = true })
}

// steps returns the actions thread tid can take in s.
func steps(s *state, tid int) []Action {
	th := &s.Thr[tid]
	if th.PC == pcDone {
		return nil
	}
	cfg := &s.in.Config
	me := s.me(tid)
	myTx := &s.Txns[me]
	var op Op
	if int(th.Idx) < len(cfg.Scripts[tid]) {
		op = s.op(tid)
	}
	oi := op.Obj
	// guardFails is the Single-Compare-Single-Store pairing of a copy or a
	// store with the status check: under SCSS the step fires only while our
	// status word is clean, so a displaced writer's step fails instead of
	// scribbling (§2.3.2).
	guardFails := func(s *state) bool {
		if cfg.Variant == VariantSCSS && s.Txns[me].Status != stActive {
			s.Thr[tid].PC = pcRetry
			return true
		}
		return false
	}

	switch th.PC {
	case pcObserve:
		return []Action{act("observe", func(s *state) {
			o := &s.Objs[oi]
			s.Thr[tid].Obs = o.Owner
			s.Thr[tid].ObsInfl = o.Inflated
			s.Thr[tid].PC = pcDecide
		})}

	case pcDecide:
		if th.ObsInfl {
			return locatorConflict(s, tid, op)
		}
		if th.Obs >= 0 && th.Obs != me && s.Txns[th.Obs].Status == stActive {
			return ownerConflict(s, tid, op, th.Obs)
		}
		if !op.Write {
			return []Action{act("r-go-register", func(s *state) {
				s.Thr[tid].PC = pcRRegister
			})}
		}
		return []Action{act("goto-cas", func(s *state) {
			s.Thr[tid].PC = pcTryCAS
		})}

	// ---- reader path ----
	case pcRRegister:
		return []Action{act("r-register", func(s *state) {
			s.Readers[oi] |= 1 << uint(me)
			s.Thr[tid].PC = pcRRecheck
		})}

	case pcRRecheck:
		obs, obsInfl := th.Obs, th.ObsInfl
		return []Action{act("r-recheck", func(s *state) {
			o := &s.Objs[oi]
			if o.Owner != obs || o.Inflated != obsInfl {
				s.Thr[tid].PC = pcObserve // a writer slipped in; stay registered
				return
			}
			s.Thr[tid].PC = pcRRead
		})}

	case pcRRead:
		// The validation and the read are one step: under SCSS that is
		// maybeSnapshot's guarded snapshot; otherwise no writer may store
		// in place before this reader acknowledges.
		if myTx.ANP || myTx.Status != stActive {
			return []Action{act("r-validate-ack", func(s *state) {
				s.Txns[me].Status = stAborted
				s.Thr[tid].PC = pcRetry
			})}
		}
		return []Action{act("r-read", func(s *state) {
			s.Seen[int(me)*cfg.Objects+oi] = s.logical(oi) + 1
			finishOp(&s.Thr[tid], len(cfg.Scripts[tid]))
		})}

	// ---- writer path (acquireWrite) ----
	case pcTryCAS:
		obs, obsInfl := th.Obs, th.ObsInfl
		return []Action{act("cas-owner", func(s *state) {
			o := &s.Objs[oi]
			th := &s.Thr[tid]
			if o.Owner != obs || o.Inflated != obsInfl {
				th.PC = pcObserve // CAS failed
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
		return []Action{act("backup", func(s *state) {
			if guardFails(s) {
				return
			}
			s.Thr[tid].Bak = s.Objs[oi].Val
			s.Thr[tid].PC = pcReady
		})}

	case pcReady:
		return []Action{act("ready", func(s *state) {
			o, th := &s.Objs[oi], &s.Thr[tid]
			// A word that has been displaced since has no readers left;
			// setting its bit changes nothing.
			if o.Owner == me && !o.Inflated {
				o.Bak, o.Ready = th.Bak, true
			}
			th.Bak = 0
			th.PC = pcRestore
		})}

	case pcRestore:
		// The reader scan comes first: every registered active reader must
		// acknowledge (or, in NZ, be inflated past; under SCSS, be stolen
		// from) before data is touched in place.
		if rs := s.activeReaders(oi, me); len(rs) > 0 {
			var acts []Action
			for _, r := range rs {
				switch {
				case cfg.Variant.steals():
					acts = append(acts, act("w-force-abort-reader", func(s *state) {
						s.Txns[r].Status = stAborted
					}))
				case !s.Txns[r].ANP:
					acts = append(acts, requestAbort("w-request-reader-abort", r))
				case cfg.Variant == VariantNZ:
					acts = append(acts, act("w-inflate-past-reader", func(s *state) {
						s.inflateObserve(tid, oi, me, r)
					}))
				}
			}
			if cfg.Variant.steals() {
				return acts
			}
			return append(acts, abortSelf("w-cm-abort-self", tid, me)) // or blocked until acked
		}
		return []Action{act("restore", func(s *state) {
			th := &s.Thr[tid]
			if th.Adopted {
				if guardFails(s) {
					return
				}
				s.Objs[oi].Val = th.Bak // lazy restoration of the adopted backup
				th.Adopted, th.Bak = false, 0
			}
			th.PC = pcValidate
		})}

	case pcInflateCAS:
		return []Action{act("inflate-cas", func(s *state) {
			th := &s.Thr[tid]
			if !inflateCAS(&s.Objs[oi], th, me) {
				return
			}
			if op.Write {
				th.ViaLoc = true
				th.PC = pcValidate
			} else {
				th.PC = pcObserve // read via the locator path
			}
		})}

	case pcValidate:
		if myTx.ANP || myTx.Status != stActive {
			return []Action{act("validate-ack", func(s *state) {
				s.Txns[me].Status = stAborted // the acknowledgement (§2.2)
				s.Thr[tid].PC = pcRetry
			})}
		}
		return []Action{act("validate-ok", func(s *state) {
			s.Thr[tid].PC = pcWrite
		})}

	case pcDeflateCopy:
		return []Action{act("deflate-copy", func(s *state) {
			s.Objs[oi].Val = s.Thr[tid].Bak
			s.Thr[tid].Bak = 0
			s.Thr[tid].PC = pcWrite
		})}

	case pcWrite:
		o := &s.Objs[oi]
		ours := o.Inflated && o.Owner == me
		if th.ViaLoc && ours {
			// Writing through our Locator: every registered reader must be
			// doomed first — it may have read the in-place value before we
			// inflated (doomReaders).
			var acts []Action
			for _, r := range s.activeReaders(oi, me) {
				if !s.Txns[r].ANP {
					acts = append(acts, requestAbort("w-doom-reader", r))
				}
			}
			if len(acts) > 0 {
				return append(acts, abortSelf("w-cm-abort-self", tid, me))
			}
		}
		var acts []Action
		if ours && !o.LocDirty && o.LocAborted >= 0 && s.Txns[o.LocAborted].Status == stAborted &&
			len(s.activeReaders(oi, me)) == 0 {
			// The zombie finally acknowledged: deflate back in place
			// (§2.3.1) before writing. The new word's backup, ready from
			// the start, is the untouched new-data copy; deflate-copy then
			// writes that copy in place.
			acts = append(acts, act("deflate", func(s *state) {
				o, th := &s.Objs[oi], &s.Thr[tid]
				o.Inflated = false
				o.LocAborted = -1
				o.Bak, o.Ready = o.LocNew, true
				th.Bak = o.LocNew
				th.ViaLoc = false // back to in-place ownership
				th.PC = pcDeflateCopy
			}))
		}
		return append(acts, act("write", func(s *state) {
			o, th := &s.Objs[oi], &s.Thr[tid]
			if guardFails(s) {
				return
			}
			switch {
			case th.ViaLoc && o.Inflated && o.Owner == me:
				o.LocNew++ // working on the locator's new-data copy
				o.LocDirty = true
			case th.ViaLoc:
				// We acquired via a Locator but were displaced (our locator
				// was replaced, or the object deflated away from us): the
				// write lands in our private, now-unreachable new-data copy
				// and has no shared effect.
			default:
				// In-place store. If we have been displaced (inflated past,
				// or force-aborted in the buggy variant) this is exactly
				// the "late write" scribbling on the Data field; NZSTM is
				// designed so that it can never corrupt the logical value.
				o.Val++
			}
			finishOp(th, len(cfg.Scripts[tid]))
		}))

	case pcCommit:
		return []Action{act("commit", func(s *state) {
			tx := &s.Txns[me]
			if tx.Status == stActive && !tx.ANP {
				tx.Status = stCommitted
				s.releaseTxn(me)
				s.Thr[tid].PC = pcDone
			} else {
				tx.Status = stAborted
				s.Thr[tid].PC = pcRetry
			}
		})}

	case pcRetry:
		return []Action{act("retry", func(s *state) {
			th := &s.Thr[tid]
			s.releaseTxn(me)
			if int(th.Attempt) >= cfg.Retries {
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
	return nil
}

// ownerConflict handles pcDecide when the observed plain word's owner is an
// active transaction (resolveConflict, for readers and writers alike).
func ownerConflict(s *state, tid int, op Op, enemy int8) []Action {
	me := s.me(tid)
	p, next := "", pcTryCAS
	if !op.Write {
		p, next = "r-", pcRRegister
	}
	if s.in.Variant.steals() {
		// Safe only when every store is SCSS-paired (VariantSCSS); plain
		// Buggy loses updates to late writes.
		return []Action{act(p+"force-abort", func(s *state) {
			s.Txns[enemy].Status = stAborted
			s.Thr[tid].PC = next
		})}
	}
	var acts []Action
	if !s.Txns[enemy].ANP {
		acts = append(acts, requestAbort(p+"request-abort", enemy))
	}
	// (Once the enemy acknowledges, this conflict is gone and the thread
	// proceeds — that is the "ack seen" transition.) The contention manager
	// may always decide to abort us instead.
	acts = append(acts, abortSelf(p+"cm-abort-self", tid, me))
	if s.in.Variant == VariantNZ && s.Txns[enemy].ANP {
		// Patience exhausted: inflate past the unresponsive enemy (§2.3.1)
		// — observe the source, then CAS.
		acts = append(acts, act(p+"inflate-observe", func(s *state) {
			s.inflateObserve(tid, op.Obj, enemy, enemy)
		}))
	}
	return acts
}

// locatorConflict handles pcDecide when the object was observed inflated:
// the DSTM-style path (§2.3.1) of readInflated and updateInflated.
func locatorConflict(s *state, tid int, op Op) []Action {
	me := s.me(tid)
	oi := op.Obj
	o := &s.Objs[oi]
	lo := o.Owner
	switch {
	case !o.Inflated:
		// Deflated since we observed; re-observe.
		return []Action{act("loc-stale", func(s *state) {
			s.Thr[tid].PC = pcObserve
		})}
	case lo != me && s.Txns[lo].Status == stActive && !s.Txns[lo].ANP:
		// resolveLocatorConflict: DSTM semantics — setting ANP alone dooms
		// a locator owner; it can no longer commit and only writes private
		// copies.
		return []Action{
			requestAbort("loc-request-abort", lo),
			abortSelf("loc-cm-abort-self", tid, me),
		}
	case !op.Write:
		// Register and read the Locator's current version: our own new
		// data, else the new data if its owner committed, else the old.
		return []Action{act("r-loc-read", func(s *state) {
			o := &s.Objs[oi]
			v := s.logical(oi)
			if lo == me {
				v = o.LocNew
			} else {
				s.Readers[oi] |= 1 << uint(me)
			}
			s.Seen[int(me)*s.in.Objects+oi] = v + 1
			finishOp(&s.Thr[tid], len(s.in.Scripts[tid]))
		})}
	case lo == me:
		return []Action{act("loc-own", func(s *state) {
			s.Thr[tid].ViaLoc = true
			s.Thr[tid].PC = pcValidate
		})}
	}
	// Replace the Locator with ours, built from the current version; the
	// readers are doomed at pcWrite (updateInflated's doomReaders).
	return []Action{act("loc-replace", func(s *state) {
		o := &s.Objs[oi]
		cur := s.logical(oi)
		o.Owner = me
		o.LocOld, o.LocNew = cur, cur
		o.LocDirty = false
		s.Thr[tid].ViaLoc = true
		s.Thr[tid].PC = pcValidate
	})}
}

// check is the model's invariant: no commit with AbortNowPlease set, the
// read-sharing safety property in every state, and conservation of write
// increments in terminal states.
func check(s *state) error {
	for i, t := range s.Txns {
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
	objects := s.in.Objects
	for tid := range s.Thr {
		me := s.me(tid)
		if tx := s.Txns[me]; tx.Status != stActive || tx.ANP {
			continue
		}
		for oi := 0; oi < objects; oi++ {
			seen := s.Seen[int(me)*objects+oi]
			if seen != 0 && s.logical(oi) != seen-1 {
				return fmt.Errorf("active un-doomed reader txn %d saw object %d as %d but logical value is now %d",
					me, oi, seen-1, s.logical(oi))
			}
		}
	}
	// Terminal conservation: every object's logical value equals the
	// number of committed transactions that wrote it.
	for _, th := range s.Thr {
		if th.PC != pcDone {
			return nil
		}
	}
	expect := make([]int8, objects)
	for tid, script := range s.in.Scripts {
		for a := 0; a <= s.in.Retries; a++ {
			if s.Txns[s.in.txID(tid, int8(a))].Status != stCommitted {
				continue
			}
			for _, op := range script {
				if op.Write {
					expect[op.Obj]++
				}
			}
		}
	}
	for oi := range expect {
		if logical := s.logical(oi); logical != expect[oi] {
			return fmt.Errorf("object %d: logical value %d, want %d committed increments",
				oi, logical, expect[oi])
		}
	}
	return nil
}
