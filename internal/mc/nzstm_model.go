package mc

import (
	"fmt"
)

// This file models the NZSTM acquire/abort-request/acknowledge protocol
// (§2.2–2.3) at the granularity of its atomic machine steps, for exhaustive
// checking — the counterpart of the paper's Promela model (§3).
//
// Each thread runs one transaction that acquires the objects of its script
// in order, increments each, and commits, retrying up to Retries times. The
// model exposes the protocol's critical races: the abort-request /
// acknowledgement handshake, lazy backup restoration, late writes by
// unresponsive zombies, inflation past them, and deflation afterwards.
//
// The Owner word carries its owner's backup, as in internal/core: the
// object's Bak and Ready fields belong to the plain owner word installed
// now, and every CAS that installs a word sets them with it. Acquisition
// either adopts an aborted predecessor's ready backup at the CAS and later
// restores it in place, or copies the in-place data and then marks the
// backup ready; inflation observes its source, then CASes; deflation is one
// CAS that publishes owner and backup, followed by a separate in-place copy.
// DESIGN.md §10.5 maps each action to the code step it models.
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

// NZConfig describes a model instance.
type NZConfig struct {
	Variant Variant
	Scripts [][]int // Scripts[tid] = object indices to write, in order
	Objects int
	Retries int // attempts per thread = Retries+1
}

type nzState struct {
	cfg  *NZConfig
	Objs []objState
	Txns []txState
	Thr  []thrState
}

// appendKey encodes the state shared by both models.
func appendKey(b []byte, objs []objState, txns []txState, thr []thrState) []byte {
	for _, o := range objs {
		b = append(b, byte(o.Owner), boolByte(o.Inflated)|boolByte(o.Ready)<<1,
			byte(o.Val), byte(o.Bak), byte(o.LocOld),
			byte(o.LocNew)|boolByte(o.LocDirty)<<7, byte(o.LocAborted))
	}
	for _, t := range txns {
		b = append(b, t.Status, boolByte(t.ANP))
	}
	for _, th := range thr {
		b = append(b, byte(th.Attempt), byte(th.PC), byte(th.Idx),
			byte(th.Obs)|boolByte(th.ObsInfl)<<7,
			boolByte(th.Failed)|boolByte(th.ViaLoc)<<1|boolByte(th.Adopted)<<2,
			byte(th.Bak)<<4|byte(th.Src)&0xf, byte(th.Enemy))
	}
	return b
}

// Key implements State.
func (s *nzState) Key() string {
	return string(appendKey(make([]byte, 0, 7*len(s.Objs)+2*len(s.Txns)+7*len(s.Thr)),
		s.Objs, s.Txns, s.Thr))
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// Clone implements State.
func (s *nzState) Clone() State {
	c := &nzState{cfg: s.cfg}
	c.Objs = append([]objState(nil), s.Objs...)
	c.Txns = append([]txState(nil), s.Txns...)
	c.Thr = append([]thrState(nil), s.Thr...)
	return c
}

// txID maps (thread, attempt) to a transaction slot: a retried transaction
// is a fresh Transaction object, as in the implementation and the paper.
func (c *NZConfig) txID(tid int, attempt int8) int8 {
	return int8(tid*(c.Retries+1) + int(attempt))
}

// initState returns the objects and threads of a fresh model.
func initState(objects, threads int) ([]objState, []thrState) {
	objs := make([]objState, objects)
	for i := range objs {
		objs[i] = objState{Owner: -1, LocAborted: -1}
	}
	thr := make([]thrState, threads)
	for i := range thr {
		thr[i] = thrState{PC: pcObserve, Obs: -1, Enemy: -1}
	}
	return objs, thr
}

// NZModel builds the checkable model for the configuration.
func NZModel(cfg NZConfig) Model {
	threads := len(cfg.Scripts)
	init := &nzState{cfg: &cfg}
	init.Objs, init.Thr = initState(cfg.Objects, threads)
	init.Txns = make([]txState, threads*(cfg.Retries+1))

	return Model{
		Name:    fmt.Sprintf("nzstm-v%d", cfg.Variant),
		Init:    init,
		Threads: threads,
		Enabled: func(st State, tid int) []Action { return enabled(st.(*nzState), tid) },
		Invariant: func(st State) error {
			return invariant(st.(*nzState))
		},
		Final: func(st State) bool {
			s := st.(*nzState)
			for i := range s.Thr {
				if s.Thr[i].PC != pcDone {
					return false
				}
			}
			return true
		},
	}
}

// me returns the thread's current transaction id.
func (s *nzState) me(tid int) int8 { return s.cfg.txID(tid, s.Thr[tid].Attempt) }

// obj returns the object the thread is currently working on.
func (s *nzState) obj(tid int) int { return s.cfg.Scripts[tid][s.Thr[tid].Idx] }

// act is a helper for building actions that mutate the cloned state.
func act(name string, f func(s *nzState)) Action {
	return Action{Name: name, Next: func(st State) State {
		s := st.(*nzState)
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

// publishReady marks the backup of our word ready. A word that has been
// displaced since has no readers left; setting its bit changes nothing.
func publishReady(o *objState, th *thrState, me int8) {
	if o.Owner == me && !o.Inflated {
		o.Bak, o.Ready = th.Bak, true
	}
	th.Bak = 0
}

// inflateObserve is inflate's first step: the owner word must still be
// owner's plain word; the Locator's source is its backup when ready, and
// otherwise the in-place data, which the code clones registered as a
// reader after re-checking the word (one step here). It reports whether
// the clone path was taken, so the caller can record the registration.
func inflateObserve(o *objState, th *thrState, owner, enemy int8) (cloned bool) {
	if o.Owner != owner || o.Inflated {
		th.PC = pcObserve
		return false
	}
	th.Obs, th.Enemy = owner, enemy
	th.Src = o.Val
	if o.Ready {
		th.Src = o.Bak
	}
	th.PC = pcInflateCAS
	return !o.Ready
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

// deflateCAS swings our Locator back to a plain word of ours whose backup,
// ready from the start, is the untouched new-data copy; deflate-copy then
// writes that copy in place.
func deflateCAS(o *objState, th *thrState) {
	o.Inflated = false
	o.LocAborted = -1
	o.Bak, o.Ready = o.LocNew, true
	th.Bak = o.LocNew
	th.ViaLoc = false // back to in-place ownership
	th.PC = pcDeflateCopy
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

func enabled(s *nzState, tid int) []Action {
	th := &s.Thr[tid]
	if th.PC == pcDone {
		return nil
	}
	cfg := s.cfg
	me := s.me(tid)
	myTx := &s.Txns[me]
	scss := cfg.Variant == VariantSCSS

	// An aborted transaction (acknowledged abort) observed at any step
	// before Validate/Commit cannot happen: acknowledgement is what these
	// steps do. ANP may be set at any time by others.

	switch th.PC {
	case pcObserve:
		oi := s.obj(tid)
		return []Action{act("observe", func(s *nzState) {
			o := &s.Objs[oi]
			s.Thr[tid].Obs = o.Owner
			s.Thr[tid].ObsInfl = o.Inflated
			s.Thr[tid].PC = pcDecide
		})}

	case pcDecide:
		oi := s.obj(tid)
		if th.ObsInfl {
			return locatorActions(s, tid, oi)
		}
		if th.Obs >= 0 && th.Obs != me && s.Txns[th.Obs].Status == stActive {
			enemy := th.Obs
			var acts []Action
			if cfg.Variant == VariantBuggy || scss {
				// Abort the enemy directly, no handshake. Safe only when
				// every store is SCSS-paired (VariantSCSS); plain Buggy
				// loses updates to late writes.
				acts = append(acts, act("force-abort", func(s *nzState) {
					s.Txns[enemy].Status = stAborted
					s.Thr[tid].PC = pcTryCAS
				}))
				return acts
			}
			if !s.Txns[enemy].ANP {
				acts = append(acts, act("request-abort", func(s *nzState) {
					s.Txns[enemy].ANP = true
				}))
			}
			// (Once the enemy acknowledges, the enclosing guard fails and
			// the thread proceeds through goto-cas — that is the "ack seen"
			// transition.)
			// The contention manager may always decide to abort us instead.
			acts = append(acts, act("cm-abort-self", func(s *nzState) {
				s.Txns[me].Status = stAborted
				s.Thr[tid].PC = pcRetry
			}))
			if cfg.Variant == VariantNZ && s.Txns[enemy].ANP {
				// Patience exhausted: inflate past the unresponsive enemy
				// (§2.3.1) — observe the source, then CAS.
				acts = append(acts, act("inflate-observe", func(s *nzState) {
					inflateObserve(&s.Objs[oi], &s.Thr[tid], enemy, enemy)
				}))
			}
			return acts
		}
		// No active enemy: try to claim.
		return []Action{act("goto-cas", func(s *nzState) {
			s.Thr[tid].PC = pcTryCAS
		})}

	case pcTryCAS:
		oi := s.obj(tid)
		obs, obsInfl := th.Obs, th.ObsInfl
		return []Action{act("cas-owner", func(s *nzState) {
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
		oi := s.obj(tid)
		return []Action{act("backup", func(s *nzState) {
			if scss && s.Txns[me].Status != stActive {
				// SCSS pairs the backup copy with the status check too.
				s.Thr[tid].PC = pcRetry
				return
			}
			s.Thr[tid].Bak = s.Objs[oi].Val
			s.Thr[tid].PC = pcReady
		})}

	case pcReady:
		oi := s.obj(tid)
		return []Action{act("ready", func(s *nzState) {
			publishReady(&s.Objs[oi], &s.Thr[tid], me)
			s.Thr[tid].PC = pcValidate
		})}

	case pcRestore:
		oi := s.obj(tid)
		return []Action{act("restore", func(s *nzState) {
			th := &s.Thr[tid]
			if scss && s.Txns[me].Status != stActive {
				th.PC = pcRetry // the guarded restore fails
				return
			}
			s.Objs[oi].Val = th.Bak // lazy restoration of the adopted backup
			th.Adopted, th.Bak = false, 0
			th.PC = pcValidate
		})}

	case pcInflateCAS:
		oi := s.obj(tid)
		return []Action{act("inflate-cas", func(s *nzState) {
			th := &s.Thr[tid]
			if inflateCAS(&s.Objs[oi], th, me) {
				th.ViaLoc = true
				th.PC = pcValidate
			}
		})}

	case pcValidate:
		if myTx.ANP || myTx.Status != stActive {
			return []Action{act("validate-ack", func(s *nzState) {
				s.Txns[me].Status = stAborted // the acknowledgement (§2.2)
				s.Thr[tid].PC = pcRetry
			})}
		}
		return []Action{act("validate-ok", func(s *nzState) {
			s.Thr[tid].PC = pcWrite
		})}

	case pcDeflateCopy:
		oi := s.obj(tid)
		return []Action{act("deflate-copy", func(s *nzState) {
			s.Objs[oi].Val = s.Thr[tid].Bak
			s.Thr[tid].Bak = 0
			s.Thr[tid].PC = pcWrite
		})}

	case pcWrite:
		oi := s.obj(tid)
		o := &s.Objs[oi]
		var acts []Action
		if o.Inflated && o.Owner == me && !o.LocDirty &&
			o.LocAborted >= 0 && s.Txns[o.LocAborted].Status == stAborted {
			// The zombie finally acknowledged: deflate back in place
			// (§2.3.1) before writing.
			acts = append(acts, act("deflate", func(s *nzState) {
				deflateCAS(&s.Objs[oi], &s.Thr[tid])
			}))
		}
		acts = append(acts, act("write", func(s *nzState) {
			o := &s.Objs[oi]
			th := &s.Thr[tid]
			if scss && s.Txns[me].Status != stActive {
				// The Single-Compare-Single-Store pairing: the store fires
				// only if our status word is still clean — a displaced
				// writer's store fails instead of scribbling (§2.3.2).
				th.PC = pcRetry
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
			finishOp(th, len(s.cfg.Scripts[tid]))
		}))
		return acts

	case pcCommit:
		return []Action{act("commit", func(s *nzState) {
			tx := &s.Txns[me]
			th := &s.Thr[tid]
			if tx.Status == stActive && !tx.ANP {
				tx.Status = stCommitted
				th.PC = pcDone
			} else {
				tx.Status = stAborted
				th.PC = pcRetry
			}
		})}

	case pcRetry:
		return []Action{act("retry", func(s *nzState) {
			th := &s.Thr[tid]
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
	return nil
}

// locatorActions handles pcDecide when the object was observed inflated:
// the DSTM-style path (§2.3.1).
func locatorActions(s *nzState, tid int, oi int) []Action {
	me := s.me(tid)
	o := &s.Objs[oi]
	if o.Owner == me && o.Inflated {
		return []Action{act("loc-own", func(s *nzState) {
			s.Thr[tid].ViaLoc = true
			s.Thr[tid].PC = pcValidate
		})}
	}
	if !o.Inflated {
		// Deflated since we observed; re-observe.
		return []Action{act("loc-stale", func(s *nzState) {
			s.Thr[tid].PC = pcObserve
		})}
	}
	lo := o.Owner
	if lo >= 0 && s.Txns[lo].Status == stActive && !s.Txns[lo].ANP {
		return []Action{
			act("loc-request-abort", func(s *nzState) {
				// DSTM semantics: setting ANP alone dooms a locator owner —
				// it can no longer commit and only writes private copies.
				s.Txns[lo].ANP = true
			}),
			act("loc-cm-abort-self", func(s *nzState) {
				s.Txns[me].Status = stAborted
				s.Thr[tid].PC = pcRetry
			}),
		}
	}
	return []Action{act("loc-replace", func(s *nzState) {
		o := &s.Objs[oi]
		if !o.Inflated {
			s.Thr[tid].PC = pcObserve
			return
		}
		cur := o.LocOld
		if o.Owner >= 0 && s.Txns[o.Owner].Status == stCommitted {
			cur = o.LocNew
		}
		o.Owner = me
		o.LocOld, o.LocNew = cur, cur
		o.LocDirty = false
		s.Thr[tid].ViaLoc = true
		s.Thr[tid].PC = pcValidate
	})}
}

// invariant checks safety in every state, plus the conservation property in
// terminal states: every object's logical value equals the number of
// committed transactions that wrote it.
func invariant(s *nzState) error {
	for i := range s.Txns {
		t := &s.Txns[i]
		if t.Status == stCommitted && t.ANP {
			return fmt.Errorf("txn %d committed with AbortNowPlease set", i)
		}
	}
	// Terminal-state conservation check.
	for i := range s.Thr {
		if s.Thr[i].PC != pcDone {
			return nil
		}
	}
	expect := make([]int8, len(s.Objs))
	for tid, script := range s.cfg.Scripts {
		committed := false
		for a := 0; a <= s.cfg.Retries; a++ {
			if s.Txns[s.cfg.txID(tid, int8(a))].Status == stCommitted {
				committed = true
			}
		}
		if committed {
			for _, oi := range script {
				expect[oi]++
			}
		}
	}
	for oi := range s.Objs {
		if logical := logicalValue(&s.Objs[oi], s.Txns); logical != expect[oi] {
			return fmt.Errorf("object %d: logical value %d, want %d committed increments",
				oi, logical, expect[oi])
		}
	}
	return nil
}
