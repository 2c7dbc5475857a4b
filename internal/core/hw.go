package core

import (
	"nztm/internal/machine"
	"nztm/internal/tm"
)

// This file implements the object-side operations the NZTM hybrid's
// hardware transactions perform (§2.4): inspecting the Owner field for
// conflicts with software transactions, reading the logical value (the
// backup when the last software owner aborted), and publishing a hardware
// commit that restores the object to its pristine in-place state — data
// current, Owner NULL, and with it no pending backup — "to make what we
// believe to be the common case fast".

// HWView is what a hardware transaction learns from inspecting an object.
type HWView struct {
	// OK is false when the object conflicts with software transactions in a
	// way the hardware transaction cannot resolve: an active software
	// owner, or an inflated object. The hardware transaction must abort
	// itself and retry (possibly in software).
	OK bool

	// Logical is the object's current logical value (the in-place data, or
	// the pending backup of an aborted owner); LogicalAddr is where it
	// lives in simulated memory.
	Logical     tm.Data
	LogicalAddr machine.Addr

	// NeedsCleanup reports that publishing must repair software metadata:
	// restore a pending backup and/or clear a stale Owner field.
	NeedsCleanup bool

	or *ownerRef // owner word observed, for the publish-time verification
}

// HWInspect examines the object on behalf of a hardware transaction. The
// caller must already have registered the transaction on the object's
// conflict-tracking line, so that a concurrent software acquisition is
// guaranteed to either be visible here or to doom the hardware transaction.
func (o *Object) HWInspect(env tm.Env) HWView {
	or := o.ownerWord(env)
	v := HWView{or: or}
	if or != nil {
		if or.loc != nil {
			// Inflated: leave it to the software path, which can run the
			// full deflation protocol.
			return v
		}
		w := or.txn
		env.Access(w.addr, 1, false)
		if w.status.State() == tm.Active {
			return v // conflict with an active software transaction
		}
		// The owning transaction committed or aborted: the stale owner word
		// must be cleared for successors, and a pending backup restored.
		v.NeedsCleanup = true
	}
	v.OK = true
	v.Logical, v.LogicalAddr = o.logicalData(env, or)
	return v
}

// HWActiveReaders reports whether any active software reader is registered;
// a hardware transaction must not write an object with active software
// readers (it cannot wait for their acknowledgements).
func (o *Object) HWActiveReaders(env tm.Env) bool {
	return o.firstActiveReader(env, nil) != nil
}

// HWPublish applies a hardware transaction's committed write to the object:
// the buffered data is copied in place and the Owner field is cleared,
// which discards any pending backup it carried. It must be called from
// inside the hardware commit (no Env calls happen here — the caller charges
// costs beforehand) and only if the transaction was not doomed, which
// guarantees no software transaction has acquired the object since
// HWInspect.
func (o *Object) HWPublish(v HWView, buf tm.Data) bool {
	if !o.owner.CompareAndSwap(v.or, nil) {
		return false
	}
	o.version.Add(1)
	if h := o.sys.cfg.OnOwnerChange; h != nil {
		h(o)
	}
	o.data.CopyFrom(buf)
	return true
}
