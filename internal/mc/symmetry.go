package mc

import (
	"bytes"
	"slices"
)

// Threads with identical scripts are interchangeable: renaming them, and
// every transaction id with them, maps reachable states to reachable states
// and violations to violations, because no step or invariant depends on a
// thread's number. (Where the code scans readers in slot order, the model
// lets the writer pick any reader, so that this holds.) The key of a state
// is therefore the least encoding over those renamings, and the search
// visits one state per class.

// perm is one thread renaming: slot j of the encoding holds thread from[j],
// and transaction id t is renamed tx[t].
type perm struct {
	from []int
	tx   []int8
}

// symmetries returns every renaming that maps each thread onto one with an
// identical script, the identity first.
func symmetries(scripts [][]Op, retries int) []perm {
	n, per := len(scripts), retries+1
	var out []perm
	from := make([]int, 0, n)
	used := make([]bool, n)
	var place func()
	place = func() {
		j := len(from)
		if j == n {
			p := perm{from: slices.Clone(from), tx: make([]int8, n*per)}
			for slot, t := range p.from {
				for a := 0; a < per; a++ {
					p.tx[t*per+a] = int8(slot*per + a)
				}
			}
			out = append(out, p)
			return
		}
		for t := 0; t < n; t++ {
			if !used[t] && slices.Equal(scripts[t], scripts[j]) {
				used[t] = true
				from = append(from, t)
				place()
				from = from[:j]
				used[t] = false
			}
		}
	}
	place()
	return out
}

// Key implements State: the least encoding of s under the model's thread
// renamings. An encoding is every thread's own block, in slot order, then
// the fields that name transactions. The blocks need no renaming, so most
// renamings lose on them before the rest is encoded. Key allocates only the
// string it returns.
func (s *state) Key() string {
	in := s.in
	in.local = in.local[:0]
	for t := range s.Thr {
		in.local = s.appendLocal(in.local, t)
	}
	n := len(in.local) / len(s.Thr)
	block := func(t int) []byte { return in.local[t*n : (t+1)*n] }
	best := 0
	in.a = s.encode(in.a[:0], &in.sym[0], block)
	for i := 1; i < len(in.sym); i++ {
		c := 0
		for j, t := range in.sym[i].from {
			if c = bytes.Compare(block(t), block(in.sym[best].from[j])); c != 0 {
				break
			}
		}
		if c > 0 {
			continue
		}
		in.b = s.encode(in.b[:0], &in.sym[i], block)
		if c < 0 || bytes.Compare(in.b, in.a) < 0 {
			in.a, in.b, best = in.b, in.a, i
		}
	}
	return string(in.a)
}

// appendLocal appends thread t's block: its own fields, its transactions'
// status words, and what each of them has read and is registered on.
func (s *state) appendLocal(b []byte, t int) []byte {
	th := &s.Thr[t]
	b = append(b, byte(th.Attempt), byte(th.PC), byte(th.Idx),
		boolByte(th.ObsInfl)|boolByte(th.Failed)<<1|boolByte(th.ViaLoc)<<2|boolByte(th.Adopted)<<3,
		byte(th.Bak)<<4|byte(th.Src)&0xf)
	per, objects := s.in.Retries+1, s.in.Objects
	for tx := t * per; tx < (t+1)*per; tx++ {
		b = append(b, s.Txns[tx].Status, boolByte(s.Txns[tx].ANP))
		for oi, mask := range s.Readers {
			b = append(b, byte(s.Seen[tx*objects+oi])|byte(mask>>uint(tx)&1)<<7)
		}
	}
	return b
}

// encode appends s renamed by p to b: the blocks in p's slot order, then
// the transaction-naming fields with every id renamed.
func (s *state) encode(b []byte, p *perm, block func(t int) []byte) []byte {
	ren := func(t int8) byte {
		if t < 0 {
			return byte(t)
		}
		return byte(p.tx[t])
	}
	for _, t := range p.from {
		b = append(b, block(t)...)
	}
	for _, t := range p.from {
		b = append(b, ren(s.Thr[t].Obs), ren(s.Thr[t].Enemy))
	}
	for _, o := range s.Objs {
		b = append(b, ren(o.Owner), boolByte(o.Inflated)|boolByte(o.Ready)<<1,
			byte(o.Val), byte(o.Bak), byte(o.LocOld),
			byte(o.LocNew)|boolByte(o.LocDirty)<<7, ren(o.LocAborted))
	}
	return b
}
