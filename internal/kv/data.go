package kv

import (
	"strings"

	"nztm/internal/tm"
)

// entry is one key/value pair inside a bucket. Keys are immutable Go
// strings, and so, by contract, are values: a value's bytes are never
// written after put stores the slice. An update replaces the entry's
// slice header, so a bucket, its backups and its readers may all share
// one value's bytes.
type entry struct {
	key string
	val []byte
}

// bucketData is the tm.Data payload of one bucket object: an unordered
// association list of the keys that hash to the bucket. It is the unit of
// conflict detection — two requests conflict iff they touch the same
// bucket — so the store's shard × bucket geometry directly sets the false
// conflict rate (see DESIGN.md §8).
type bucketData struct {
	entries []entry
}

// Clone implements tm.Data: a copy of the entry headers in a backing array
// of its own. The value bytes are immutable and stay shared.
func (b *bucketData) Clone() tm.Data {
	return &bucketData{entries: append([]entry(nil), b.entries...)}
}

// CopyFrom implements tm.Data, reusing the receiver's backing array. The
// tail a shrink leaves behind is cleared, so a pooled backup pins no value
// beyond the bucket it last copied.
func (b *bucketData) CopyFrom(src tm.Data) {
	old := b.entries
	b.entries = append(old[:0], src.(*bucketData).entries...)
	if len(b.entries) < len(old) {
		clear(old[len(b.entries):])
	}
}

// Words implements tm.Data: an estimate of the bucket's size in 8-byte
// words, driving copy costs in sim mode (real mode ignores it).
func (b *bucketData) Words() int {
	w := 1
	for _, e := range b.entries {
		w += 2 + (len(e.key)+len(e.val)+7)/8
	}
	return w
}

// get returns the value stored under key. The result is the stored slice
// itself: immutable, and valid for as long as the caller holds it.
func (b *bucketData) get(key string) ([]byte, bool) {
	for i := range b.entries {
		if b.entries[i].key == key {
			return b.entries[i].val, true
		}
	}
	return nil, false
}

// put stores val under key. It keeps the slice, not a copy: the caller
// hands over bytes it owns and nothing will write again. A key it has to
// insert it clones: the caller's may be a substring of something larger (a
// request's keys, a frame), which a stored few bytes must not keep alive.
func (b *bucketData) put(key string, val []byte) {
	for i := range b.entries {
		if b.entries[i].key == key {
			b.entries[i].val = val
			return
		}
	}
	b.entries = append(b.entries, entry{key: strings.Clone(key), val: val})
}

// del removes key, reporting whether it was present.
func (b *bucketData) del(key string) bool {
	for i := range b.entries {
		if b.entries[i].key == key {
			last := len(b.entries) - 1
			b.entries[i] = b.entries[last]
			b.entries[last] = entry{}
			b.entries = b.entries[:last]
			return true
		}
	}
	return false
}

var _ tm.Data = (*bucketData)(nil)
