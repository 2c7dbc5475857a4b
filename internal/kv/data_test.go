package kv

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"nztm/internal/tm"
)

// oneBucket builds a 1×1 store on the named backend, so every key shares
// one bucket, preloaded with n keys of size-byte values.
func oneBucket(tb testing.TB, backend string, n, size int) (*Store, *tm.Thread, []string) {
	tb.Helper()
	b, err := OpenBackend(backend, 1)
	if err != nil {
		tb.Fatal(err)
	}
	s := New(b.Sys, 1, 1)
	th := b.NewThread()
	tb.Cleanup(th.Close)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
		if _, err := s.Put(th, keys[i], bytes.Repeat([]byte{byte(i)}, size), Budget{}); err != nil {
			tb.Fatal(err)
		}
	}
	return s, th, keys
}

// TestCopiesShareBytesNotHeaders pins the tm.Data contract bucketData
// implements: a clone and a CopyFrom target are independent of the original
// under put and del, while the value bytes — never written once stored —
// are shared, and a shrinking CopyFrom leaves no dead value pinned in the
// receiver's backing array.
func TestCopiesShareBytesNotHeaders(t *testing.T) {
	b := &bucketData{}
	for i := 0; i < 4; i++ {
		b.put(fmt.Sprint("k", i), []byte{byte(i)})
	}
	c := b.Clone().(*bucketData)
	if v, _ := b.get("k1"); &v[0] != &c.entries[1].val[0] {
		t.Fatal("Clone copied value bytes; they are immutable and must be shared")
	}
	b.put("k1", []byte("new"))
	b.del("k0")
	c.put("k9", []byte("only in the clone"))
	if v, ok := c.get("k1"); !ok || !bytes.Equal(v, []byte{1}) {
		t.Fatalf("put on the original shows in its clone: %q, %v", v, ok)
	}
	if _, ok := c.get("k0"); !ok {
		t.Fatal("del on the original shows in its clone")
	}
	if _, ok := b.get("k9"); ok {
		t.Fatal("put on the clone shows in the original")
	}

	small := &bucketData{}
	small.put("x", []byte("x"))
	backing := c.entries[:cap(c.entries)]
	c.CopyFrom(small)
	if len(c.entries) != 1 || c.entries[0].key != "x" {
		t.Fatalf("CopyFrom: %+v", c.entries)
	}
	if &c.entries[0] != &backing[0] {
		t.Fatal("CopyFrom did not reuse the receiver's backing array")
	}
	for i, e := range backing[1:] {
		if e.key != "" || e.val != nil {
			t.Fatalf("CopyFrom left a dead entry pinned at %d: %+v", i+1, e)
		}
	}
	small.put("x", []byte("y"))
	if v, _ := c.get("x"); string(v) != "x" {
		t.Fatalf("put on CopyFrom's source shows in the receiver: %q", v)
	}
}

// TestEmptyValueIsNotAbsent: the wire protocol keeps an empty value apart
// from nil, and so must the store — a found value is never nil, also after
// recovery from the log.
func TestEmptyValueIsNotAbsent(t *testing.T) {
	check := func(t *testing.T, s *Store, th *tm.Thread, key string) {
		t.Helper()
		r, err := s.Get(th, key, Budget{})
		if err != nil || !r.Found || r.Value == nil || len(r.Value) != 0 {
			t.Fatalf("GET %s = %+v, %v; want found, empty and non-nil", key, r, err)
		}
	}
	s, b := newStore(t, 1, 2, 2)
	th := mint(t, b, 1)[0]
	for key, val := range map[string][]byte{"empty": {}, "nil": nil} {
		if _, err := s.Put(th, key, val, Budget{}); err != nil {
			t.Fatal(err)
		}
		check(t, s, th, key)
	}
	if r, err := s.CAS(th, "empty", []byte{}, []byte{}, Budget{}); err != nil || !r.Found {
		t.Fatalf("CAS expecting the empty value: %+v, %v", r, err)
	}
	check(t, s, th, "empty")
	if r, err := s.CAS(th, "empty", nil, []byte("x"), Budget{}); err != nil || r.Found {
		t.Fatalf("CAS expecting absence matched a key holding the empty value: %+v, %v", r, err)
	}

	dir := t.TempDir()
	ds, db := newDurableStore(t, dir, 2, 2, Durability{})
	dth := db.NewThread()
	if _, err := ds.Put(dth, "empty", []byte{}, Budget{}); err != nil {
		t.Fatal(err)
	}
	dth.Close()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds, db = newDurableStore(t, dir, 2, 2, Durability{})
	defer ds.Close()
	dth = db.NewThread()
	defer dth.Close()
	check(t, ds, dth, "empty")
}

// TestCallerKeepsItsBuffer: Do stores a copy of Op.Value, so a caller that
// reuses its buffer — the benchmark's ladder does — cannot reach a stored
// value through it.
func TestCallerKeepsItsBuffer(t *testing.T) {
	s, th, keys := oneBucket(t, "nzstm", 16, 8)
	buf := []byte("first")
	ops := []Op{
		{Kind: OpPut, Key: keys[0], Value: buf},
		{Kind: OpCAS, Key: keys[1], Expect: bytes.Repeat([]byte{1}, 8), Value: buf},
	}
	if rs, err := s.Do(th, ops, Budget{}); err != nil || !rs[1].Found {
		t.Fatalf("Do: %+v, %v", rs, err)
	}
	copy(buf, "XXXXX")
	for _, k := range keys[:2] {
		if r, _ := s.Get(th, k, Budget{}); string(r.Value) != "first" {
			t.Fatalf("%s changed with the caller's buffer: %q", k, r.Value)
		}
	}
}

// TestReadersShareImmutableValues is the aliasing contract under -race: a
// GET result is the stored slice itself, and no later PUT, CAS or DELETE of
// the key — nor a writer recycling the buffer it put from — writes to those
// bytes. Every value is one byte repeated, so a torn or recycled value shows
// as a mixed one.
//
// The backend is glock: the contract under test is the store's, and four
// threads meeting in one bucket on two cores is the contended shape nzstm's
// inflation path does not yet survive (ROADMAP item 1).
func TestReadersShareImmutableValues(t *testing.T) {
	b, err := OpenBackend("glock", 4)
	if err != nil {
		t.Fatal(err)
	}
	s := New(b.Sys, 1, 1)
	ths := mint(t, b, 4)
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		if _, err := s.Put(ths[0], k, bytes.Repeat([]byte{0}, 64), Budget{}); err != nil {
			t.Fatal(err)
		}
	}
	uniform := func(v []byte) bool { return bytes.Count(v, v[:1]) == len(v) }

	const rounds = 2000
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(th *tm.Thread, fill byte) {
			defer wg.Done()
			buf := make([]byte, 64) // one buffer, rewritten after every Do
			for i := 0; i < rounds; i++ {
				for j := range buf {
					buf[j] = fill + byte(i%100)
				}
				k := keys[i%len(keys)]
				var err error
				switch i % 3 {
				case 0:
					_, err = s.Put(th, k, buf, Budget{})
				case 1:
					_, err = s.Do(th, []Op{{Kind: OpDelete, Key: k}, {Kind: OpPut, Key: k, Value: buf}}, Budget{})
				case 2:
					cur, _ := s.Get(th, k, Budget{})
					_, err = s.CAS(th, k, cur.Value, buf, Budget{})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(ths[w], byte(1+100*w))
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(th *tm.Thread) {
			defer wg.Done()
			var held [][]byte
			for i := 0; i < rounds; i++ {
				got, err := s.Get(th, keys[i%len(keys)], Budget{})
				if err != nil {
					t.Error(err)
					return
				}
				if got.Found {
					held = append(held, got.Value)
				}
				for _, v := range held[max(0, len(held)-8):] {
					if len(v) != 64 || !uniform(v) {
						t.Errorf("a held GET result changed under the reader: %x", v)
						return
					}
				}
			}
		}(ths[2+r])
	}
	wg.Wait()
}

// TestAbortRestoresFullBucket: a transaction that put, deleted and swapped
// keys of a full bucket and then aborted leaves every key byte-for-byte as
// it was, on each backend — in particular the undo-style ones, which restore
// in-place data from a Clone/CopyFrom backup (nzstm and its variants, glock,
// logtm, dstm2sf), where a header-only backup has to be enough.
func TestAbortRestoresFullBucket(t *testing.T) {
	for _, name := range BackendNames() {
		t.Run(name, func(t *testing.T) {
			s, th, keys := oneBucket(t, name, 16, 32)
			want := make(map[string][]byte)
			for i, k := range keys {
				want[k] = bytes.Repeat([]byte{byte(i)}, 32)
			}
			// Two rounds: the second runs against a backup pool the first
			// aborted attempt has already been through.
			for round := 0; round < 2; round++ {
				rs, err := s.Do(th, []Op{
					{Kind: OpPut, Key: keys[3], Value: []byte("overwritten")},
					{Kind: OpPut, Key: "fresh", Value: []byte("grows the bucket")},
					{Kind: OpDelete, Key: keys[0]},
					{Kind: OpDelete, Key: keys[15]},
					{Kind: OpCAS, Key: keys[7], Expect: want[keys[7]], Value: []byte("swapped")},
					{Kind: OpCAS, Key: keys[8], Expect: want[keys[8]]}, // nil Value: delete
					{Kind: OpCAS, Key: keys[9], Expect: []byte("not this")},
				}, Budget{})
				if err != nil || rs[6].Found || !rs[4].Found {
					t.Fatalf("round %d: aborting batch: %+v, %v", round, rs, err)
				}
				for k, v := range want {
					if r, err := s.Get(th, k, Budget{}); err != nil || !r.Found || !bytes.Equal(r.Value, v) {
						t.Fatalf("round %d: %s = %x (found %v, %v) after the abort; want %x", round, k, r.Value, r.Found, err, v)
					}
				}
				if r, _ := s.Get(th, "fresh", Budget{}); r.Found {
					t.Fatalf("round %d: the aborted batch's new key survived", round)
				}
			}
		})
	}
}

// What one committed request through Store.Do may allocate on nzstm,
// whatever the bucket's occupancy. Four objects are fixed per request: the
// results slice, the transaction closure, the state it writes (attempt
// counter, the PUT being applied) and the attempt's transaction descriptor.
// A request with PUTs adds one update closure, however many PUTs it has, and
// for each PUT the copy of the new value; a backup is a pooled header copy
// and allocates nothing, where a copy of the bucket's values would cost one
// more per key. A GET adds nothing: its result is the stored slice. So the
// benchmark's 8 GET + 8 PUT batch costs 4 + 1 + 8.
const (
	putAllocBudget   = 6
	getAllocBudget   = 4
	batchAllocBudget = 13
)

// TestBucketUpdateAllocs is the serving path's allocation gate (run by
// `make check` beside TestAtomicRealModeAllocFree).
func TestBucketUpdateAllocs(t *testing.T) {
	s, th, keys := oneBucket(t, "nzstm", 16, 128)
	val := bytes.Repeat([]byte{0xAB}, 128)
	put := []Op{{Kind: OpPut, Key: keys[5], Value: val}}
	get := []Op{{Kind: OpGet, Key: keys[5]}}
	var batch []Op
	for i := 0; i < 8; i++ {
		batch = append(batch, Op{Kind: OpGet, Key: keys[i]}, Op{Kind: OpPut, Key: keys[8+i], Value: val})
	}
	run := func(ops []Op) func() {
		return func() {
			if _, err := s.Do(th, ops, Budget{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 200; i++ { // warm the scratch and backup pools
		run(put)()
	}
	if avg := testing.AllocsPerRun(500, run(put)); avg > putAllocBudget+0.5 {
		t.Errorf("a PUT into a 16-key bucket allocates %.2f objects; want ≤ %d", avg, putAllocBudget)
	}
	if avg := testing.AllocsPerRun(500, run(get)); avg > getAllocBudget+0.5 {
		t.Errorf("a GET allocates %.2f objects; want ≤ %d (no copy of the value)", avg, getAllocBudget)
	}
	if avg := testing.AllocsPerRun(500, run(batch)); avg > batchAllocBudget+0.5 {
		t.Errorf("an 8 GET + 8 PUT batch allocates %.2f objects; want ≤ %d (one update closure, not one per PUT)", avg, batchAllocBudget)
	}
}

// TestStoredKeyIsItsOwnAllocation: a key the bucket has to insert, or the
// hotspot table sees for the first time, is cloned,
// so five stored bytes do not keep alive the 4 KB string they were cut from
// (a request's keys are substrings of one string); overwriting a key that is
// already there allocates nothing for it.
func TestStoredKeyIsItsOwnAllocation(t *testing.T) {
	big := strings.Repeat("x", 4096)
	key := big[100:105]
	b := &bucketData{}
	b.put(key, []byte("v1"))
	if stored := b.entries[0].key; stored != key || unsafe.StringData(stored) == unsafe.StringData(key) {
		t.Fatalf("inserted key %q shares its bytes with the string it was cut from", stored)
	}
	stored := unsafe.StringData(b.entries[0].key)
	v2 := []byte("v2")
	if avg := testing.AllocsPerRun(100, func() { b.put(key, v2) }); avg != 0 {
		t.Errorf("overwriting an existing key allocates %.1f objects, want 0", avg)
	}
	if len(b.entries) != 1 || unsafe.StringData(b.entries[0].key) != stored {
		t.Errorf("overwrite replaced the stored key")
	}

	// The hotspot table keeps keys too, and longer than a bucket might.
	var h hotShard
	h.note(key)
	h.note(key)
	for k, n := range h.cur {
		if k != key || *n != 2 || unsafe.StringData(k) == unsafe.StringData(key) {
			t.Errorf("hotspot table holds %q ×%d sharing=%v; want its own copy of %q, twice",
				k, *n, unsafe.StringData(k) == unsafe.StringData(key), key)
		}
	}
}

// BenchmarkBucketUpdate is the kv+tm line of the per-request budget: one
// committed PUT of a 128-byte value through Store.Do on nzstm, against
// buckets holding 1, 16 and 64 keys (the shipped 16×64 geometry puts ~16
// keys in a bucket at the benchmark's key counts). Run with -benchmem: B/op
// is the new value plus the fixed per-request objects at every occupancy.
func BenchmarkBucketUpdate(b *testing.B) {
	for _, occ := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("keys=%d", occ), func(b *testing.B) {
			s, th, keys := oneBucket(b, "nzstm", occ, 128)
			ops := []Op{{Kind: OpPut, Key: keys[occ/2], Value: bytes.Repeat([]byte{0xAB}, 128)}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Do(th, ops, Budget{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
