package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"nztm/internal/kv"
	"nztm/internal/wal"
)

// sampleRequests seeds the fuzz corpora with well-formed payloads covering
// every op kind, nil-vs-empty blobs, batches, and vector-aware requests
// (staleness tokens).
func sampleRequests(t interface{ Fatal(...any) }) [][]byte {
	var seeds [][]byte
	add := func(id uint64, ops []kv.Op) {
		p, err := appendRequest(nil, id, ops)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, p)
	}
	addVec := func(id uint64, ops []kv.Op, st *Staleness) {
		p, err := appendRequestVec(nil, id, ops, st)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, p)
	}
	add(1, []kv.Op{{Kind: kv.OpGet, Key: "k"}})
	add(2, []kv.Op{{Kind: kv.OpPut, Key: "k", Value: []byte("v")}})
	add(3, []kv.Op{{Kind: kv.OpPut, Key: "", Value: []byte{}}})
	add(4, []kv.Op{{Kind: kv.OpDelete, Key: "gone"}})
	add(5, []kv.Op{{Kind: kv.OpCAS, Key: "k", Expect: nil, Value: []byte("new")}})
	add(6, []kv.Op{{Kind: kv.OpCAS, Key: "k", Expect: []byte{}, Value: nil}})
	add(7, []kv.Op{
		{Kind: kv.OpGet, Key: "a"},
		{Kind: kv.OpPut, Key: "b", Value: []byte("1")},
		{Kind: kv.OpCAS, Key: "c", Expect: []byte("x"), Value: []byte("y")},
	})
	addVec(8, []kv.Op{{Kind: kv.OpGet, Key: "k"}}, &Staleness{MaxLagMs: NoLagBudget})
	addVec(9, []kv.Op{{Kind: kv.OpGet, Key: "k"}}, &Staleness{MaxLagMs: 0,
		Vector: []wal.ShardLSN{{Shard: 0, LSN: 12}, {Shard: 3, LSN: 7}}})
	addVec(10, []kv.Op{{Kind: kv.OpPut, Key: "k", Value: []byte("v")}}, &Staleness{
		MaxLagMs: 250, Vector: []wal.ShardLSN{{Shard: 1, LSN: 1}}})
	return seeds
}

// FuzzParseRequest checks that any payload the parser accepts survives an
// encode→parse round trip unchanged, that the parser never panics or
// over-reads on arbitrary input and refuses with its one error, and that a
// decoded key is a string of its own: the values alias the payload, the
// keys must not change when the payload's buffer is written again.
func FuzzParseRequest(f *testing.F) {
	for _, s := range sampleRequests(f) {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var r request
		if err := parseRequest(payload, &r); err != nil {
			if !errors.Is(err, errFrame) {
				t.Fatalf("refused with %v, want errFrame", err)
			}
			return
		}
		re, err := appendRequestVec(nil, r.id, r.ops, r.st)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		var r2 request
		if err := parseRequest(re, &r2); err != nil {
			t.Fatalf("re-encoded request does not re-parse: %v", err)
		}
		if r2.id != r.id || !reflect.DeepEqual(r2.ops, r.ops) || !reflect.DeepEqual(r2.st, r.st) {
			t.Fatalf("round trip changed request:\n  ops  = %#v st  = %#v\n  ops2 = %#v st2 = %#v",
				r.ops, r.st, r2.ops, r2.st)
		}
		for i := range payload {
			payload[i] ^= 0xFF
		}
		for i := range r.keys {
			r.keys[i] ^= 0xFF
		}
		for i := range r.ops {
			if r.ops[i].Key != r2.ops[i].Key {
				t.Fatalf("op %d: key changed to %q with the payload buffer, want %q", i, r.ops[i].Key, r2.ops[i].Key)
			}
		}
	})
}

// FuzzParseResponse is the response-side round-trip counterpart.
func FuzzParseResponse(f *testing.F) {
	seeds := [][]byte{
		appendResponse(nil, 1, StatusOK, []kv.Result{{Found: true, Value: []byte("v")}}, ""),
		appendResponse(nil, 2, StatusOK, []kv.Result{{Found: false}, {Found: true, Value: []byte{}}}, ""),
		appendResponse(nil, 3, StatusBudget, nil, "kv: retry budget exhausted"),
		appendResponse(nil, 4, StatusBad, nil, ""),
		appendResponse(nil, 5, StatusOK, nil, ""),
		appendResponseVec(nil, 6, StatusOKVec, []kv.Result{{Found: true, Value: []byte("v")}},
			[]wal.ShardLSN{{Shard: 0, LSN: 9}, {Shard: 2, LSN: 4}}, ""),
		appendResponseVec(nil, 7, StatusLagging, nil, nil, "replica 812ms behind"),
		appendResponseVec(nil, 8, StatusNotPrimary, nil, nil, "primary=127.0.0.1:4100"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		id, status, results, vec, errmsg, err := parseResponse(payload)
		if err != nil {
			return
		}
		re := appendResponseVec(nil, id, status, results, vec, errmsg)
		id2, status2, results2, vec2, errmsg2, err := parseResponse(re)
		if err != nil {
			t.Fatalf("re-encoded response does not re-parse: %v", err)
		}
		if id2 != id || status2 != status || errmsg2 != errmsg ||
			!reflect.DeepEqual(results2, results) || !reflect.DeepEqual(vec2, vec) {
			t.Fatalf("round trip changed response: (%d %d %q %#v %#v) -> (%d %d %q %#v %#v)",
				id, status, errmsg, results, vec, id2, status2, errmsg2, results2, vec2)
		}
	})
}

// FuzzFrame checks the length-prefixed framing layer: whatever readFrame
// accepts must survive writeFrame→readFrame byte-for-byte, and arbitrary
// streams never panic it.
func FuzzFrame(f *testing.F) {
	frame := func(payload []byte) []byte {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		return append(hdr[:], payload...)
	}
	f.Add(frame([]byte("hello")))
	f.Add(frame(nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // over MaxFrame
	f.Add([]byte{0, 0})                   // truncated header
	f.Fuzz(func(t *testing.T, stream []byte) {
		payload, _, err := readFrame(newBufReader(bytes.NewReader(stream)), nil)
		if err != nil {
			return
		}
		got := append([]byte(nil), payload...)

		var out bytes.Buffer
		bw := newBufWriter(&out)
		if err := writeFrame(bw, got); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		payload2, _, err := readFrame(newBufReader(&out), nil)
		if err != nil {
			t.Fatalf("re-framed payload does not re-read: %v", err)
		}
		if !bytes.Equal(payload2, got) {
			t.Fatalf("frame round trip changed payload: %q -> %q", got, payload2)
		}
	})
}
