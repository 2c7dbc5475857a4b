package repl

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"nztm/internal/wal"
)

// sampleMessages covers every message type with representative fields.
func sampleMessages() []*Message {
	return []*Message{
		{Type: MsgSubscribe, Epoch: 3, NodeID: 2, KVAddr: "127.0.0.1:4100",
			Vector: []uint64{12, 0, 7, 9}, Epochs: []uint64{3, 0, 2, 3}},
		{Type: MsgSubscribe, Epoch: 1, NodeID: 0, KVAddr: "", Vector: nil},
		{Type: MsgFrames, Epoch: 9, Frames: [][]byte{{1, 2, 3}, {}, {0xff}}},
		{Type: MsgFrames, Epoch: 9, Frames: nil},
		{Type: MsgHeartbeat, Epoch: 4, Stamp: 1722550000123, KVAddr: "10.0.0.8:4000",
			Vector: []uint64{800, 12}},
		{Type: MsgSnapshot, Epoch: 2, Reseed: true, Last: true, Data: []byte{0x2a, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 3}},
		{Type: MsgSnapshot, Epoch: 2, Last: false, Data: nil},
		{Type: MsgAck, Epoch: 5, Stamp: 9000000123, Vector: []uint64{40, 2}},
		{Type: MsgReject, Epoch: 8, Code: RejectNotPrimary, Text: "not primary",
			KVAddr: "127.0.0.1:4100", ReplAddr: "127.0.0.1:4200"},
		{Type: MsgReject, Epoch: 8, Code: RejectStaleEpoch, Text: "stale epoch 3 < 8"},
		{Type: MsgPoll, Epoch: 6, NodeID: 1, LastEpoch: 5, Total: 99},
		{Type: MsgPollResp, Epoch: 6, PrimaryLive: true,
			KVAddr: "127.0.0.1:4101", ReplAddr: "127.0.0.1:4201"},
		{Type: MsgVote, Epoch: 7, NodeID: 3, LastEpoch: 6, Total: 120},
		{Type: MsgPollResp, Epoch: 7, Granted: true},
	}
}

// msgEqual compares messages treating nil and empty containers alike.
func msgEqual(a, b *Message) bool {
	if a.Type != b.Type || a.Epoch != b.Epoch || a.NodeID != b.NodeID ||
		a.KVAddr != b.KVAddr || a.Total != b.Total || a.Stamp != b.Stamp ||
		a.Reseed != b.Reseed || a.LastEpoch != b.LastEpoch ||
		a.Granted != b.Granted || a.Last != b.Last || a.Code != b.Code || a.Text != b.Text ||
		a.ReplAddr != b.ReplAddr || a.PrimaryLive != b.PrimaryLive {
		return false
	}
	if !slices.Equal(a.Vector, b.Vector) || !slices.Equal(a.Epochs, b.Epochs) || !bytes.Equal(a.Data, b.Data) {
		return false
	}
	if len(a.Frames) != len(b.Frames) {
		return false
	}
	for i := range a.Frames {
		if !bytes.Equal(a.Frames[i], b.Frames[i]) {
			return false
		}
	}
	return true
}

func TestMessageRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		enc, err := EncodeMessage(nil, m)
		if err != nil {
			t.Fatalf("encode %+v: %v", m, err)
		}
		got, err := ParseMessage(enc)
		if err != nil {
			t.Fatalf("parse %+v: %v", m, err)
		}
		if !msgEqual(m, got) {
			t.Fatalf("round trip changed message:\n in: %+v\nout: %+v", m, got)
		}
	}
}

func TestParseMessageRejectsDamage(t *testing.T) {
	for _, m := range sampleMessages() {
		enc, err := EncodeMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		// Truncations must error, never panic or misparse silently —
		// except cuts that happen to form a shorter valid message, which
		// the strict trailing-bytes check makes rare; verify no panic and
		// that a success still round-trips.
		for cut := 0; cut < len(enc); cut++ {
			if got, err := ParseMessage(enc[:cut]); err == nil {
				re, err := EncodeMessage(nil, got)
				if err != nil || !bytes.Equal(re, enc[:cut]) {
					t.Fatalf("truncated parse at %d/%d did not re-encode identically", cut, len(enc))
				}
			}
		}
		// Trailing garbage must error (strict framing).
		if _, err := ParseMessage(append(append([]byte(nil), enc...), 0)); err == nil {
			t.Fatalf("trailing byte accepted for %+v", m)
		}
	}
	if _, err := ParseMessage(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := ParseMessage([]byte{99, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("unknown type accepted")
	}
}

// FuzzReplFrame fuzzes the replication message decoder: every accepted
// payload must re-encode byte-identically (the codec is canonical), and
// no input may panic the parser.
func FuzzReplFrame(f *testing.F) {
	for _, m := range sampleMessages() {
		enc, err := EncodeMessage(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(MsgFrames), 0, 0, 0, 0, 0, 0, 0, 1, 0, 2})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := ParseMessage(payload)
		if err != nil {
			return
		}
		re, err := EncodeMessage(nil, m)
		if err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, payload) {
			t.Fatalf("accepted payload is not canonical:\n in: %x\nout: %x", payload, re)
		}
	})
}

func TestMergeVec(t *testing.T) {
	a := mergeVec(nil,
		[]wal.ShardLSN{{Shard: 1, LSN: 5}, {Shard: 3, LSN: 2}})
	a = mergeVec(a,
		[]wal.ShardLSN{{Shard: 1, LSN: 3}, {Shard: 2, LSN: 9}, {Shard: 3, LSN: 7}})
	want := map[int]uint64{1: 5, 2: 9, 3: 7}
	got := map[int]uint64{}
	for _, sl := range a {
		got[sl.Shard] = sl.LSN
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("mergeVec: want %v, got %v", want, got)
	}
}
