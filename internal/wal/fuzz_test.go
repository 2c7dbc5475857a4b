package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALFrame throws arbitrary bytes at the frame decoder: it must
// never panic, and everything it accepts must re-encode to the exact
// bytes it consumed (round-trip fidelity is what makes replay safe).
func FuzzWALFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendFrame(nil, &Frame{
		Shards: []ShardLSN{{Shard: 0, LSN: 1}},
		Ops:    []Op{{Shard: 0, Key: "k", Val: []byte("v")}},
	}))
	f.Add(appendFrame(nil, &Frame{
		Epoch:  300, // a two-byte uvarint
		Shards: []ShardLSN{{Shard: 1, LSN: 9}, {Shard: 3, LSN: 2}},
		Ops:    []Op{{Shard: 1, Key: "a", Del: true}, {Shard: 3, Key: "", Val: nil}},
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := decodeFrame(b)
		if err != nil {
			if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		re := appendFrame(nil, fr)
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("re-encode mismatch:\n in: %x\nout: %x", b[:n], re)
		}
	})
}

// FuzzRecoverLog plants arbitrary bytes (a bit-flipped mutation of the
// input) as the log's one segment and recovers: recovery must never
// panic, never error on garbage (it stops cleanly at the first torn or
// corrupt frame — the only error it may return is the explicit
// unrecoverable-gap refusal, for a checksummed frame that does not
// connect to LSN 1), and never hand back a record that a checksummed
// frame did not prove.
func FuzzRecoverLog(f *testing.F) {
	valid := appendFrame(nil, &Frame{
		Epoch:  1,
		Shards: []ShardLSN{{Shard: 0, LSN: 1}, {Shard: 1, LSN: 1}},
		Ops:    []Op{{Shard: 0, Key: "k", Val: []byte("v")}, {Shard: 1, Key: "j", Val: []byte("w")}},
	})
	valid = appendFrame(valid, &Frame{
		Epoch:  2,
		Shards: []ShardLSN{{Shard: 0, LSN: 2}},
		Ops:    []Op{{Shard: 0, Key: "k", Del: true}},
	})
	f.Add([]byte{}, uint16(0))
	f.Add(valid, uint16(3))
	f.Add(valid[:len(valid)-4], uint16(0))
	f.Fuzz(func(t *testing.T, b []byte, flip uint16) {
		const shards = 2
		dir := t.TempDir()
		mut := append([]byte(nil), b...)
		if len(mut) > 0 {
			mut[int(flip)%len(mut)] ^= 1 << (flip % 8)
		}
		seg := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(seg, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Recover(dir, shards)
		if err != nil {
			if !errors.Is(err, ErrGap) {
				t.Fatalf("Recover must stop cleanly, got: %v", err)
			}
			return
		}
		// Never return corrupt records: every recovered value must be
		// provable from a checksummed frame retained in the file — an
		// op that actually wrote that exact (key, value) pair.
		var frames []*Frame
		sr := NewStreamReader([]SegmentRef{{Seq: 1, Path: seg}})
		defer sr.Close()
		for {
			e, err := sr.Next()
			if err != nil {
				break
			}
			frames = append(frames, e.Frame)
		}
		for shard := 0; shard < shards; shard++ {
			for k, v := range st.Keys[shard] {
				proved := false
				for _, fr := range frames {
					for i := range fr.Ops {
						op := &fr.Ops[i]
						if op.Shard == shard && !op.Del && op.Key == k && bytes.Equal(op.Val, v) {
							proved = true
						}
					}
				}
				if !proved {
					t.Fatalf("recovered shard %d %q=%q not provable from retained frames", shard, k, v)
				}
			}
		}
	})
}
