package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestV1PayloadIsCorrupt: a checksummed frame in the version-1 payload
// layout (no epoch) decodes as ErrCorrupt; there is no dual-format
// reader.
func TestV1PayloadIsCorrupt(t *testing.T) {
	payload := []byte{1}                       // version 1
	payload = binary.AppendUvarint(payload, 1) // one vector entry
	payload = binary.AppendUvarint(payload, 0)
	payload = binary.AppendUvarint(payload, 1)
	payload = binary.AppendUvarint(payload, 1) // one op
	payload = append(payload, 0)
	payload = binary.AppendUvarint(payload, 0)
	payload = binary.AppendUvarint(payload, 1)
	payload = append(payload, 'k')
	payload = binary.AppendUvarint(payload, 1)
	payload = append(payload, 'v')
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	b = append(b, payload...)
	if _, _, err := decodeFrame(b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v1 payload decoded with %v, want ErrCorrupt", err)
	}
}

// TestV2DirectoryRefused: a directory sealed by the layout whose frames
// and snapshots carry no epoch is refused by Open and Recover, naming it.
func TestV2DirectoryRefused(t *testing.T) {
	dir := t.TempDir()
	const mf = "nztm-wal v2 shards 2\n"
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(mf), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(Config{Dir: dir, Shards: 2})
	if err == nil || !strings.Contains(err.Error(), "v2 layout") || !strings.Contains(err.Error(), "no epoch") {
		t.Fatalf("Open of a v2 directory = %v, want a refusal naming the v2 layout", err)
	}
	if _, err := Recover(dir, 2); err == nil || !strings.Contains(err.Error(), "v2 layout") {
		t.Fatalf("Recover of a v2 directory = %v, want a refusal naming v2", err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, manifestName)); string(got) != mf {
		t.Fatalf("refused Open rewrote the MANIFEST to %q", got)
	}
}

// TestEpochAtFromFramesAndSnapshots: the log answers which epoch wrote
// an LSN from the frames it admitted, and after a restart from the
// snapshot header and the frames recovery replays past it — nothing
// below the snapshot LSN.
func TestEpochAtFromFramesAndSnapshots(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 2, FsyncNever)
	for lsn, epoch := range []uint64{0, 0, 3, 3, 5, 5} { // LSNs 1..5 of shard 0
		if lsn == 0 {
			continue
		}
		f := put(0, uint64(lsn), "k", "v")
		f.Epoch = epoch
		mustAppend(t, l, f)
	}
	want := map[uint64]uint64{0: 0, 1: 0, 2: 3, 3: 3, 4: 5, 5: 5}
	for lsn, e := range want {
		if got, ok := l.EpochAt(0, lsn); !ok || got != e {
			t.Errorf("EpochAt(0, %d) = %d, %v; want %d", lsn, got, ok, e)
		}
	}
	if _, ok := l.EpochAt(0, 6); ok {
		t.Error("EpochAt past the last frame is known")
	}
	if err := l.Snapshot(0, 3, map[string][]byte{"k": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	if lsns, epochs := l.StableEpochs(); lsns[0] != 5 || epochs[0] != 5 || lsns[1] != 0 || epochs[1] != 0 {
		t.Errorf("StableEpochs = %v %v, want [5 0] [5 0]", lsns, epochs)
	}
	l.Close()

	l, _ = openLog(t, dir, 2, FsyncNever)
	defer l.Close()
	for lsn, e := range want {
		got, ok := l.EpochAt(0, lsn)
		switch {
		case lsn == 1 || lsn == 2:
			if ok {
				t.Errorf("after restart EpochAt(0, %d) = %d, known below the snapshot at 3", lsn, got)
			}
		case !ok || got != e:
			t.Errorf("after restart EpochAt(0, %d) = %d, %v; want %d", lsn, got, ok, e)
		}
	}
}
