package wal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// manifestName seals the store geometry and the on-disk layout version
// into the data directory.
const manifestName = "MANIFEST"

func manifestContents(shards int) string {
	return fmt.Sprintf("nztm-wal v3 shards %d\n", shards)
}

// oldLayouts names each earlier on-disk layout this build refuses.
var oldLayouts = map[string]string{
	"v1": "one log per shard, duplicated cross-shard frames",
	"v2": "one commit log whose frames and snapshots carry no epoch",
}

// checkManifest validates an existing MANIFEST against this build's
// layout and the caller's geometry.
func checkManifest(mf string, shards int) error {
	for v, layout := range oldLayouts {
		if strings.HasPrefix(mf, "nztm-wal "+v+" ") {
			return fmt.Errorf("wal: MANIFEST %q is the %s layout (%s); "+
				"this build reads only v3 (frames and snapshots carry the epoch that wrote them) and has no dual-format reader",
				strings.TrimSpace(mf), v, layout)
		}
	}
	if mf != manifestContents(shards) {
		return fmt.Errorf("wal: MANIFEST %q does not match %d shards", strings.TrimSpace(mf), shards)
	}
	return nil
}

// State is the outcome of recovery: the committed state the directory
// proves, plus counters for observability and a private repair plan
// that Open applies before appending resumes.
type State struct {
	// Shards is the store geometry (from MANIFEST / the caller).
	Shards int
	// Keys is the recovered state: per shard, key → value.
	Keys []map[string][]byte
	// NextLSN is, per shard, the sequence number the next commit must
	// use: one past the last frame of the shard in the valid log prefix
	// and past the snapshot LSN.
	NextLSN []uint64
	// SnapshotLSN is, per shard, the LSN of the snapshot recovery
	// loaded (0 = none).
	SnapshotLSN []uint64
	// ReplayedFrames counts frames that applied at least one op (a frame
	// wholly covered by snapshots is not counted).
	ReplayedFrames uint64
	// TruncatedBytes counts log bytes abandoned at the first torn or
	// corrupt frame (including whole segments past it).
	TruncatedBytes uint64
	// Duration is how long recovery took.
	Duration time.Duration

	segs      []segment    // the chain that survives repair, all closed
	epochs    [][]epochRun // per shard: which epoch wrote which LSNs, from the snapshot on
	truncPath string       // segment to cut at the first defect ("" = none)
	truncSize int64
	remove    []string // files Open deletes: segments past the defect, empty tails, stray temps
}

// Recover reads the durable state out of dir without modifying any
// file (recovering twice must yield identical state). shards must
// match the MANIFEST when one exists. A missing or empty directory
// recovers to an empty store.
func Recover(dir string, shards int) (*State, error) {
	return RecoverFS(OSFS(), dir, shards)
}

// RecoverFS is Recover through an explicit filesystem seam: load the
// newest valid snapshot of every shard, then walk the one segment chain
// in file order, applying each frame's ops for shard s iff the frame's
// LSN there is above s's snapshot, and stop at the first torn or corrupt
// frame — which, with every frame written once into one log, can only
// be the tail of what was ever acknowledged.
//
// Two things fail loudly instead of being repaired. A frame more than
// one LSN past its shard's connected history (the covered range was
// lost — e.g. the newest snapshot rotted after its truncation ran):
// replaying the disconnected suffix would silently drop committed,
// possibly acknowledged writes. And an I/O *error* while reading:
// unlike log damage, an unreadable byte proves nothing about what
// follows it, so truncating there could drop acknowledged writes that
// are still physically intact.
func RecoverFS(fsys FS, dir string, shards int) (*State, error) {
	start := time.Now()
	if shards <= 0 {
		return nil, errors.New("wal: recover with no shards")
	}
	st := &State{
		Shards:      shards,
		Keys:        make([]map[string][]byte, shards),
		NextLSN:     make([]uint64, shards),
		SnapshotLSN: make([]uint64, shards),
	}
	st.epochs = make([][]epochRun, shards)
	for s := range st.Keys {
		st.Keys[s] = make(map[string][]byte)
		st.NextLSN[s] = 1
		st.epochs[s] = []epochRun{{}}
	}
	entries, err := fsys.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		st.Duration = time.Since(start)
		return st, nil
	}
	if err != nil {
		return nil, err
	}
	if mf, err := fsys.ReadFile(filepath.Join(dir, manifestName)); err == nil {
		if err := checkManifest(string(mf), shards); err != nil {
			return nil, err
		}
	}

	// Index the directory: snapshots per shard (descending LSN) and the
	// segment chain (ascending sequence).
	snaps := make([][]SegmentRef, shards) // Seq holds the snapshot LSN
	var refs []SegmentRef
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(dir, name)
		if strings.HasPrefix(name, "tmp-") {
			st.remove = append(st.remove, path)
		} else if seq, ok := parseSegmentName(name); ok {
			refs = append(refs, SegmentRef{Seq: seq, Path: path})
		} else if sh, lsn, ok := parseSnapshotName(name); ok && sh < shards {
			snaps[sh] = append(snaps[sh], SegmentRef{Seq: lsn, Path: path})
		}
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Seq < refs[j].Seq })
	for s := 0; s < shards; s++ {
		sort.Slice(snaps[s], func(i, j int) bool { return snaps[s][i].Seq > snaps[s][j].Seq })
		// Latest snapshot that decodes cleanly wins; older ones are a
		// fallback against a defective latest file.
		for _, sn := range snaps[s] {
			b, err := fsys.ReadFile(sn.Path)
			if err != nil {
				continue
			}
			sh, lsn, epoch, keys, err := DecodeSnapshot(b)
			if err != nil || sh != s || lsn != sn.Seq {
				continue
			}
			st.SnapshotLSN[s] = lsn
			st.Keys[s] = keys
			st.epochs[s] = []epochRun{{from: lsn, epoch: epoch}}
			break
		}
	}

	// have is each shard's connected history so far; seen additionally
	// counts snapshot-covered leftovers (it bounds what a segment holds).
	have := append([]uint64(nil), st.SnapshotLSN...)
	seen := make([]uint64, shards)
	fresh := make([]bool, shards)
	ends := make([]int64, len(refs))     // per segment: end of valid data
	lasts := make([][]uint64, len(refs)) // per segment: seen when the walk left it
	defect := len(refs)                  // first segment that does not fully survive
	var defectOff int64
	sr := &StreamReader{fs: fsys, segs: refs}
	defer sr.Close()
	cur := 0
	for {
		e, err := sr.Next()
		if err == nil {
			for ; cur < e.Seg; cur++ {
				lasts[cur] = append([]uint64(nil), seen...)
			}
			if err = st.replay(e.Frame, have, seen, fresh); err == nil {
				ends[e.Seg] = e.End
				continue
			}
			if errors.Is(err, ErrGap) {
				return nil, err
			}
			defect, defectOff = e.Seg, e.Off
			break
		}
		if errors.Is(err, io.EOF) {
			break // clean end of the chain: every segment survives as-is
		}
		if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrGap) {
			return nil, fmt.Errorf("wal: reading log: %w", err)
		}
		// First log defect (torn tail, corrupt frame, missing segment):
		// the valid prefix ends here. Recovery never errors on log damage.
		defect, defectOff = sr.Pos()
		break
	}
	for ; cur < len(refs); cur++ {
		lasts[cur] = append([]uint64(nil), seen...)
	}
	for s := range have {
		st.NextLSN[s] = have[s] + 1
	}

	// Plan the repair: cut the defect segment to its valid prefix, drop
	// every later segment, and drop trailing segments left with nothing
	// in them (Open always starts a fresh one).
	for i := defect; i < len(refs); i++ {
		size := int64(0)
		if fi, serr := fsys.Stat(refs[i].Path); serr == nil {
			size = fi.Size()
		}
		if i == defect && defectOff > 0 {
			st.truncPath, st.truncSize = refs[i].Path, defectOff
			st.TruncatedBytes += uint64(size - defectOff)
			continue
		}
		st.TruncatedBytes += uint64(size)
		st.remove = append(st.remove, refs[i].Path)
	}
	live := defect
	if st.truncPath != "" {
		live++
	}
	for live > 0 && ends[live-1] == 0 {
		live--
		st.remove = append(st.remove, refs[live].Path)
	}
	for i := 0; i < live; i++ {
		st.segs = append(st.segs, segment{seq: refs[i].Seq, path: refs[i].Path, last: lasts[i]})
	}
	st.Duration = time.Since(start)
	return st, nil
}

// replay applies one frame of the walk. Per vector entry: at or below
// the shard's snapshot is covered (leftovers of an interrupted
// truncation or of a catch-up install — skip that shard's ops); exactly
// one past the shard's history is applied; further ahead is lost
// history (ErrGap, loud); anything else is a stale duplicate
// (ErrCorrupt — the valid prefix ends before this frame).
func (st *State) replay(f *Frame, have, seen []uint64, fresh []bool) error {
	for _, sl := range f.Shards {
		switch {
		case sl.Shard < 0 || sl.Shard >= st.Shards:
			return fmt.Errorf("%w: frame names shard %d of %d", ErrCorrupt, sl.Shard, st.Shards)
		case sl.LSN <= st.SnapshotLSN[sl.Shard]:
		case sl.LSN == have[sl.Shard]+1:
		case sl.LSN > have[sl.Shard]:
			return fmt.Errorf("wal: shard %d: unrecoverable gap: the log resumes at lsn %d but the snapshot and earlier frames cover only lsn %d: %w",
				sl.Shard, sl.LSN, have[sl.Shard], ErrGap)
		default:
			return fmt.Errorf("%w: shard %d lsn %d replayed twice", ErrCorrupt, sl.Shard, sl.LSN)
		}
	}
	applied := false
	for _, sl := range f.Shards {
		if sl.LSN > seen[sl.Shard] {
			seen[sl.Shard] = sl.LSN
		}
		if sl.LSN > st.SnapshotLSN[sl.Shard] {
			have[sl.Shard] = sl.LSN
			fresh[sl.Shard] = true
			applied = true
			st.epochs[sl.Shard] = noteEpoch(st.epochs[sl.Shard], sl.LSN, f.Epoch)
		}
	}
	if !applied {
		return nil
	}
	for i := range f.Ops {
		op := &f.Ops[i]
		if op.Shard < 0 || op.Shard >= st.Shards || !fresh[op.Shard] {
			continue
		}
		if op.Del {
			delete(st.Keys[op.Shard], op.Key)
		} else {
			st.Keys[op.Shard][op.Key] = op.Val
		}
	}
	for _, sl := range f.Shards {
		fresh[sl.Shard] = false
	}
	st.ReplayedFrames++
	return nil
}

// parseSegmentName parses "wal-" + 16-hex sequence + ".log".
func parseSegmentName(name string) (uint64, bool) {
	mid, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return 0, false
	}
	if mid, ok = strings.CutSuffix(mid, ".log"); !ok || len(mid) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(mid, 16, 64)
	return seq, err == nil
}

// parseSnapshotName parses "snap-" + 3-digit shard + "-" + 16-hex LSN +
// ".snap".
func parseSnapshotName(name string) (shard int, lsn uint64, ok bool) {
	mid, ok := strings.CutPrefix(name, "snap-")
	if !ok {
		return 0, 0, false
	}
	if mid, ok = strings.CutSuffix(mid, ".snap"); !ok {
		return 0, 0, false
	}
	shardStr, lsnStr, ok := strings.Cut(mid, "-")
	if !ok {
		return 0, 0, false
	}
	sh, err := strconv.Atoi(shardStr)
	if err != nil || sh < 0 {
		return 0, 0, false
	}
	l, err := strconv.ParseUint(lsnStr, 16, 64)
	if err != nil {
		return 0, 0, false
	}
	return sh, l, true
}

// Open recovers dir, repairs it (cuts the torn tail, deletes segments
// past it and stray temp files), and returns a Log positioned to append
// at each shard's NextLSN in a fresh segment, plus the recovered state.
// The caller loads State.Keys into the store before serving.
func Open(cfg Config) (*Log, *State, error) {
	if cfg.Shards <= 0 {
		return nil, nil, errors.New("wal: open with no shards")
	}
	if cfg.FsyncInterval <= 0 {
		cfg.FsyncInterval = 50 * time.Millisecond
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = OSFS()
	}
	if err := fsys.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	st, err := RecoverFS(fsys, cfg.Dir, cfg.Shards)
	if err != nil {
		return nil, nil, err
	}
	_, err = fsys.Stat(filepath.Join(cfg.Dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		err = writeDurable(fsys, cfg.Dir, manifestName, []byte(manifestContents(cfg.Shards)))
	}
	if err != nil {
		return nil, nil, err
	}

	// Apply the repair plan: future appends must land after a clean,
	// valid prefix, not interleave with garbage.
	if st.truncPath != "" {
		if err := fsys.Truncate(st.truncPath, st.truncSize); err != nil {
			return nil, nil, err
		}
	}
	for _, p := range st.remove {
		if err := fsys.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, nil, err
		}
	}

	seq := uint64(1)
	if n := len(st.segs); n > 0 {
		seq = st.segs[n-1].seq + 1
	}
	path := filepath.Join(cfg.Dir, segmentName(seq))
	f, err := fsys.OpenFile(path, osCreateAppendTrunc, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err := syncDir(fsys, cfg.Dir); err != nil {
		f.Close()
		return nil, nil, err
	}

	l := &Log{
		cfg:     cfg,
		dir:     cfg.Dir,
		fs:      fsys,
		f:       f,
		segs:    append(append([]segment(nil), st.segs...), segment{seq: seq, path: path}),
		next:    append([]uint64(nil), st.NextLSN...),
		stable:  make([]uint64, cfg.Shards),
		cut:     make([]uint64, cfg.Shards),
		snapLSN: append([]uint64(nil), st.SnapshotLSN...),
		epochs:  st.epochs,
		quit:    make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	for s, next := range l.next {
		l.stable[s] = next - 1
	}
	if cfg.Fsync == FsyncInterval {
		l.wg.Add(1)
		go l.syncLoop()
	}
	return l, st, nil
}
