// Package kv is a sharded transactional key-value store built on the
// repository's TM systems: the serving-path workload the ROADMAP asks for,
// running NZSTM (or any other tm.System) in real-concurrency mode.
//
// Keys are strings, values are opaque byte slices. Every key hashes to one
// of shards × bucketsPerShard transactional bucket objects; a request —
// whether a single GET or a multi-key batch — executes as ONE transaction
// over the buckets it touches. Because all buckets belong to a single
// shared tm.System, cross-shard batches need no extra machinery: the TM
// protocol itself provides atomicity and isolation across shards, which is
// exactly the paper's pitch (zero-indirection data access with nonblocking
// conflict resolution keeping the common, uncontended case fast).
package kv

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"nztm/internal/tm"
	"nztm/internal/trace"
	"nztm/internal/wal"
)

// OpKind selects a key-value operation.
type OpKind uint8

// Operations.
const (
	OpGet    OpKind = iota // read a key
	OpPut                  // store a value unconditionally
	OpDelete               // remove a key
	OpCAS                  // compare-and-swap a value
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpDelete:
		return "DELETE"
	case OpCAS:
		return "CAS"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one key-value operation inside a batch.
type Op struct {
	Kind OpKind
	Key  string
	// Value is the new value for PUT and CAS. A nil Value on CAS deletes
	// the key when the expectation matches; a nil Value on PUT stores the
	// empty value (a stored value is never nil — nil means absent). Do
	// stores a copy: the caller keeps its buffer and may reuse it as soon
	// as Do returns.
	Value []byte
	// Expect is CAS's expected current value; nil means "key must be
	// absent". Ignored by the other ops.
	Expect []byte
}

// Result is the outcome of one Op.
type Result struct {
	// Found reports: GET — the key was present; DELETE — the key existed;
	// CAS — the expectation matched and the swap was applied; PUT — always
	// true.
	Found bool
	// Value is the value read by a GET (nil when absent, never nil when
	// found). It is the stored slice itself, shared with the store and
	// with other readers: read-only, and unchanged by any later write to
	// the key, which replaces the slice rather than its bytes.
	Value []byte
}

// Budget bounds the work a single request may spend retrying aborted
// transaction attempts, so one pathologically contended request cannot
// stall a serving thread forever.
type Budget struct {
	// MaxAttempts caps transaction attempts (0 = unlimited).
	MaxAttempts int
	// Deadline, when nonzero, stops retrying once passed. It is checked
	// before every attempt, including the first, so a request arriving
	// with an already-expired deadline fails fast without burning a
	// transaction.
	Deadline time.Time
	// Backoff, when positive, sleeps between retry attempts: attempt n
	// waits an exponentially growing duration starting at Backoff, with
	// jitter in [d/2, d), capped by BackoffMax (default 64×Backoff) and by
	// the time remaining until Deadline. Spacing retries out keeps a
	// contended key from turning the server's thread pool into a spin
	// farm.
	Backoff time.Duration
	// BackoffMax caps the per-attempt backoff (0 = 64×Backoff).
	BackoffMax time.Duration
}

// backoff returns the jittered sleep before attempt (2-based: the first
// retry is attempt 2), never past the deadline. rnd supplies the jitter
// bits.
func (b Budget) backoff(attempt int, rnd uint64) time.Duration {
	d := Backoff(b.Backoff, b.BackoffMax, attempt, rnd)
	if d > 0 && !b.Deadline.IsZero() {
		if remain := time.Until(b.Deadline); d > remain {
			d = remain
		}
	}
	return d
}

// Backoff is the one retry-spacing formula, shared by the store's retry
// loop and the client's RetryPolicy: the sleep before attempt (2-based)
// doubles from base, is capped by max (0 = 64×base), and is jittered over
// its upper half, [d/2, d), by rnd. A non-positive base, or the first
// attempt, sleeps 0.
func Backoff(base, max time.Duration, attempt int, rnd uint64) time.Duration {
	if base <= 0 || attempt < 2 {
		return 0
	}
	if max <= 0 {
		max = 64 * base
	}
	d := base
	for i := 2; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if half := d / 2; half > 0 {
		d = half + time.Duration(rnd%uint64(half))
	}
	return d
}

// ErrBudget is returned when a request's retry budget is exhausted before
// its transaction committed. The request had no effect.
var ErrBudget = errors.New("kv: retry budget exhausted")

// ErrReadOnly is returned when a write batch is shed because the store's
// log has stopped after a storage error (a full disk, a failed write or
// fsync). The request had no effect — not in memory and not in the log —
// so it is cleanly retriable against a healthy replica. Reads keep
// serving.
var ErrReadOnly = errors.New("kv: store is read-only (log stopped)")

// ErrFenced is returned when a write batch is shed because the store is
// fenced: its replication node no longer leads (see Store.Fence). The
// request had no effect, so it is cleanly retriable against the primary.
var ErrFenced = errors.New("kv: store is fenced (not the primary)")

// errCASMiss aborts a multi-op batch whose CAS expectation failed; it
// never escapes Do.
var errCASMiss = errors.New("kv: cas expectation failed")

// Store is the sharded transactional key-value store.
type Store struct {
	sys     tm.System
	shards  [][]tm.Object // shards[s][b] is one transactional bucket
	buckets int           // buckets per shard
	metrics *Metrics      // nil until EnableMetrics; nil is fully inert
	dur     *durState     // nil for memory-only stores; nil is fully inert
}

// New creates a memory-only store with shards × bucketsPerShard
// transactional bucket objects on sys. Geometry only affects conflict
// granularity, never correctness; see DESIGN.md ("Key-to-object
// mapping"). For crash-durable stores see NewDurable.
func New(sys tm.System, shards, bucketsPerShard int) *Store {
	if shards <= 0 {
		shards = 1
	}
	if bucketsPerShard <= 0 {
		bucketsPerShard = 1
	}
	return buildStore(sys, shards, bucketsPerShard, nil)
}

// buildStore builds the bucket matrix, loading any recovered per-shard
// state into the bucket payloads BEFORE the objects are published to
// the TM system — recovery is a construction-time event, not a stream
// of transactions.
func buildStore(sys tm.System, shards, bucketsPerShard int, recovered []map[string][]byte) *Store {
	s := &Store{sys: sys, buckets: bucketsPerShard}
	data := make([][]*bucketData, shards)
	for i := range data {
		data[i] = make([]*bucketData, bucketsPerShard)
		for j := range data[i] {
			data[i][j] = &bucketData{}
		}
	}
	for _, m := range recovered {
		for k, v := range m {
			// Placement is by hash, the same rule lookups use; the
			// frame's recorded shard always agrees because writers
			// derive it from the same hash.
			h := fnv1a(k)
			data[h%uint64(shards)][(h>>32)%uint64(bucketsPerShard)].put(k, v)
		}
	}
	s.shards = make([][]tm.Object, shards)
	for i := range s.shards {
		s.shards[i] = make([]tm.Object, bucketsPerShard)
		for j := range s.shards[i] {
			s.shards[i][j] = sys.NewObject(data[i][j])
		}
	}
	return s
}

// System returns the backing TM system (for stats reporting).
func (s *Store) System() tm.System { return s.sys }

// Shards returns the shard count.
func (s *Store) Shards() int { return len(s.shards) }

// BucketsPerShard returns the per-shard bucket count.
func (s *Store) BucketsPerShard() int { return s.buckets }

// fnv1a is the 64-bit FNV-1a hash (inlined to avoid per-op allocation).
func fnv1a(key string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return h
}

// object returns the bucket object key lives in. Shard and bucket indices
// come from disjoint hash bits so shard count and bucket count do not have
// to be coprime to spread keys evenly.
func (s *Store) object(key string) tm.Object {
	o, _ := s.locate(key)
	return o
}

// locate returns key's bucket object and shard index.
func (s *Store) locate(key string) (tm.Object, int) {
	h := fnv1a(key)
	shard := h % uint64(len(s.shards))
	bucket := (h >> 32) % uint64(s.buckets)
	return s.shards[shard][bucket], int(shard)
}

// Do executes ops as one transaction on th, retrying aborted attempts
// within budget. th must not be used concurrently by another goroutine for
// the duration of the call.
//
// Batch semantics: either the whole batch commits or none of it does. A
// CAS whose expectation fails inside a multi-op batch aborts the entire
// batch (no effects; Do returns nil error) — results identify the failing
// op with Found == false, and ops after it are zero-valued. A single-op
// CAS miss simply reports Found == false.
//
// On ErrBudget the request had no effect.
func (s *Store) Do(th *tm.Thread, ops []Op, budget Budget) ([]Result, error) {
	results, _, err := s.DoSpan(th, ops, budget, nil)
	return results, err
}

// doState is what one DoSpan call's closures write: the attempt counter, and
// the PUT being applied with the one update closure that applies it. It is
// one object for the whole request — a closure of its own per PUT would be
// one more per op — which works because tx.Update runs its callback before
// it returns.
type doState struct {
	attempt int
	key     string
	val     []byte
	put     func(tm.Data) // stores val under key; made by the first PUT
}

// DoSpan is Do with a request span timeline, returning the request's
// commit vector as well. The tm stage is stamped when the transaction
// resolves (attempts recorded), and the durability barrier stamps the
// WAL/stability/replication-gate stages; sp may be nil. The commit vector
// holds, for each shard the transaction touched, the highest LSN its
// results depend on (its own writes and every observed read prefix).
// Clients hold it as a read-your-writes token and hand it to replicas,
// which refuse to serve until they have applied at least that prefix. Nil
// for memory-only stores.
func (s *Store) DoSpan(th *tm.Thread, ops []Op, budget Budget, sp *trace.Span) ([]Result, []wal.ShardLSN, error) {
	results := make([]Result, len(ops))
	st := &doState{}
	m := s.metrics
	var rec *commitRec // durability bookkeeping; nil when memory-only
	if s.dur != nil {
		// Stopped-log gate, BEFORE any transaction runs: a write batch
		// executed in memory but unloggable would either wedge behind an
		// unreachable durability barrier or diverge memory from the log.
		// Shedding here means the request had no effect at all, which is
		// what makes StatusReadOnly cleanly retriable elsewhere — whatever
		// storage error stopped the log. Running stores pay one atomic
		// load; read-only batches always pass (reads of the durable prefix
		// keep serving).
		writes := hasWriteOps(ops)
		if gerr := s.dur.log.Degraded(); gerr != nil && writes {
			return nil, nil, fmt.Errorf("%w: %v", ErrReadOnly, gerr)
		}
		rec = s.dur.recs.Get().(*commitRec)
		defer s.dur.release(rec)
		if writes && !s.dur.enterWrite(rec) {
			return nil, nil, ErrFenced
		}
		rec.install = s.dur.installs.Load()
	}
	body := func(tx tm.Tx) error {
		st.attempt++
		if budget.MaxAttempts > 0 && st.attempt > budget.MaxAttempts {
			return ErrBudget
		}
		if st.attempt > 1 {
			// The previous attempt aborted: charge the batch's keys in the
			// hotspot table before any backoff sleep.
			m.noteAbortedOps(ops)
		}
		if d := budget.backoff(st.attempt, th.Env.Rand()); d > 0 {
			time.Sleep(d)
			if m != nil {
				m.BackoffTime.Observe(d)
			}
		}
		if !budget.Deadline.IsZero() && time.Now().After(budget.Deadline) {
			return ErrBudget
		}
		// A retried attempt re-runs from scratch: clear stale results.
		for i := range results {
			results[i] = Result{}
		}
		if rec != nil {
			rec.reset()
		}
		for i := range ops {
			op := &ops[i]
			obj, shard := s.locate(op.Key)
			if rec != nil {
				// Pin the shard's commit sequence number before touching
				// its state: the ack will wait for that prefix's
				// durability, and writers bump from exactly this value.
				rec.observe(tx, s.dur, shard)
			}
			switch op.Kind {
			case OpGet:
				d := tx.Read(obj).(*bucketData)
				if v, ok := d.get(op.Key); ok {
					// No copy out: d must not outlive the transaction, but
					// the value's bytes are immutable and may.
					results[i] = Result{Found: true, Value: v}
				}
			case OpPut:
				// The one copy of a value on its way in (never nil): the
				// bucket, its backups and every reader share these bytes.
				st.key, st.val = op.Key, append([]byte{}, op.Value...)
				if st.put == nil {
					st.put = func(d tm.Data) { d.(*bucketData).put(st.key, st.val) }
				}
				tx.Update(obj, st.put)
				results[i].Found = true
				if rec != nil {
					rec.effect(tx, s.dur, shard, wal.Op{Shard: shard, Key: op.Key, Val: st.val})
				}
			case OpDelete:
				existed := false
				tx.Update(obj, func(d tm.Data) {
					existed = d.(*bucketData).del(op.Key)
				})
				results[i].Found = existed
				if rec != nil && existed {
					rec.effect(tx, s.dur, shard, wal.Op{Shard: shard, Key: op.Key, Del: true})
				}
			case OpCAS:
				swapped := false
				tx.Update(obj, func(d tm.Data) {
					b := d.(*bucketData)
					cur, found := b.get(op.Key)
					if found != (op.Expect != nil) || (found && !bytes.Equal(cur, op.Expect)) {
						swapped = false
						return
					}
					if op.Value == nil {
						b.del(op.Key)
					} else {
						b.put(op.Key, append([]byte{}, op.Value...))
					}
					swapped = true
				})
				results[i].Found = swapped
				if rec != nil && swapped {
					// Log the CAS's resolved effect as an absolute write.
					if op.Value == nil {
						rec.effect(tx, s.dur, shard, wal.Op{Shard: shard, Key: op.Key, Del: true})
					} else {
						rec.effect(tx, s.dur, shard, wal.Op{Shard: shard, Key: op.Key, Val: op.Value})
					}
				}
				if !swapped && len(ops) > 1 {
					return errCASMiss // aborts the attempt: batch is all-or-nothing
				}
			default:
				return fmt.Errorf("kv: unknown op kind %d", op.Kind)
			}
		}
		return nil
	}
	err := s.sys.Atomic(th, body)
	committed := err == nil
	sp.Mark(trace.StageTM)
	if sp != nil {
		sp.Attempts = uint32(st.attempt)
	}
	if errors.Is(err, errCASMiss) {
		// The transaction's effects were discarded; the results slice
		// (set before the abort) tells the caller which CAS missed.
		err = nil
	}
	if err != nil {
		return nil, nil, err
	}
	var vec []wal.ShardLSN
	if rec != nil {
		// Durability barrier: log the committed effects (waiting until
		// they are persisted per policy) and gate every observed read
		// prefix the same way, so an acknowledged result never depends on
		// a commit recovery drops.
		if vec, err = s.dur.finish(rec, committed, sp); err != nil {
			return nil, nil, err
		}
	}
	return results, vec, nil
}

// hasWriteOps reports whether the batch contains any op that could
// write (CAS counts even if its expectation would miss).
func hasWriteOps(ops []Op) bool {
	for i := range ops {
		if ops[i].Kind != OpGet {
			return true
		}
	}
	return false
}

// Get reads one key.
func (s *Store) Get(th *tm.Thread, key string, b Budget) (Result, error) {
	return s.one(th, Op{Kind: OpGet, Key: key}, b)
}

// Put stores one key.
func (s *Store) Put(th *tm.Thread, key string, val []byte, b Budget) (Result, error) {
	return s.one(th, Op{Kind: OpPut, Key: key, Value: val}, b)
}

// Delete removes one key.
func (s *Store) Delete(th *tm.Thread, key string, b Budget) (Result, error) {
	return s.one(th, Op{Kind: OpDelete, Key: key}, b)
}

// CAS swaps one key's value if it currently equals expect.
func (s *Store) CAS(th *tm.Thread, key string, expect, val []byte, b Budget) (Result, error) {
	return s.one(th, Op{Kind: OpCAS, Key: key, Expect: expect, Value: val}, b)
}

func (s *Store) one(th *tm.Thread, op Op, b Budget) (Result, error) {
	rs, err := s.Do(th, []Op{op}, b)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}
