package server

import (
	"errors"
	"sync/atomic"
	"time"

	"nztm/internal/kv"
)

// RetryPolicy is the client-side analogue of kv.Budget: it retries requests
// whose server-side budget was exhausted (StatusBudget) or that admission
// control shed (StatusOverloaded) — in both cases the server guarantees
// the request had no effect, so retrying is always safe — with
// exponential backoff and jitter, instead of the bare immediate-retry loop
// a naive caller would write.
//
// Connection failures are NOT retried: a request that was in flight when
// the connection died may or may not have executed, and only the caller
// can decide whether re-issuing it is idempotent.
type RetryPolicy struct {
	// MaxAttempts caps request attempts (0 or 1 = a single attempt).
	MaxAttempts int
	// Base is the first retry's nominal backoff (default 1ms when
	// MaxAttempts allows retries).
	Base time.Duration
	// Max caps the per-attempt backoff (default 64×Base).
	Max time.Duration
}

// jitterSeq decorrelates concurrent callers' backoff sleeps without any
// shared lock: each draw hashes a fresh counter value.
var jitterSeq atomic.Uint64

// delay returns the jittered sleep before attempt (2-based): the store's
// formula (kv.Backoff) with a 1ms default base.
func (p RetryPolicy) delay(attempt int) time.Duration {
	base := p.Base
	if base <= 0 {
		base = time.Millisecond
	}
	// splitmix64 of a global counter: cheap, lock-free jitter bits.
	x := jitterSeq.Add(1) * 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return kv.Backoff(base, p.Max, attempt, x)
}

// DoRetry executes ops as one atomic batch like Do, but retries
// budget-exhausted and admission-shed responses under the policy. Any
// other error — including a dead connection — is returned immediately.
// When every attempt is refused, the last kv.ErrBudget or ErrOverloaded
// is returned.
func (c *Client) DoRetry(ops []kv.Op, p RetryPolicy) ([]kv.Result, error) {
	attempts := p.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	for attempt := 1; ; attempt++ {
		results, err := c.Do(ops)
		retryable := errors.Is(err, kv.ErrBudget) || errors.Is(err, ErrOverloaded)
		if err == nil || !retryable || attempt >= attempts {
			return results, err
		}
		time.Sleep(p.delay(attempt + 1))
	}
}
