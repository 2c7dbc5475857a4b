package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"nztm/internal/kv"
)

// requestShapes are the requests the repo's benchmark is made of — its
// mem-single PUT and its mem-batch-hot read-modify-write batch, the batch
// also from four callers sharing the one Client as four lanes share a
// connection there — with what a round trip may cost the whole process,
// client and server together, in steady state.
//
// Objects: the client allocates the frame it reads the response into and
// the results it hands to the caller; the server the one string the
// request's keys are substrings of; kv its results, transaction closure and
// state, plus for PUTs one update closure and a copy of each value
// (internal/kv's TestBucketUpdateAllocs); the TM one descriptor per attempt.
// That is 9 objects for the single PUT and 16 for the batch, and one more is
// allowed for a runtime timer or a frame read in two pieces.
//
// Writes: a caller with the connection to itself pays exactly one Write at
// each end; callers that overlap share them, at most sharedWritesPerReq at
// each end (about 0.3 with four callers on two cores, where the server runs
// requests that arrive together as one burst; 0.4 before bursts, and 1.00
// and 0.68 before flushes were shared; the bound is loose enough for any
// core count).
var requestShapes = []requestShape{
	{name: "single", callers: 1, allocBudget: 10, ops: func(int) []kv.Op {
		return []kv.Op{{Kind: kv.OpPut, Key: "k0000", Value: benchValue}}
	}},
	{name: "batch16", callers: 1, allocBudget: 17, ops: rmwBatch},
	{name: "batch16x4", callers: 4, ops: rmwBatch},
}

const sharedWritesPerReq = 0.8

var benchValue = bytes.Repeat([]byte{0xAB}, 128)

// rmwBatch is 8 GETs and 8 PUTs on keys of the caller's own, so that
// callers never conflict.
func rmwBatch(caller int) []kv.Op {
	var batch []kv.Op
	for i := 0; i < 8; i++ {
		batch = append(batch,
			kv.Op{Kind: kv.OpGet, Key: fmt.Sprintf("k%d:%04d", caller, i)},
			kv.Op{Kind: kv.OpPut, Key: fmt.Sprintf("k%d:%04d", caller, 8+i), Value: benchValue})
	}
	return batch
}

type requestShape struct {
	name    string
	ops     func(caller int) []kv.Op
	callers int // closed-loop callers on the one Client
	// allocBudget bounds the objects one round trip allocates in the
	// process; shapes with several callers have none, since a count per
	// run cannot be taken from more than one goroutine.
	allocBudget float64
}

// requestPath is one Client on one Server over loopback, warmed up until
// records, reply channels, descriptors and backups all come from their free
// lists. run makes n round trips, split between the shape's callers.
type requestPath struct {
	*wire
	ops [][]kv.Op // per caller
}

func newRequestPath(tb testing.TB, shape requestShape) *requestPath {
	p := &requestPath{wire: startCounted(tb, newTestServer(tb, 2, Config{}))}
	for g := 0; g < shape.callers; g++ {
		p.ops = append(p.ops, shape.ops(g))
	}
	p.run(tb, 500*shape.callers)
	return p
}

func (p *requestPath) roundTrip(tb testing.TB, caller int) {
	if _, err := p.c.Do(p.ops[caller]); err != nil {
		tb.Error(err)
	}
}

func (p *requestPath) run(tb testing.TB, n int) {
	if len(p.ops) == 1 {
		for i := 0; i < n; i++ {
			p.roundTrip(tb, 0)
		}
		return
	}
	var wg sync.WaitGroup
	for g := range p.ops {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += len(p.ops) {
				p.roundTrip(tb, g)
			}
		}(g)
	}
	wg.Wait()
}

// writesPerReq runs n round trips and returns the Write calls each end of
// the connection made per request.
func (p *requestPath) writesPerReq(tb testing.TB, n int) (client, server float64) {
	c0, s0 := p.clientWrites.Load(), p.serverWrites.Load()
	p.run(tb, n)
	return float64(p.clientWrites.Load()-c0) / float64(n), float64(p.serverWrites.Load()-s0) / float64(n)
}

// BenchmarkRequestPath is the server line of the per-request budget: one
// Client to one Server over loopback, one request at a time or four. Run
// with -benchmem: B/op and allocs/op cover both ends, since they share the
// process, and the two writes/req metrics are conn.Write calls per request
// on the client's and the server's side of the connection. With one caller
// ns/op is a round trip with nothing else in flight, so it is mostly two
// goroutine hand-offs and two socket wake-ups, not CPU.
func BenchmarkRequestPath(b *testing.B) {
	for _, shape := range requestShapes {
		b.Run(shape.name, func(b *testing.B) {
			p := newRequestPath(b, shape)
			b.ReportAllocs()
			b.ResetTimer()
			client, server := p.writesPerReq(b, b.N)
			b.ReportMetric(client, "client-writes/req")
			b.ReportMetric(server, "server-writes/req")
		})
	}
}

// TestRequestPathAllocs is the request path's allocation gate (run by `make
// check`, which also smoke-runs BenchmarkRequestPath).
func TestRequestPathAllocs(t *testing.T) {
	for _, shape := range requestShapes {
		if shape.callers != 1 {
			continue
		}
		p := newRequestPath(t, shape)
		avg := testing.AllocsPerRun(2000, func() { p.roundTrip(t, 0) })
		t.Logf("%s: %.1f objects per round trip", shape.name, avg)
		if avg > shape.allocBudget {
			t.Errorf("%s: a round trip allocates %.1f objects in the process; want ≤ %.0f",
				shape.name, avg, shape.allocBudget)
		}
	}
}

// TestRequestPathWrites is the request path's syscall gate (run by `make
// check` beside the allocation gate): a lone caller pays exactly one Write
// per request at each end, and callers that overlap share them.
func TestRequestPathWrites(t *testing.T) {
	for _, shape := range requestShapes {
		p := newRequestPath(t, shape)
		client, server := p.writesPerReq(t, 4000)
		t.Logf("%s: %.2f client and %.2f server writes per request", shape.name, client, server)
		if shape.callers == 1 {
			if client != 1 || server != 1 {
				t.Errorf("%s: one request at a time made %.3f client and %.3f server writes per request; want exactly 1 of each",
					shape.name, client, server)
			}
		} else if client > sharedWritesPerReq || server > sharedWritesPerReq {
			t.Errorf("%s: %d callers made %.2f client and %.2f server writes per request; want ≤ %.1f of each",
				shape.name, shape.callers, client, server, sharedWritesPerReq)
		}
	}
}
