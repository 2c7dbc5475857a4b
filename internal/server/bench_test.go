package server

import (
	"bytes"
	"fmt"
	"testing"

	"nztm/internal/kv"
)

// requestShapes are the two requests the repo's benchmark is made of — its
// mem-single PUT and its mem-batch-hot read-modify-write batch — each with
// what one round trip may allocate in the whole process, client and server
// together, in steady state. The client allocates the frame it reads the
// response into and the results it hands to the caller; the server the one
// string the request's keys are substrings of; kv its results, transaction
// closure and state, plus for PUTs one update closure and a copy of each
// value (internal/kv's TestBucketUpdateAllocs). That is 8 objects for the
// single PUT and 15 for the batch, and two more are allowed for a runtime
// timer or a frame read in two pieces.
var requestShapes = func() []requestShape {
	val := bytes.Repeat([]byte{0xAB}, 128)
	var batch []kv.Op
	for i := 0; i < 8; i++ {
		batch = append(batch,
			kv.Op{Kind: kv.OpGet, Key: fmt.Sprintf("k%04d", i)},
			kv.Op{Kind: kv.OpPut, Key: fmt.Sprintf("k%04d", 8+i), Value: val})
	}
	return []requestShape{
		{name: "single", ops: []kv.Op{{Kind: kv.OpPut, Key: "k0000", Value: val}}, allocBudget: 10},
		{name: "batch16", ops: batch, allocBudget: 17},
	}
}()

type requestShape struct {
	name        string
	ops         []kv.Op
	allocBudget float64
}

// requestPath returns one round trip of ops — Client.Do to a Server over
// loopback and back — warmed up until records, reply channels, descriptors
// and backups all come from their free lists.
func requestPath(tb testing.TB, ops []kv.Op) func() {
	_, addr, stop := startServer(tb, "nzstm", 2, Config{})
	tb.Cleanup(stop)
	c, err := Dial(addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	roundTrip := func() {
		if _, err := c.Do(ops); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		roundTrip()
	}
	return roundTrip
}

// BenchmarkRequestPath is the server line of the per-request budget: one
// request at a time from one Client to one Server over loopback. Run with
// -benchmem: B/op and allocs/op cover both ends, since they share the
// process. ns/op is a round trip with nothing else in flight, so it is
// mostly two goroutine hand-offs and two socket wake-ups, not CPU.
func BenchmarkRequestPath(b *testing.B) {
	for _, shape := range requestShapes {
		b.Run(shape.name, func(b *testing.B) {
			roundTrip := requestPath(b, shape.ops)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundTrip()
			}
		})
	}
}

// TestRequestPathAllocs is the request path's allocation gate (run by `make
// check`, which also smoke-runs BenchmarkRequestPath).
func TestRequestPathAllocs(t *testing.T) {
	for _, shape := range requestShapes {
		roundTrip := requestPath(t, shape.ops)
		avg := testing.AllocsPerRun(2000, roundTrip)
		t.Logf("%s: %.1f objects per round trip", shape.name, avg)
		if avg > shape.allocBudget {
			t.Errorf("%s: a round trip allocates %.1f objects in the process; want ≤ %.0f",
				shape.name, avg, shape.allocBudget)
		}
	}
}
