package wal

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// BenchmarkAppend is the wal line of the per-layer budget: the log's own
// cost per Append with the device taken out (an in-memory FS whose Sync
// is free), across fsync policy × identity-vector width × concurrent
// appenders. Every frame carries sixteen 512-byte puts (the served
// durable batch's ~8 KB frame), so only the vector width varies, and
// every variant writes the same user bytes. It touches only API that did
// not change with the one-log layout, so the same file (with
// memfs_test.go) measures the commit before it.
//
// LSNs are handed out under one mutex — the stand-in for the
// transactional sequencer — and the appends race afterwards, so with 8
// appenders frames reach the log out of order as they do in service.
func BenchmarkAppend(b *testing.B) {
	const shards, opsPerFrame, valueBytes = 16, 16, 512
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncNever} {
		for _, width := range []int{1, 7, 16} {
			for _, appenders := range []int{1, 8} {
				b.Run(fmt.Sprintf("fsync=%s/width=%d/appenders=%d", policy, width, appenders), func(b *testing.B) {
					mem := newMemFS()
					mem.discard = true
					l, _, err := Open(Config{Dir: "/bench", Shards: shards, Fsync: policy, FS: mem})
					if err != nil {
						b.Fatal(err)
					}
					defer l.Close()
					var seqMu sync.Mutex
					lsns := make([]uint64, shards)
					value := make([]byte, valueBytes)
					writes0, syncs0 := mem.writes.Load(), mem.syncs.Load()
					b.ReportAllocs()
					b.ResetTimer()
					var wg sync.WaitGroup
					for a := 0; a < appenders; a++ {
						n := b.N / appenders
						if a < b.N%appenders {
							n++
						}
						wg.Add(1)
						go func(a, n int) {
							defer wg.Done()
							f := &Frame{Shards: make([]ShardLSN, width), Ops: make([]Op, opsPerFrame)}
							ids := make([]int, width)
							for i := range ids {
								ids[i] = (a*2 + i) % shards
							}
							sort.Ints(ids) // the vector goes to the log sorted by shard
							for i, id := range ids {
								f.Shards[i].Shard = id
							}
							for i := range f.Ops {
								sh := f.Shards[i%width].Shard
								f.Ops[i] = Op{Shard: sh, Key: fmt.Sprintf("a%02d-k%02d", a, i), Val: value}
							}
							for i := 0; i < n; i++ {
								seqMu.Lock()
								for j := range f.Shards {
									lsns[f.Shards[j].Shard]++
									f.Shards[j].LSN = lsns[f.Shards[j].Shard]
								}
								seqMu.Unlock()
								if err := l.Append(f); err != nil {
									b.Error(err)
									return
								}
							}
						}(a, n)
					}
					wg.Wait()
					b.StopTimer()
					b.ReportMetric(float64(mem.writes.Load()-writes0)/float64(b.N), "writes/op")
					b.ReportMetric(float64(mem.syncs.Load()-syncs0)/float64(b.N), "syncs/op")
				})
			}
		}
	}
}
