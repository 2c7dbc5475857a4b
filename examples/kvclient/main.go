// Kvclient: the bank example, but over the wire — multi-key atomic
// transfers through the nztm-server client API instead of direct library
// calls. Each transfer is one optimistic CAS batch (both legs swap or
// neither does), and auditors read every account in one atomic GET batch:
// if the serving path ever broke transaction atomicity, an audit would see
// a wrong total.
//
// By default it self-hosts a loopback NZSTM server; point -addr at a
// running nztm-server to drive that instead.
//
// Usage: kvclient [-addr host:port] [-system nzstm] [-accounts 16] [-clients 4] [-transfers 200]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"nztm/internal/kv"
	"nztm/internal/node"
	"nztm/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "", "existing server to connect to (empty: self-host a loopback server)")
		system    = flag.String("system", "nzstm", "backing system when self-hosting")
		accounts  = flag.Int("accounts", 16, "number of bank accounts")
		clients   = flag.Int("clients", 4, "concurrent transfer clients")
		transfers = flag.Int("transfers", 200, "transfers per client")
	)
	flag.Parse()

	target := *addr
	if target == "" {
		n, err := node.New(node.Config{System: *system, Threads: 8, Shards: 8, Buckets: 32, Addr: "127.0.0.1:0"})
		if err != nil {
			fail(err)
		}
		n.Start()
		defer n.Close(5 * time.Second)
		target = n.Addr()
		fmt.Printf("kvclient: self-hosted %s server on %s\n", n.Store().System().Name(), target)
	}

	const initial = 1_000
	keys := make([]string, *accounts)
	setup, err := server.Dial(target)
	if err != nil {
		fail(err)
	}
	for i := range keys {
		keys[i] = fmt.Sprintf("bank:acct:%d", i)
		if _, err := setup.Put(keys[i], []byte(strconv.Itoa(initial))); err != nil {
			fail(err)
		}
	}
	want := int64(*accounts) * initial

	var wg sync.WaitGroup
	var done, retries int64
	var mu sync.Mutex
	start := time.Now()
	for w := 0; w < *clients; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := server.Dial(target)
			if err != nil {
				fail(err)
			}
			defer c.Close()
			rng := uint64(id+1)*0x9e3779b97f4a7c15 + 5
			myDone, myRetries := int64(0), int64(0)
			for i := 0; i < *transfers; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				from := keys[rng%uint64(len(keys))]
				to := keys[(rng>>17)%uint64(len(keys))]
				if from == to {
					continue
				}
				amt := int64(rng%50) + 1
				for {
					// Read both balances atomically, then swap both legs
					// atomically: the CAS batch commits only if neither
					// account moved in between.
					rs, err := c.Do([]kv.Op{
						{Kind: kv.OpGet, Key: from}, {Kind: kv.OpGet, Key: to},
					})
					if err != nil {
						fail(err)
					}
					vf, _ := strconv.ParseInt(string(rs[0].Value), 10, 64)
					vt, _ := strconv.ParseInt(string(rs[1].Value), 10, 64)
					cs, err := c.Do([]kv.Op{
						{Kind: kv.OpCAS, Key: from, Expect: rs[0].Value,
							Value: []byte(strconv.FormatInt(vf-amt, 10))},
						{Kind: kv.OpCAS, Key: to, Expect: rs[1].Value,
							Value: []byte(strconv.FormatInt(vt+amt, 10))},
					})
					if err != nil {
						fail(err)
					}
					if cs[0].Found && cs[1].Found {
						myDone++
						break
					}
					myRetries++
				}
				// Every few transfers, audit: one atomic batch reads all
				// accounts; the total must be exact.
				if i%16 == 0 {
					audit(c, keys, want, "AUDIT FAILURE")
				}
			}
			mu.Lock()
			done += myDone
			retries += myRetries
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	// Final audit from the setup connection.
	audit(setup, keys, want, "FINAL AUDIT FAILURE")
	setup.Close()
	fmt.Printf("kvclient: %d transfers (%d optimistic retries) across %d clients in %v; every audit saw total %d\n",
		done, retries, *clients, time.Since(start).Round(time.Millisecond), want)
}

// audit reads every account in one atomic batch and exits unless the
// balances sum to want.
func audit(c *server.Client, keys []string, want int64, failure string) {
	ops := make([]kv.Op, len(keys))
	for k, key := range keys {
		ops[k] = kv.Op{Kind: kv.OpGet, Key: key}
	}
	rs, err := c.Do(ops)
	if err != nil {
		fail(err)
	}
	var sum int64
	for _, r := range rs {
		n, _ := strconv.ParseInt(string(r.Value), 10, 64)
		sum += n
	}
	if sum != want {
		fmt.Fprintf(os.Stderr, "%s: total %d != %d\n", failure, sum, want)
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "kvclient:", err)
	os.Exit(1)
}
