package server

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"nztm/internal/kv"
)

// TestClientWriteFailureIsErrClosed: when the peer goes away in the middle
// of a request's write, the caller whose write failed and a caller already
// waiting for a reply both get an error that is ErrClosed.
func TestClientWriteFailureIsErrClosed(t *testing.T) {
	cliEnd, srvEnd := net.Pipe()
	c := NewClient(cliEnd)
	defer c.Close()

	// The peer takes the first request whole and never answers it, takes
	// four bytes of the second, and closes.
	peerDone := make(chan error, 1)
	firstRead := make(chan struct{})
	go func() {
		br := newBufReader(srvEnd)
		_, _, err := readFrame(br, nil)
		close(firstRead)
		if err == nil {
			_, err = io.ReadFull(br, make([]byte, 4))
		}
		srvEnd.Close()
		peerDone <- err
	}()

	waiter := make(chan error, 1)
	go func() {
		_, err := c.Get("waits-for-a-reply")
		waiter <- err
	}()
	<-firstRead
	_, werr := c.Put("cut-off", make([]byte, 128<<10))
	if !errors.Is(werr, ErrClosed) {
		t.Errorf("caller whose write failed: err = %v, want ErrClosed", werr)
	}
	select {
	case err := <-waiter:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("concurrent waiter: err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("concurrent waiter still blocked after the connection died")
	}
	if err := <-peerDone; err != nil {
		t.Fatalf("peer: %v", err)
	}
	if _, err := c.Get("after"); !errors.Is(err, ErrClosed) {
		t.Errorf("call on the dead connection: err = %v, want ErrClosed", err)
	}
}

// TestClientEncodeErrorLeavesNoTrace: a request the client cannot encode
// fails by itself. Nothing of it is sent, nothing waits for its reply, and
// the next request on the connection is unharmed.
func TestClientEncodeErrorLeavesNoTrace(t *testing.T) {
	_, addr, stop := startServer(t, "nzstm", 2, Config{})
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tooMany := make([]kv.Op, MaxOps+1)
	for i := range tooMany {
		tooMany[i] = kv.Op{Kind: kv.OpGet, Key: "k"}
	}
	// The long key comes second, so the encoder fails with a valid op
	// already in the buffer.
	longKey := []kv.Op{
		{Kind: kv.OpPut, Key: "ok", Value: []byte("v")},
		{Kind: kv.OpGet, Key: strings.Repeat("x", MaxKey+1)},
	}
	for name, ops := range map[string][]kv.Op{"too many ops": tooMany, "over-long key": longKey} {
		if _, err := c.Do(ops); err == nil || errors.Is(err, ErrClosed) {
			t.Fatalf("%s: err = %v, want an encode error that leaves the connection alone", name, err)
		}
		c.mu.Lock()
		pending := len(c.pending)
		c.mu.Unlock()
		if pending != 0 {
			t.Fatalf("%s: %d entries left in pending", name, pending)
		}
		if _, err := c.Put("next", []byte("v")); err != nil {
			t.Fatalf("request after %s: %v", name, err)
		}
		if r, err := c.Get("ok"); err != nil || r.Found {
			t.Fatalf("after %s: GET ok = %+v, %v; the refused batch must not have run", name, r, err)
		}
	}
}
