package fault

import (
	"bytes"
	"strings"
	"testing"

	"nztm/internal/wal"
)

func TestCrashPointsDisarmed(t *testing.T) {
	c := NewCrashPoints(CrashConfig{Seed: 1})
	c.kill = func() { t.Fatal("disarmed crash point fired") }
	for i := 0; i < 1000; i++ {
		for p := wal.CrashPoint(0); p < wal.CrashPointCount; p++ {
			c.Hook(p)
		}
	}
	if got := c.Visits[wal.CrashMidAppend].Load(); got != 1000 {
		t.Fatalf("visits = %d, want 1000", got)
	}
}

func TestCrashPointsDeterministicFire(t *testing.T) {
	run := func() (fires int, marker string) {
		var out bytes.Buffer
		probs, err := ParseCrashSites("mid-append", 0.05)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCrashPoints(CrashConfig{Seed: 42, Probs: probs, Output: &out})
		c.kill = func() { fires++ }
		for i := 0; i < 500; i++ {
			c.Hook(wal.CrashMidAppend)
			c.Hook(wal.CrashPreAppend) // disarmed site must stay quiet
		}
		return fires, out.String()
	}
	f1, m1 := run()
	f2, m2 := run()
	if f1 == 0 {
		t.Fatal("armed site never fired in 500 visits at p=0.05")
	}
	if f1 != f2 || m1 != m2 {
		t.Fatalf("same seed diverged: %d/%d fires", f1, f2)
	}
	line := strings.SplitN(m1, "\n", 2)[0]
	if !strings.HasPrefix(line, CrashMarkerPrefix+" site=mid-append") {
		t.Fatalf("marker line %q", line)
	}
}

func TestParseCrashSites(t *testing.T) {
	probs, err := ParseCrashSites("all", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for p, v := range probs {
		if v != 0.5 {
			t.Fatalf("site %d prob %v", p, v)
		}
	}
	probs, err = ParseCrashSites("pre-append, mid-truncate", 1)
	if err != nil {
		t.Fatal(err)
	}
	if probs[wal.CrashPreAppend] != 1 || probs[wal.CrashMidTruncate] != 1 ||
		probs[wal.CrashMidAppend] != 0 {
		t.Fatalf("probs = %v", probs)
	}
	if _, err := ParseCrashSites("bogus", 1); err == nil {
		t.Fatal("bogus site accepted")
	}
	// Each name, as wal.CrashPoint prints it, selects exactly its site.
	for p := wal.CrashPoint(0); p < wal.CrashPointCount; p++ {
		probs, err := ParseCrashSites(p.String(), 1)
		var sum float64
		for _, v := range probs {
			sum += v
		}
		if err != nil || probs[p] != 1 || sum != 1 {
			t.Fatalf("ParseCrashSites(%q) = %v, %v", p.String(), probs, err)
		}
	}
}
