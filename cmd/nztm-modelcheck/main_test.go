package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// covered returns the "actions covered" line of a run's output.
func covered(out string) string {
	return regexp.MustCompile(`actions covered: .*`).FindString(out)
}

func TestModelcheckRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "nztm-modelcheck")
	if out, err := exec.Command("go", "build", "-o", bin, "nztm/cmd/nztm-modelcheck").CombinedOutput(); err != nil {
		t.Fatalf("building nztm-modelcheck: %v\n%s", err, out)
	}
	run := func(want int, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if code != want {
			t.Fatalf("%v: exit %d, want %d\n%s", args, code, want, out)
		}
		return string(out)
	}

	start := time.Now()
	if out := run(1, "-variant", "buggy"); !strings.Contains(out, "counterexample:") {
		t.Errorf("-variant buggy printed no counterexample:\n%s", out)
	}
	// The read-sharing scripts check each variant's own conflict
	// resolution: SCSS steals from the reader, BZ waits for it.
	scss := covered(run(0, "-rw", "-variant", "scss", "-threads", "2"))
	bz := covered(run(0, "-rw", "-variant", "bz", "-threads", "2"))
	if scss == "" || scss == bz {
		t.Errorf("-rw scss and bz cover the same actions:\n%s\n%s", scss, bz)
	}
	if !strings.Contains(scss, "w-force-abort-reader") {
		t.Errorf("-rw -variant scss never stole from the reader: %s", scss)
	}
	run(0, "-crossed")
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("the three runs took %v, want under 5s", d)
	}
}
