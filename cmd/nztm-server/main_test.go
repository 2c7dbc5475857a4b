package main

// Child-process tests for the binary: its observability surface (the
// HTTP mux's /metricsz conformance, /tracez filters, /slowz, and SIGQUIT
// dumping diagnostics to stderr without killing the server), its flag
// set, and its refusal of a flag without the flag it needs (-data-dir,
// -repl-addr).

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"nztm/internal/kv"
	"nztm/internal/metrics"
	"nztm/internal/server"
)

// lineBuffer accumulates a child's output stream line by line. It is
// the command's io.Writer, not a reader on a StdoutPipe, so cmd.Wait
// returns only once the stream is drained: whatever the child printed
// before it exited is in the buffer by then.
type lineBuffer struct {
	mu    sync.Mutex
	lines []string
	part  []byte // the unterminated last line
}

func (b *lineBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.part = append(b.part, p...)
	for {
		i := bytes.IndexByte(b.part, '\n')
		if i < 0 {
			return len(p), nil
		}
		b.lines = append(b.lines, string(b.part[:i]))
		b.part = b.part[i+1:]
	}
}

func (b *lineBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Join(b.lines, "\n")
}

// waitContains polls until the buffer contains want.
func (b *lineBuffer) waitContains(t *testing.T, d time.Duration, want string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !strings.Contains(b.String(), want) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %q in:\n%s", want, b.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// pickAddr reserves a loopback address (small reuse race, fine in tests).
func pickAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestServerObservabilityEndToEnd builds the real binary, drives traffic
// through it, lints the composed /metricsz document, exercises the
// /tracez filters and /slowz, then proves SIGQUIT dumps the trace rings
// and slow ring to stderr while the server keeps serving.
func TestServerObservabilityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("child-process test")
	}
	bin := buildServer(t)
	// No -executors: the scheduler line must name the resolved pool size.
	cmd, stdout, stderr, kvAddr, statszAddr := startServer(t, bin,
		"-addr", "127.0.0.1:0",
		"-statsz", "127.0.0.1:0",
		"-trace", "64",
		"-data-dir", t.TempDir(),
		"-fsync", "never",
	)

	c, err := server.Dial(kvAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 32; i++ {
		if _, err := c.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Do([]kv.Op{
		{Kind: kv.OpPut, Key: "a", Value: []byte("1")},
		{Kind: kv.OpPut, Key: "b", Value: []byte("2")},
	}); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) { return httpGet(t, statszAddr, path) }

	// The composed document — server + scheduler + spans + TM + KV +
	// durability — must lint clean end to end.
	code, metricsBody := get("/metricsz")
	if code != 200 {
		t.Fatalf("/metricsz code=%d", code)
	}
	if problems := metrics.LintProm(strings.NewReader(metricsBody)); len(problems) != 0 {
		t.Errorf("live /metricsz exposition violations:\n  %s", strings.Join(problems, "\n  "))
	}
	for _, want := range []string{
		`nztm_stage_us_count{stage="decode"}`,
		`nztm_stage_us_count{stage="wal_append"}`,
		"nztm_request_total_us_count",
		"nztm_wal_fsync_cohort_frames_count",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("live /metricsz missing %q", want)
		}
	}

	samples, err := metrics.Samples(strings.NewReader(metricsBody))
	if err != nil {
		t.Fatal(err)
	}
	var pool string
	for _, s := range samples {
		if s.Name == "nztm_server_info" {
			pool = s.Labels["executors_requested"]
		}
	}
	want := "nztm-server: scheduler: executors=" + pool + " "
	if n, _ := strconv.Atoi(pool); n <= 0 || !strings.Contains(stdout.String(), want) {
		t.Errorf("scheduler line does not name the resolved pool (%q):\n%s", want, stdout.String())
	}

	if code, body := get("/slowz"); code != 200 || !strings.Contains(body, `"entries"`) {
		t.Errorf("/slowz: code=%d body=%.200s", code, body)
	}
	if code, body := get("/tracez?limit=1"); code != 200 || !strings.Contains(body, `"sources"`) {
		t.Errorf("/tracez?limit=1: code=%d body=%.200s", code, body)
	}
	if code, _ := get("/tracez?source=abc"); code != 400 {
		t.Errorf("/tracez?source=abc: code=%d, want 400", code)
	}

	// SIGQUIT: diagnostics on stderr, process stays up.
	if err := cmd.Process.Signal(syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	stderr.waitContains(t, 10*time.Second, "nztm-server: diagnostics done")
	dump := stderr.String()
	if !strings.Contains(dump, "flight recorder") {
		t.Errorf("SIGQUIT dump missing flight recorder:\n%.500s", dump)
	}
	if !strings.Contains(dump, "slow requests") {
		t.Errorf("SIGQUIT dump missing slow-request ring:\n%.500s", dump)
	}
	if _, err := c.Put("after-sigquit", []byte("alive")); err != nil {
		t.Fatalf("server died after SIGQUIT: %v", err)
	}

	// Clean shutdown still works after diagnostics.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exit := make(chan error, 1)
	go func() { exit <- cmd.Wait() }()
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("exit after SIGTERM: %v\nstderr:\n%s", err, stderr.String())
		}
		// The exit dump is the final /metricsz exposition.
		stdout.waitContains(t, 5*time.Second, "nztm_server_requests_total{status=\"ok\"}")
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("child ignored SIGTERM:\nstdout:\n%s", stdout.String())
	}
}

// binDir holds the nztm-server binary the tests share.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "nztm-server-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var built struct {
	once sync.Once
	out  []byte
	err  error
}

// buildServer builds the nztm-server binary once per test run.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(binDir, "nztm-server")
	built.once.Do(func() {
		built.out, built.err = exec.Command("go", "build", "-o", bin, "nztm/cmd/nztm-server").CombinedOutput()
	})
	if built.err != nil {
		t.Fatalf("building nztm-server: %v\n%s", built.err, built.out)
	}
	return bin
}

// startServer runs bin with args, waits for its ready line and returns
// the process, its captured stdout and stderr, and the KV and
// observability addresses the ready line names ("" when the mux is
// off). The process is killed when the test ends.
func startServer(t *testing.T, bin string, args ...string) (cmd *exec.Cmd, stdout, stderr *lineBuffer, kvAddr, statszAddr string) {
	t.Helper()
	cmd = exec.Command(bin, args...)
	stdout = &lineBuffer{}
	stderr = &lineBuffer{}
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	stdout.waitContains(t, 10*time.Second, "nztm-server: ready addr=")
	for _, line := range strings.Split(stdout.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "nztm-server: ready "); ok {
			for _, f := range strings.Fields(rest) {
				if a, ok := strings.CutPrefix(f, "addr="); ok {
					kvAddr = a
				} else if a, ok := strings.CutPrefix(f, "statsz="); ok {
					statszAddr = a
				}
			}
			break
		}
	}
	if kvAddr == "" {
		t.Fatalf("no ready line in:\n%s", stdout.String())
	}
	return cmd, stdout, stderr, kvAddr, statszAddr
}

// httpGet fetches path from the observability mux at addr.
func httpGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files from the live binary")

// oddKeys are hot keys whose bytes the exposition format cannot carry
// verbatim: control bytes, invalid UTF-8 and the three escaped characters.
var oddKeys = []string{"a\tb", "x\x01y", "bad\xff", `q"uote`, `back\slash`, "new\nline"}

// TestMetricszFamiliesGolden boots the binary with every plane armed —
// durability, TM and connection faults, disk faults, replication as a
// lone primary, tracing — drives traffic until the hotspot table holds
// keys with control and invalid-UTF-8 bytes, lints the fully composed
// /metricsz and checks that its (family, TYPE) pairs are exactly those
// recorded in testdata/metricsz_families.txt: a family dropped, retyped
// or added fails, so every change to the surface shows up in review. Run
// with -update to rewrite the golden file.
func TestMetricszFamiliesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("child-process test")
	}
	bin := buildServer(t)
	_, _, _, kvAddr, statszAddr := startServer(t, bin,
		"-addr", "127.0.0.1:0",
		"-statsz", "127.0.0.1:0",
		"-trace", "64",
		"-executors", "2",
		"-data-dir", t.TempDir(),
		"-fsync", "never",
		"-fault-seed", "7",
		"-disk-fault-seed", "9",
		"-disk-fault-sites", "rename", // armed, but never visited without snapshots
		"-repl-addr", pickAddr(t),
	)

	// The fault plane resets connections now and then: redial and go on.
	var c *server.Client
	do := func(ops []kv.Op) {
		t.Helper()
		var err error
		if c == nil {
			if c, err = server.Dial(kvAddr); err != nil {
				t.Fatal(err)
			}
		}
		if _, err = c.Do(ops); err != nil {
			c.Close()
			c = nil
		}
	}
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	batch := make([]kv.Op, len(oddKeys))
	for i, k := range oddKeys {
		batch[i] = kv.Op{Kind: kv.OpPut, Key: k, Value: []byte("v")}
	}
	// Injected aborts charge every key of the batch in the hotspot table.
	var body string
	deadline := time.Now().Add(20 * time.Second)
	for {
		for i := 0; i < 50; i++ {
			do(batch)
			do([]kv.Op{{Kind: kv.OpGet, Key: "plain"}})
		}
		_, body = httpGet(t, statszAddr, "/metricsz")
		if strings.Count(body, "nztm_kv_key_aborts_total{") >= len(oddKeys) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("odd keys never became hot:\n%s", body)
		}
	}

	if problems := metrics.LintProm(strings.NewReader(body)); len(problems) != 0 {
		t.Errorf("fully armed /metricsz exposition violations:\n  %s", strings.Join(problems, "\n  "))
	}
	for _, want := range []string{
		`nztm_fault_info{seed="7",enabled="true"} 1`,
		`nztm_disk_fault_info{seed="9"} 1`,
		`nztm_wal_info{dir="`,
		`nztm_repl_info{node_id="0",role="primary",primary="`,
		`system="NZSTM+fault"} 1`,
		`admission="reject"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("fully armed /metricsz missing %q", want)
		}
	}
	if code, _ := httpGet(t, statszAddr, "/statsz"); code != http.StatusNotFound {
		t.Errorf("/statsz: code=%d, want 404", code)
	}
	code, parts := httpGet(t, statszAddr, "/partitionz")
	if problems := metrics.LintProm(strings.NewReader(parts)); code != 200 || len(problems) != 0 ||
		!strings.Contains(parts, "nztm_partition_active 0") {
		t.Errorf("/partitionz: code=%d problems=%v body:\n%s", code, problems, parts)
	}
	var got []string
	for name, typ := range metrics.Families(strings.NewReader(body)) {
		got = append(got, name+" "+typ)
	}
	sort.Strings(got)
	golden := filepath.Join("testdata", "metricsz_families.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if missing, extra := setDiff(strings.Split(strings.TrimSpace(string(want)), "\n"), got); len(missing)+len(extra) > 0 {
		t.Errorf("/metricsz families differ from %s (rerun with -update if on purpose)\n"+
			"dropped or retyped:\n  %s\nadded or retyped:\n  %s",
			golden, strings.Join(missing, "\n  "), strings.Join(extra, "\n  "))
	}
}

// setDiff returns the lines of want absent from got, and those of got
// absent from want.
func setDiff(want, got []string) (missing, extra []string) {
	in := func(lines []string) map[string]bool {
		m := make(map[string]bool, len(lines))
		for _, l := range lines {
			m[l] = true
		}
		return m
	}
	inWant, inGot := in(want), in(got)
	for _, w := range want {
		if !inGot[w] {
			missing = append(missing, w)
		}
	}
	for _, g := range got {
		if !inWant[g] {
			extra = append(extra, g)
		}
	}
	return missing, extra
}

// TestFlagsGolden checks the binary's flag names against
// testdata/flags.txt, so a new knob shows up in review. Run with -update
// to rewrite the golden file.
func TestFlagsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("child-process test")
	}
	out, _ := exec.Command(buildServer(t), "-help").CombinedOutput()
	var got []string
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(rest)[0])
		}
	}
	sort.Strings(got)
	body := strings.Join(got, "\n") + "\n"
	golden := filepath.Join("testdata", "flags.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if body != string(want) {
		t.Errorf("flag set changed; -help lists:\n%s\ntestdata/flags.txt has:\n%s", body, want)
	}
}

// TestDurabilityFlagsNeedDataDir: a durability or storage-fault flag set
// without -data-dir, a replication flag set without -repl-addr, or an
// unparsable -fsync, is a usage error (exit 2), never a server that
// ignores it.
func TestDurabilityFlagsNeedDataDir(t *testing.T) {
	if testing.Short() {
		t.Skip("child-process test")
	}
	bin := buildServer(t)
	for _, args := range [][]string{
		{"-disk-fault-seed", "9", "-fsync", "bogus", "-snapshot-every", "1s"},
		{"-disk-fault-seed", "9"},
		{"-fsync", "never"},
		{"-fsync-interval", "10ms"},
		{"-snapshot-every", "1s"},
		{"-fsync", "bogus", "-data-dir", t.TempDir()},
		{"-peers", "127.0.0.1:1,127.0.0.1:2"},
		{"-node-id", "3"},
		{"-advertise", "127.0.0.1:9"},
		{"-heartbeat-every", "10ms"},
		{"-lease-timeout", "1s"},
		{"-max-read-wait", "1s"},
		{"-data-dir", t.TempDir(), "-peers", "127.0.0.1:1,127.0.0.1:2", "-node-id", "3", "-lease-timeout", "1s"},
	} {
		cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-statsz", ""}, args...)...)
		done := make(chan error, 1)
		var out []byte
		go func() {
			var err error
			out, err = cmd.CombinedOutput()
			done <- err
		}()
		select {
		case err := <-done:
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Errorf("%v: %v, want exit status 2; output:\n%s", args, err, out)
			}
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
			t.Errorf("%v: server started instead of exiting 2:\n%s", args, out)
		}
	}
}
