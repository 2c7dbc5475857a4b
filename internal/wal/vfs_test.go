package wal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoDirectOSFileCalls is the vet gate for the VFS seam: every file
// operation of a package that keeps durable state must go through the
// FS interface so the fault plane can inject errors at every site and
// the stop rule covers it. That is this package and internal/repl, whose
// records the log keeps. Only vfs.go (the osFS default) and test files
// may call the os file functions directly; a direct call anywhere else
// is a fault-injection blind spot.
func TestNoDirectOSFileCalls(t *testing.T) {
	forbidden := []string{
		"os.OpenFile(", "os.Open(", "os.Create(", "os.CreateTemp(",
		"os.Rename(", "os.Remove(", "os.RemoveAll(", "os.Truncate(",
		"os.Mkdir(", "os.MkdirAll(", "os.ReadDir(", "os.ReadFile(",
		"os.WriteFile(", "os.Stat(", "filepath.Glob(",
	}
	for _, dir := range []string{".", "../repl"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir: %v", err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || name == "vfs.go" {
				continue
			}
			path := filepath.Join(dir, name)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("ReadFile %s: %v", path, err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				code, _, _ := strings.Cut(line, "//")
				for _, f := range forbidden {
					if strings.Contains(code, f) {
						t.Errorf("%s:%d: direct %s bypasses the FS seam (route it through the log's FS)",
							path, i+1, strings.TrimSuffix(f, "("))
					}
				}
			}
		}
	}
}
