package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRunExitPaths: an unknown -exp exits 2, and a run that asked for
// profiles leaves both complete on the way out.
func TestRunExitPaths(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if code := run([]string{"-exp", "nope", "-cpuprofile", cpu}); code != 2 {
		t.Errorf("unknown -exp: exit %d, want 2", code)
	}
	if code := run([]string{"-quick", "-exp", "fig12", "-cpuprofile", cpu, "-memprofile", mem}); code != 0 {
		t.Fatalf("fig12: exit %d, want 0", code)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err %v)", p, err)
		}
	}
}
