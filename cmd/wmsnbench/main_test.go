package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestErrorExitKeepsCPUProfile checks that an exit through an output error
// or an empty selection still ends the CPU profile: run returns 1 and the
// profile file holds a profile rather than zero bytes. The outputs go to a
// directory "missing" that does not exist, so writing them fails.
func TestErrorExitKeepsCPUProfile(t *testing.T) {
	for name, args := range map[string][]string{
		"metrics-json": {"-only", "E1", "-metrics-json", filepath.Join("missing", "x.json")},
		"memprofile":   {"-only", "E1", "-memprofile", filepath.Join("missing", "mem.prof")},
		"no-match":     {"-only", "E99"},
	} {
		t.Run(name, func(t *testing.T) {
			prof := filepath.Join(t.TempDir(), "cp.prof")
			if code := run(append([]string{"-quick", "-cpuprofile", prof}, args...)); code != 1 {
				t.Fatalf("exit status %d, want 1", code)
			}
			fi, err := os.Stat(prof)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() == 0 {
				t.Fatal("the CPU profile is empty")
			}
		})
	}
}
