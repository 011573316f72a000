package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke runs every declared workload briefly, untraced and traced,
// against programs built from this checkout: each run must pass its output
// checks and print exactly the declared metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the programs and runs every workload")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+"/", "./cmd/serve", "./cmd/armine", "./cmd/tracegen")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the programs: %v\n%s", err, out)
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			e, err := newEnv(root, bin)
			if err != nil {
				t.Fatal(err)
			}
			res, err := measure(e, sp, w.Name, 11, 2, traced)
			e.close()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}
