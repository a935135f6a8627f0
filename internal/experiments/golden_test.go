package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"watchdog/internal/stats"
)

// -update regenerates the recorded goldens instead of comparing
// against them: go test ./internal/experiments -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite the golden figure outputs")

// renderEverything produces every figure and table the -exp vocabulary
// can select, concatenated in bench order, over the runner's
// workloads. This is the byte-identity unit for the golden regression
// tests: any change to the simulator that perturbs a single cell of a
// single figure shows up as a golden diff.
func renderEverything(t *testing.T, r *Runner) string {
	t.Helper()
	out := Table2() + "\n"
	for _, f := range []struct {
		name string
		fn   func() (*stats.Table, error)
	}{
		{"table1", r.Table1},
		{"fig5", r.Fig5},
		{"fig7", r.Fig7},
		{"fig8", r.Fig8},
		{"fig9", r.Fig9},
		{"fig10", r.Fig10},
		{"fig11", r.Fig11},
		{"ideal", r.Ideal},
		{"ablations", r.Ablations},
		{"locksweep", func() (*stats.Table, error) { return r.LockSweep([]int{2 << 10, 4 << 10}) }},
		{"tagsweep", r.TagSweep},
	} {
		tab, err := f.fn()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		out += fmt.Sprintf("# %s\n%s\n", f.name, tab)
	}
	bars, err := r.Bars("Figure 7 (bars): % slowdown", CfgConservative, CfgISA)
	if err != nil {
		t.Fatalf("bars: %v", err)
	}
	out += "# fig7-bars\n" + bars + "\n"
	return out
}

// TestFiguresGolden asserts that every figure and table is
// byte-identical to the recorded golden output. The goldens were
// recorded before the µop-cache and scheduler-specialization work, so
// this test proves those performance changes did not move a single
// figure cell. Regenerate deliberately with -update after an intended
// model change.
func TestFiguresGolden(t *testing.T) {
	checkGolden(t, renderEverything(t, runnerJ(t, 4)), "figures.golden")
}

// TestFiguresGoldenAllKernels pins every figure and table over all
// twenty kernels at scale 2, the scale EXPERIMENTS.md quotes, so a
// change that moves any kernel fails here and not only one that moves
// mcf or lbm. It then checks the paper's full-suite orderings on the
// same runner's geomeans. It takes tens of seconds, and minutes under
// the race detector, so race builds skip it.
func TestFiguresGoldenAllKernels(t *testing.T) {
	if raceEnabled {
		t.Skip("twenty kernels at scale 2 take minutes under -race")
	}
	r, err := NewRunner(2)
	if err != nil {
		t.Fatal(err)
	}
	r.Jobs = 2
	checkGolden(t, renderEverything(t, r), "figures-all.golden")

	geo := map[ConfigName]float64{}
	for _, cfg := range []ConfigName{CfgConservative, CfgISA, CfgISANoLock, CfgBounds1, CfgBounds2} {
		_, g, err := r.Sweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		geo[cfg] = g
	}
	if !(geo[CfgConservative] > geo[CfgISA]) {
		t.Errorf("conservative (%.1f%%) must exceed ISA-assisted (%.1f%%)",
			geo[CfgConservative], geo[CfgISA])
	}
	if !(geo[CfgISANoLock] > geo[CfgISA]) {
		t.Errorf("no-lock-cache (%.1f%%) must exceed lock-cache (%.1f%%)",
			geo[CfgISANoLock], geo[CfgISA])
	}
	// The separate-µop bounds cost reproduces clearly; the fused
	// variant's small cache-pressure delta (+3% in the paper) is below
	// measurement noise on these kernels, so it only gets a
	// no-large-inversion bound.
	if !(geo[CfgBounds2] > geo[CfgBounds1] && geo[CfgBounds2] > geo[CfgISA]) {
		t.Errorf("bounds ordering violated: %.1f%% / %.1f%% / %.1f%%",
			geo[CfgISA], geo[CfgBounds1], geo[CfgBounds2])
	}
	if geo[CfgBounds1] < geo[CfgISA]-2.0 {
		t.Errorf("fused bounds (%.1f%%) implausibly below UAF-only (%.1f%%)",
			geo[CfgBounds1], geo[CfgISA])
	}
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, got, name string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("figure output differs from recorded golden %s\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}
