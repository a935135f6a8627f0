package experiments

import (
	"runtime"
	"testing"
)

// TestKeptCellsStaySmall: a runner keeps every cell's Result (Report
// lists them all), so what a kept Result holds on to is what a sweep's
// heap grows by per cell. A Result that pinned its machine would keep
// the machine's memory pages, engine, pipeline rings and cache
// hierarchy: about 10 MB a cell.
func TestKeptCellsStaySmall(t *testing.T) {
	const perCell = 256 << 10
	r := runner(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, w := range r.Workloads {
		if _, err := r.Run(w, CfgBaseline); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	cells := len(r.Workloads)
	if sims := r.Timing.Harness().Sims; sims != uint64(cells) {
		t.Fatalf("ran %d simulations, want %d distinct cells", sims, cells)
	}
	// The cells are kept: asking again simulates nothing.
	for _, w := range r.Workloads {
		if _, err := r.Run(w, CfgBaseline); err != nil {
			t.Fatal(err)
		}
	}
	if sims := r.Timing.Harness().Sims; sims != uint64(cells) {
		t.Fatalf("runner re-simulated kept cells: %d simulations for %d cells", sims, cells)
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d kept cells grew the heap by %d KiB", cells, grown>>10)
	if grown >= int64(cells)*perCell {
		t.Fatalf("%d kept cells grew the heap by %d KiB, want under %d KiB a cell",
			cells, grown>>10, perCell>>10)
	}
}
