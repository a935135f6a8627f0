package experiments

import (
	"runtime"
	"testing"
)

// TestKeptCellsStaySmall: a runner keeps every cell's wire record
// (Report lists them all) and, for a local cell, its Result, so what
// they hold on to is what a sweep's heap grows by per cell. It measures
// what the runner keeps as the live heap with the runner alive less the
// live heap once it is dropped; the process-wide state both readings
// share (built programs' preludes, the runtime's own) cancels out. A
// kept cell costs about 2.5 KB here (a profiled configuration's kept
// profile included), so the bound leaves a few times that. A Result
// that pinned its machine would keep the machine's memory pages,
// engine, pipeline rings and cache hierarchy: about 10 MB a cell.
func TestKeptCellsStaySmall(t *testing.T) {
	const perCell = 8 << 10
	cfgs := []ConfigName{CfgBaseline, CfgISA, CfgConservative}
	r := runner(t)
	cells := len(r.Workloads) * len(cfgs)
	runAll := func() {
		for _, w := range r.Workloads {
			for _, c := range cfgs {
				if _, err := r.Run(w, c); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	runAll()
	if sims := r.Timing.Harness().Sims; sims != uint64(cells) {
		t.Fatalf("ran %d simulations, want %d distinct cells", sims, cells)
	}
	// The cells are kept: asking again simulates nothing.
	runAll()
	if sims := r.Timing.Harness().Sims; sims != uint64(cells) {
		t.Fatalf("runner re-simulated kept cells: %d simulations for %d cells", sims, cells)
	}

	alive := liveHeap()
	runtime.KeepAlive(r)
	kept := int64(alive) - int64(liveHeap())
	t.Logf("%d kept cells hold %d bytes (%d a cell)", cells, kept, kept/int64(cells))
	if kept >= int64(cells)*perCell {
		t.Fatalf("%d kept cells hold %d KiB, want under %d KiB a cell",
			cells, kept>>10, perCell>>10)
	}
}

// liveHeap returns the bytes of live heap objects: HeapAlloc after two
// collections, so objects freed by the first one's finalizers and
// sweeping are gone too.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
