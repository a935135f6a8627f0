package main

import (
	"testing"

	"watchdog/internal/cache"
)

// TestReplayReproducesSimulatedTraffic shows that the layers phase
// times the traffic the simulator sends: the recorded stream, replayed
// through a fresh hierarchy, makes exactly the simulated run's L1I, L1D
// and lock-cache accesses and misses, printed beside the simulated ones.
func TestReplayReproducesSimulatedTraffic(t *testing.T) {
	for _, k := range layerKernels {
		rec, err := record(k)
		if err != nil {
			t.Fatal(err)
		}
		h := cache.NewHierarchy(cache.DefaultHierConfig())
		replay(h, rec.ops)
		got, sim := h.Stats(), rec.res.Timing.Cache
		t.Logf("%s: L1I %d accesses (simulated %d), %d misses (simulated %d)",
			k, got.L1I.Accesses, sim.L1I.Accesses, got.L1I.Misses, sim.L1I.Misses)
		t.Logf("%s: L1D %d accesses (simulated %d), %d misses (simulated %d)",
			k, got.L1D.Accesses, sim.L1D.Accesses, got.L1D.Misses, sim.L1D.Misses)
		t.Logf("%s: lock cache %d accesses (simulated %d), %d misses (simulated %d)",
			k, got.Lock.Accesses, sim.Lock.Accesses, got.Lock.Misses, sim.Lock.Misses)
		if got.L1I != sim.L1I || got.L1D != sim.L1D || got.Lock != sim.Lock {
			t.Errorf("%s: replayed traffic differs from the simulated run", k)
		}
		if len(rec.branches) == 0 || len(rec.pcs) != int(rec.res.Insts) {
			t.Errorf("%s: %d branches and %d executed pcs recorded for %d instructions",
				k, len(rec.branches), len(rec.pcs), rec.res.Insts)
		}
	}
}
