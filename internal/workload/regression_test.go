package workload_test

import (
	"context"
	"testing"

	"watchdog/internal/fuzzgen"
	"watchdog/internal/security"
)

// TestRegressionGoldenVerdicts replays two minimized 40-operation
// finds of the differential referee through security.Judge. Each keeps
// its golden baseline checksum, and the configuration it was promoted
// for must still miss its planted use-after-free: a change in either
// means the generator's program for the seed changed, and the find no
// longer pins its divergence class.
func TestRegressionGoldenVerdicts(t *testing.T) {
	for _, reg := range []struct {
		name     string
		opts     fuzzgen.Options
		misses   string // the configuration whose blind spot the find pins
		checksum int64
	}{
		// The reallocation's key agrees with the dangling key in the
		// low bit, so a 1-bit tag matches the dangling pointer.
		{"regress-xtag-alias", fuzzgen.Options{Seed: 2, Ops: 40, Bug: fuzzgen.BugUAF}, "xtag-1b", 1672},
		// The freed block is reallocated at once, so allocation-status
		// checking sees live memory.
		{"regress-location-realloc", fuzzgen.Options{Seed: 0, Ops: 40, Bug: fuzzgen.BugUAF}, "location", 1477},
	} {
		t.Run(reg.name, func(t *testing.T) {
			t.Parallel()
			v, err := security.Judge(context.Background(), reg.opts)
			if err != nil {
				t.Fatal(err)
			}
			if v.Checksum != reg.checksum {
				t.Errorf("baseline checksum %d, want golden %d", v.Checksum, reg.checksum)
			}
			if detected, ran := v.Detected[reg.misses]; !ran || detected {
				t.Errorf("%s: ran %v, detected %v; the find pins a silent miss", reg.misses, ran, detected)
			}
		})
	}
}
