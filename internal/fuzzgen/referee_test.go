package fuzzgen_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"watchdog/internal/fuzzgen"
	"watchdog/internal/security"
)

// seeds is the length of each fixed seed run below. Seeds are fixed,
// so every run judges the same programs.
const seeds = 25

// judgeSeeds holds the programs of seeds first..first+seeds-1, at the
// generator's default 150 operations with bug planted, to the rules of
// security.Judge: the one judge of a generated program, which runs it
// under the baseline, the -policy vocabulary with xtag at every width
// from 1 to 8 bits, and both bounds modes. Each seed is a parallel
// subtest, which also runs the simulations concurrently under -race;
// verdict, if set, sees each seed's verdicts.
func judgeSeeds(t *testing.T, bug fuzzgen.Bug, first int64, verdict func(security.Verdicts)) {
	for seed := first; seed < first+seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			v, err := security.Judge(context.Background(), fuzzgen.Options{Seed: seed, Bug: bug})
			if err != nil {
				t.Fatal(err)
			}
			if verdict != nil {
				verdict(v)
			}
		})
	}
}

// TestDifferentialSafePrograms: random safe programs produce the
// baseline checksum with zero violations under every configuration.
func TestDifferentialSafePrograms(t *testing.T) {
	judgeSeeds(t, fuzzgen.BugNone, 0, nil)
}

// TestDifferentialSafeProgramsWithBounds: the same property on a
// second seed run; the judge runs every safe program under both bounds
// modes on the bounds runtime.
func TestDifferentialSafeProgramsWithBounds(t *testing.T) {
	judgeSeeds(t, fuzzgen.BugNone, 100, nil)
}

// TestInjectedUAFAlwaysDetected: every planted use-after-free, through
// a reallocated block, faults at the planted pc under watchdog,
// conservative, software and dangkiller, while the baseline completes.
func TestInjectedUAFAlwaysDetected(t *testing.T) {
	judgeSeeds(t, fuzzgen.BugUAF, 200, nil)
}

// TestInjectedOOBDetectedOnlyWithBounds: a planted one-past-the-end
// read completes under use-after-free-only checking and faults at the
// planted pc under both bounds modes.
func TestInjectedOOBDetectedOnlyWithBounds(t *testing.T) {
	judgeSeeds(t, fuzzgen.BugOOB, 300, nil)
}

// TestFuzzDifferential judges a safe and a planted-UAF seed run. The
// planted-UAF run must exercise both sides of xtag's rule: if no
// planted use-after-free aliased under a 1-bit tag, or none was caught
// under one, the derived expectation would pass half vacuously.
func TestFuzzDifferential(t *testing.T) {
	t.Run("safe", func(t *testing.T) {
		judgeSeeds(t, fuzzgen.BugNone, 400, nil)
	})
	var mu sync.Mutex
	narrow := map[bool]int{}
	t.Run("uaf", func(t *testing.T) {
		judgeSeeds(t, fuzzgen.BugUAF, 500, func(v security.Verdicts) {
			mu.Lock()
			narrow[v.Detected["xtag-1b"]]++
			mu.Unlock()
		})
	})
	if narrow[true] == 0 || narrow[false] == 0 {
		t.Errorf("xtag-1b detected %d and missed %d planted use-after-frees; the run must do both", narrow[true], narrow[false])
	}
}
