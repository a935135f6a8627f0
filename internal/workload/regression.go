package workload

import (
	"fmt"

	"watchdog/internal/asm"
	"watchdog/internal/fuzzgen"
)

// Regression is a differential-fuzzer find promoted into a named,
// reproducible workload: a generator recipe (not a stored program — it
// rebuilds bit-identically from the seed) plus the golden per-policy
// verdicts the find minimized down to. The regressions live outside
// the benchmark registry on purpose: they end in a violation under
// some policies, so they must never enter the figure sweeps (whose
// runner treats any violation as an error).
type Regression struct {
	Name string
	// About documents the divergence class the find pins.
	About string
	// Opts is the generator recipe. Opts.Policy is a default; harnesses
	// rebuild against the policy under test (the generator is a pure
	// function of the seed, so the operation sequence is identical).
	Opts fuzzgen.Options
	// TagBits is the tag width that reproduces the find under the xtag
	// policy (0 = the policy default).
	TagBits int
	// Detects maps each check policy (by security-suite name) to its
	// golden verdict: true = the planted access faults at the planted
	// pc, false = the program completes cleanly with Checksum.
	Detects map[string]bool
	// Checksum is the golden program output for every policy that
	// misses (and for the baseline): the miss is silent, not a crash.
	Checksum int64
}

// Regressions returns the promoted finds. Verdicts and checksums are
// golden: they were discovered by the N-way differential referee and
// minimized (Ops cut until the divergence barely survives), and any
// drift means a policy's detection envelope changed.
func Regressions() []Regression {
	return []Regression{
		{
			Name: "regress-xtag-alias",
			About: "tag aliasing: the reallocation's key delta is a multiple of 2^1, " +
				"so a 1-bit tag matches the dangling pointer and the UAF sails through; " +
				"every full-identifier scheme faults at the planted pc",
			Opts:    fuzzgen.Options{Seed: 2, Ops: 40, Bug: fuzzgen.BugUAF},
			TagBits: 1,
			Detects: map[string]bool{
				"watchdog":     true,
				"conservative": true,
				"software":     true,
				"dangkiller":   true,
				"xtag":         false,
				"location":     false,
			},
			Checksum: 1672,
		},
		{
			Name: "regress-location-realloc",
			About: "reallocated UAF: the freed block is immediately reallocated, so " +
				"allocation-status checking sees live memory and misses; identifier " +
				"schemes (and the full-width tag) fault at the planted pc",
			Opts: fuzzgen.Options{Seed: 0, Ops: 40, Bug: fuzzgen.BugUAF},
			Detects: map[string]bool{
				"watchdog":     true,
				"conservative": true,
				"software":     true,
				"dangkiller":   true,
				"xtag":         true,
				"location":     false,
			},
			Checksum: 1477,
		},
	}
}

// Build regenerates the find's program against opts.Policy (and
// opts.Bounds), returning the program, the runtime end marker and the
// planted access's instruction index.
func (r Regression) Build(opts fuzzgen.Options) (*asm.Program, int, int, error) {
	o := r.Opts
	o.Policy = opts.Policy
	o.Bounds = opts.Bounds
	prog, rtEnd, bugPC, err := fuzzgen.Generate(o)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("regression %s: %w", r.Name, err)
	}
	return prog, rtEnd, bugPC, nil
}
