package experiments

import (
	"context"
	"fmt"

	"watchdog/internal/core"
	"watchdog/internal/fuzzgen"
	"watchdog/internal/security"
	"watchdog/internal/sim"
	"watchdog/internal/stats"
)

// The fixed fuzz corpus behind TagSweep: every seed generates a
// program with one planted use-after-free through a reallocated block
// (the hard case for anything weaker than full identifiers). The range
// is disjoint from the fuzzgen test corpora so a corpus change there
// cannot silently shift this figure.
const (
	tagSweepBase  = 440
	tagSweepSeeds = 24
)

// tagSweepWidths is the tag-width axis.
var tagSweepWidths = []int{1, 2, 4, 8}

// TagSweep measures the pointer-tagging comparator's detection rate on
// the planted-UAF fuzz corpus as the tag narrows: with W tag bits a
// reallocation whose key delta is a multiple of 2^W reuses the dead
// pointer's tag and the dereference sails through. Watchdog's full
// identifiers are the oracle row — the corpus is rejected outright if
// it ever misses. Runs are functional and deterministic, so the table
// is golden-stable.
func (r *Runner) TagSweep() (*stats.Table, error) {
	ctx := r.ctx()
	// detected[si][wi] records seed si's verdict at tagSweepWidths[wi];
	// detected[si][len(tagSweepWidths)] is the Watchdog oracle.
	detected := make([][]bool, tagSweepSeeds)
	xtag, _, err := security.PolicyConfig(string(CfgXTag))
	if err != nil {
		return nil, err
	}
	err = stats.ParallelDo(ctx, r.Jobs, tagSweepSeeds, func(si int) error {
		seed := int64(tagSweepBase + si)
		row := make([]bool, len(tagSweepWidths)+1)
		for wi, w := range tagSweepWidths {
			cc := xtag
			if err := security.SetTagBits(&cc, w); err != nil {
				return err
			}
			hit, err := runTagSeed(ctx, seed, cc)
			if err != nil {
				return err
			}
			row[wi] = hit
		}
		hit, err := runTagSeed(ctx, seed, core.DefaultConfig())
		if err != nil {
			return err
		}
		if !hit {
			return fmt.Errorf("tagsweep seed %d: watchdog oracle missed the planted UAF", seed)
		}
		row[len(tagSweepWidths)] = true
		detected[si] = row
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := stats.NewTable(
		fmt.Sprintf("Tag-width sweep: planted-UAF detection, %d-seed fuzz corpus", tagSweepSeeds),
		"scheme", "detected", "missed", "detect-rate")
	for wi, w := range tagSweepWidths {
		n := 0
		for si := range detected {
			if detected[si][wi] {
				n++
			}
		}
		t.Row(fmt.Sprintf("xtag-%db", w), n, tagSweepSeeds-n,
			stats.Pct(float64(n)/tagSweepSeeds))
	}
	t.Row("watchdog", tagSweepSeeds, 0, stats.Pct(1))
	return t, nil
}

// runTagSeed runs one corpus program under one configuration and
// classifies the outcome: true when the planted dereference faults as
// a use-after-free at the planted pc, false when the program completes
// cleanly (the scheme missed). Anything else — an abort, a fault at
// the wrong pc or of the wrong kind — is a corpus anomaly and an
// error, not a data point.
func runTagSeed(ctx context.Context, seed int64, cc core.Config) (bool, error) {
	prog, rtEnd, bugPC, err := fuzzgen.Generate(fuzzgen.Options{
		Seed: seed, Bug: fuzzgen.BugUAF, Policy: cc.Policy,
	})
	if err != nil {
		return false, err
	}
	if bugPC < 0 {
		return false, fmt.Errorf("tagsweep seed %d: no bug planted", seed)
	}
	res, err := sim.RunCtx(ctx, prog, sim.Config{Core: cc, RuntimeEnd: rtEnd, InstLimit: 10_000_000})
	if err != nil {
		return false, fmt.Errorf("tagsweep seed %d under %s: %w", seed, cc.Policy, err)
	}
	switch {
	case res.MemErr == nil && !res.Aborted:
		return false, nil
	case res.MemErr != nil && res.MemErr.Kind == core.ErrUseAfterFree && res.MemErr.PC == bugPC:
		return true, nil
	}
	return false, fmt.Errorf("tagsweep seed %d under %s: unexpected outcome (memerr=%v aborted=%v)",
		seed, cc.Policy, res.MemErr, res.Aborted)
}
