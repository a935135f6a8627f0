package experiments

import (
	"fmt"

	"watchdog/internal/fuzzgen"
	"watchdog/internal/security"
	"watchdog/internal/stats"
)

// The fixed fuzz corpus behind TagSweep: every seed generates a
// program with one planted use-after-free through a reallocated block
// (the hard case for anything weaker than full identifiers). The range
// is disjoint from the seeds fuzzgen's differential tests judge, so a
// change there cannot silently shift this figure.
const (
	tagSweepBase  = 440
	tagSweepSeeds = 24
)

// tagSweepSchemes are the table's rows: the tag-width axis, then the
// Watchdog oracle, each named as security.Judge names its verdict.
var tagSweepSchemes = []string{"xtag-1b", "xtag-2b", "xtag-4b", "xtag-8b", "watchdog"}

// TagSweep measures the pointer-tagging comparator's detection rate on
// the planted-UAF fuzz corpus as the tag narrows: with W tag bits a
// reallocation whose key delta is a multiple of 2^W reuses the dead
// pointer's tag and the dereference sails through. security.Judge
// rules on every seed, so the corpus is rejected outright if Watchdog
// ever misses or xtag's verdict departs from Watchdog's keys. Runs are
// functional and deterministic, so the table is golden-stable.
func (r *Runner) TagSweep() (*stats.Table, error) {
	ctx := r.ctx()
	detected := make([]map[string]bool, tagSweepSeeds)
	err := stats.ParallelDo(ctx, r.Jobs, tagSweepSeeds, func(si int) error {
		v, err := security.Judge(ctx, fuzzgen.Options{Seed: int64(tagSweepBase + si), Bug: fuzzgen.BugUAF})
		detected[si] = v.Detected
		return err
	})
	if err != nil {
		return nil, err
	}

	t := stats.NewTable(
		fmt.Sprintf("Tag-width sweep: planted-UAF detection, %d-seed fuzz corpus", tagSweepSeeds),
		"scheme", "detected", "missed", "detect-rate")
	for _, scheme := range tagSweepSchemes {
		n := 0
		for _, d := range detected {
			if d[scheme] {
				n++
			}
		}
		t.Row(scheme, n, tagSweepSeeds-n, stats.Pct(float64(n)/tagSweepSeeds))
	}
	return t, nil
}
