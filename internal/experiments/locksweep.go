package experiments

import (
	"context"
	"fmt"

	"watchdog/internal/machine"
	"watchdog/internal/report"
	"watchdog/internal/stats"
	"watchdog/internal/workload"
)

// LockSweep is the lock-location-cache sensitivity study the paper
// summarizes in Section 9.3 ("results are not particularly sensitive
// to the exact size of the lock location cache; for a 4KB cache, the
// miss rate is less than 1 miss per 1000 instructions for seventeen of
// the twenty benchmarks"): per-benchmark overhead across cache sizes,
// plus the measured miss rate at the default 4 KB.
func (r *Runner) LockSweep(sizes []int) (*stats.Table, error) {
	if len(sizes) == 0 {
		sizes = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10}
	}
	headers := []string{"bench"}
	for _, sz := range sizes {
		headers = append(headers, fmt.Sprintf("%dKB", sz>>10))
	}
	headers = append(headers, "miss/1k-inst@4KB")
	t := stats.NewTable("Lock location cache sensitivity (% slowdown; miss rate at 4 KB)", headers...)

	// Warm the baseline and every (workload, size) cell in parallel;
	// the table below assembles from the cache in workload order.
	if err := r.RunAll(CfgBaseline); err != nil {
		return nil, err
	}
	type cell struct {
		w    workload.Workload
		size int
	}
	cells := make([]cell, 0, len(r.Workloads)*len(sizes))
	for _, w := range r.Workloads {
		for _, sz := range sizes {
			cells = append(cells, cell{w, sz})
		}
	}
	if err := r.parallelDo(r.ctx(), len(cells), func(i int) error {
		_, err := r.runLockSize(r.ctx(), cells[i].w, cells[i].size)
		return err
	}); err != nil {
		return nil, err
	}

	perSize := make([][]float64, len(sizes))
	var missRates []float64
	for _, w := range r.Workloads {
		base, err := r.Run(w, CfgBaseline)
		if err != nil {
			return nil, err
		}
		cells := []any{w.Name}
		var missPer1k float64
		for si, sz := range sizes {
			res, err := r.runLockSize(r.ctx(), w, sz)
			if err != nil {
				return nil, err
			}
			ov := (float64(res.Timing.Cycles)/float64(base.Timing.Cycles) - 1) * 100
			perSize[si] = append(perSize[si], ov)
			cells = append(cells, ov)
			if sz == 4<<10 {
				missPer1k = 1000 * float64(res.Timing.Cache.Lock.Misses) / float64(res.Insts)
			}
		}
		missRates = append(missRates, missPer1k)
		cells = append(cells, fmt.Sprintf("%.2f", missPer1k))
		t.Row(cells...)
	}
	avg := []any{"avg"}
	for si := range sizes {
		avg = append(avg, stats.Mean(perSize[si]))
	}
	avg = append(avg, fmt.Sprintf("%.2f", stats.Mean(missRates)))
	t.Row(avg...)
	return t, nil
}

// runLockSize executes one workload under the ISA-assisted
// configuration with a given lock-location-cache size (cached; safe
// for concurrent use).
func (r *Runner) runLockSize(ctx context.Context, w workload.Workload, size int) (*machine.Result, error) {
	key := fmt.Sprintf("%s/lock%d", w.Name, size)
	return r.cachedResult(ctx, key, func() (*machine.Result, *report.Cell, error) {
		opts := rtOptions(CfgISA)
		prog, rtEnd, err := workload.BuildProgram(w, opts, r.Scale)
		if err != nil {
			return nil, nil, err
		}
		pkey := fmt.Sprintf("%s/%s/%v", w.Name, opts.Policy, opts.Bounds)
		prof, err := r.profileFor(ctx, pkey, prog, rtEnd, opts)
		if err != nil {
			return nil, nil, err
		}
		cfg := simConfig(CfgISA, prof)
		cfg.Hier.Lock.SizeBytes = size
		cfg.RuntimeEnd = rtEnd
		res, err := r.simulate(ctx, prog, cfg)
		if err != nil {
			return nil, nil, err
		}
		if res.MemErr != nil || res.Aborted {
			return nil, nil, fmt.Errorf("%s at lock size %d: violation/abort", w.Name, size)
		}
		return res, nil, nil
	})
}
