package experiments

import (
	"context"
	"fmt"

	"watchdog/internal/machine"
	"watchdog/internal/sim"
	"watchdog/internal/stats"
	"watchdog/internal/workload"
)

// LockSweep is the lock-location-cache sensitivity study the paper
// summarizes in Section 9.3 ("results are not particularly sensitive
// to the exact size of the lock location cache; for a 4KB cache, the
// miss rate is less than 1 miss per 1000 instructions for seventeen of
// the twenty benchmarks"): per-benchmark overhead across cache sizes,
// plus the measured miss rate at the default 4 KB. Every cell runs at
// the runner's fidelity, so each overhead divides cycle estimates of
// one fidelity.
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
	ctx, fid := r.ctx(), r.Fidelity
	if err := r.runAll(ctx, fid, CfgBaseline); err != nil {
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
	if err := r.parallelDo(ctx, len(cells), func(i int) error {
		_, err := r.lockCell(ctx, fid, cells[i].w, cells[i].size)
		return err
	}); err != nil {
		return nil, err
	}

	perSize := make([][]float64, len(sizes))
	var missRates []float64
	for _, w := range r.Workloads {
		base, err := r.run(ctx, fid, w, CfgBaseline)
		if err != nil {
			return nil, err
		}
		cells := []any{w.Name}
		var missPer1k float64
		for si, sz := range sizes {
			res, err := r.lockCell(ctx, fid, w, sz)
			if err != nil {
				return nil, err
			}
			ov := (float64(res.EstimatedCycles())/float64(base.EstimatedCycles()) - 1) * 100
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

// lockCell is the ISA-assisted cell of w with a size-byte lock
// location cache, simulated by the same uncached path as every named
// cell. Its key, workload/lockSIZE:fidelity, has no "@", so
// splitCellKey refuses it and Report, which lists named-configuration
// cells only, skips it.
func (r *Runner) lockCell(ctx context.Context, fid sim.Fidelity, w workload.Workload, size int) (*machine.Result, error) {
	key := fmt.Sprintf("%s/lock%d:%s", w.Name, size, fid.OrExact())
	c, err := r.results.Do(ctx, key, r.Timing.AddHit, func() (cellResult, error) {
		res, err := r.runUncached(ctx, fid, w, CfgISA, size)
		return cellResult{res: res}, err
	})
	return c.res, err
}
