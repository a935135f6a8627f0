package experiments

import (
	"context"
	"fmt"

	"watchdog/internal/report"
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

	// Warm the baseline and simulate every (workload, size) cell in
	// parallel. A sized cell is no named configuration, so it is held
	// for this call, not kept for Report; the table below assembles in
	// workload order.
	ctx, fid := r.ctx(), r.Fidelity
	if err := r.runAll(ctx, fid, CfgBaseline); err != nil {
		return nil, err
	}
	n := len(sizes)
	cells := make([]report.Cell, len(r.Workloads)*n)
	if err := stats.ParallelDo(ctx, r.Jobs, len(cells), func(i int) error {
		c, err := r.lockCell(ctx, fid, r.Workloads[i/n], sizes[i%n])
		cells[i] = c
		return err
	}); err != nil {
		return nil, err
	}

	perSize := make([][]float64, n)
	var missRates []float64
	for wi, w := range r.Workloads {
		base, err := r.run(ctx, fid, w, CfgBaseline)
		if err != nil {
			return nil, err
		}
		row := []any{w.Name}
		var missPer1k float64
		for si, sz := range sizes {
			c := cells[wi*n+si]
			ov := (overhead(c, base.cell) - 1) * 100
			perSize[si] = append(perSize[si], ov)
			row = append(row, ov)
			if sz == 4<<10 {
				missPer1k = 1000 * float64(c.LockCacheMisses) / float64(c.Insts)
			}
		}
		missRates = append(missRates, missPer1k)
		row = append(row, fmt.Sprintf("%.2f", missPer1k))
		t.Row(row...)
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
// cell and flattened like one. Nothing keeps it.
func (r *Runner) lockCell(ctx context.Context, fid sim.Fidelity, w workload.Workload, size int) (report.Cell, error) {
	res, err := r.runUncached(ctx, fid, w, CfgISA, size)
	if err != nil {
		return report.Cell{}, err
	}
	return buildCell(w.Name, string(CfgISA), fid, res), nil
}
