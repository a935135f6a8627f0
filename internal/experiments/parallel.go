package experiments

import (
	"context"

	"watchdog/internal/sim"
	"watchdog/internal/stats"
	"watchdog/internal/workload"
)

// RunAll warms the result cache for every (workload, configuration)
// pair by fanning the cells out over the worker pool. Each cell is an
// independent simulation; the per-key coalescing of the caches
// dedupes concurrent requests (including the shared ISA-assisted
// profiles), and figure assembly afterwards reads the warmed cache in
// workload order, so output is byte-identical to a serial run.
func (r *Runner) RunAll(cfgs ...ConfigName) error {
	return r.runAll(r.ctx(), r.Fidelity, cfgs...)
}

// runAll is RunAll under an explicit context and fidelity:
// cancellation stops the fan-out from claiming new cells and
// interrupts the cells already simulating.
func (r *Runner) runAll(ctx context.Context, fid sim.Fidelity, cfgs ...ConfigName) error {
	type pair struct {
		w workload.Workload
		c ConfigName
	}
	pairs := make([]pair, 0, len(r.Workloads)*len(cfgs))
	for _, c := range cfgs {
		for _, w := range r.Workloads {
			pairs = append(pairs, pair{w, c})
		}
	}
	if r.Progress != nil {
		r.Progress.AddTotal(len(pairs))
	}
	return stats.ParallelDo(ctx, r.Jobs, len(pairs), func(i int) error {
		_, err := r.run(ctx, fid, pairs[i].w, pairs[i].c)
		if r.Progress != nil {
			r.Progress.CellDone()
		}
		return err
	})
}
