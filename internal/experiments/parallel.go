package experiments

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"watchdog/internal/sim"
	"watchdog/internal/workload"
)

// jobs returns the worker count for the parallel execution paths.
func (r *Runner) jobs() int {
	if r.Jobs > 0 {
		return r.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// parallelDo runs fn(i) for indices in [0, n) across the runner's
// worker pool, failing fast: once any index records an error (or ctx
// is canceled) no new indices are handed out, so a first-cell failure
// in a 20-workload sweep no longer costs the whole sweep's
// wall-clock. Indices already claimed run to completion.
//
// The returned error is still deterministic: indices are handed out
// in increasing order, so when index j records an error, every index
// below j was claimed earlier and runs to completion — in particular
// the lowest failing index a serial loop would hit first is always
// claimed, always recorded, and always the one returned, at any Jobs.
// When no per-index error was recorded, a context error is returned
// if the context fired.
func (r *Runner) parallelDo(ctx context.Context, n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	j := r.jobs()
	if j > n {
		j = n
	}
	if j <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var failed atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	done := ctx.Done()
	for w := 0; w < j; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

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
	return r.parallelDo(ctx, len(pairs), func(i int) error {
		_, err := r.run(ctx, fid, pairs[i].w, pairs[i].c)
		if r.Progress != nil {
			r.Progress.CellDone()
		}
		return err
	})
}
