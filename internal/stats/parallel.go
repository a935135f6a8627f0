package stats

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelDo runs fn(i) for indices in [0, n) over jobs workers (<= 0
// means GOMAXPROCS; one job runs serially), failing fast: once any
// index records an error, or ctx fires, no new indices are handed
// out, so a first-cell failure in a large sweep does not cost the
// whole sweep's wall-clock. Indices already claimed run to completion.
//
// The returned error is deterministic: indices are handed out in
// increasing order, so when index j records an error, every index
// below j was claimed earlier and runs to completion — in particular
// the lowest failing index a serial loop would hit first is always
// claimed, always recorded, and always the one returned, at any jobs.
// When no index recorded an error, ctx.Err() is returned.
func ParallelDo(ctx context.Context, jobs, n int, fn func(i int) error) error {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs = min(jobs, n); jobs <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	errs := make([]error, n)
	var failed atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil {
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
