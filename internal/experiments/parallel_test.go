package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"watchdog/internal/security"
	"watchdog/internal/stats"
	"watchdog/internal/trace"
	"watchdog/internal/workload"
)

// detSet is deliberately tiny: the determinism tests rebuild fresh
// runners (no shared cache), so every extra workload multiplies the
// number of full simulations.
var detSet = []string{"mcf", "lbm"}

func runnerJ(t *testing.T, jobs int) *Runner {
	t.Helper()
	r, err := NewRunner(1, detSet...)
	if err != nil {
		t.Fatal(err)
	}
	r.Jobs = jobs
	return r
}

// figures renders every table the bench harness prints for the small
// subset, concatenated — the golden unit for the determinism tests.
func figures(t *testing.T, r *Runner) string {
	t.Helper()
	out := ""
	tab, err := r.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	out += tab.String()
	tab, err = r.LockSweep([]int{2 << 10, 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	out += tab.String()
	return out
}

// TestFiguresDeterministic: the parallel path must produce
// byte-identical figure output run-to-run and against the serial
// path, so parallelism can never silently reorder or drop a cell.
func TestFiguresDeterministic(t *testing.T) {
	parA := figures(t, runnerJ(t, 8))
	parB := figures(t, runnerJ(t, 8))
	serial := figures(t, runnerJ(t, 1))
	if parA != parB {
		t.Errorf("parallel output not reproducible:\n--- run A ---\n%s\n--- run B ---\n%s", parA, parB)
	}
	if parA != serial {
		t.Errorf("parallel output differs from serial:\n--- parallel ---\n%s\n--- serial ---\n%s", parA, serial)
	}
}

// TestSweepParallelMatchesSerial: the numeric series from a parallel
// sweep must be exactly equal (not just close) to the serial sweep —
// the simulations are deterministic, so any difference is a merge bug.
func TestSweepParallelMatchesSerial(t *testing.T) {
	ps, pg, err := runnerJ(t, 8).Sweep(CfgConservative)
	if err != nil {
		t.Fatal(err)
	}
	ss, sg, err := runnerJ(t, 1).Sweep(CfgConservative)
	if err != nil {
		t.Fatal(err)
	}
	if pg != sg {
		t.Errorf("geomean differs: parallel %v vs serial %v", pg, sg)
	}
	if len(ps.Values) != len(ss.Values) {
		t.Fatalf("series length differs: %d vs %d", len(ps.Values), len(ss.Values))
	}
	for i := range ps.Values {
		if ps.Labels[i] != ss.Labels[i] || ps.Values[i] != ss.Values[i] {
			t.Errorf("cell %d differs: parallel %s=%v vs serial %s=%v",
				i, ps.Labels[i], ps.Values[i], ss.Labels[i], ss.Values[i])
		}
	}
}

// TestProfileComputedOnce: many configurations requesting the same
// workload's ISA-assisted profile concurrently must trigger exactly
// one profiling pass per (workload, bounds-variant) key.
func TestProfileComputedOnce(t *testing.T) {
	r := runnerJ(t, 8)
	cfgs := []ConfigName{CfgISA, CfgISANoLock, CfgISAIdeal, CfgBounds1, CfgBounds2}
	if err := r.RunAll(cfgs...); err != nil {
		t.Fatal(err)
	}
	// Two workloads x two profile keys each (bounds off / bounds on).
	if got, want := r.Timing.Harness().Profiles, uint64(2*len(detSet)); got != want {
		t.Errorf("profiling passes: got %d, want %d (once per key)", got, want)
	}
	if got, want := r.Timing.Harness().Sims, uint64(len(cfgs)*len(detSet)); got != want {
		t.Errorf("simulations: got %d, want %d", got, want)
	}
	// A second fan-out over the same cells must be all cache hits.
	sims := r.Timing.Harness().Sims
	if err := r.RunAll(cfgs...); err != nil {
		t.Fatal(err)
	}
	if r.Timing.Harness().Sims != sims {
		t.Errorf("re-running warmed cells simulated again: %d -> %d sims", sims, r.Timing.Harness().Sims)
	}
	if r.Timing.Harness().CacheHits == 0 {
		t.Error("cache hits not counted")
	}
}

// TestBusyTimeBillsProfilesOnce: on a serial runner the summed busy
// time can never exceed the wall time around the sweep, which holds
// only if a cell's nested profiling pass is billed by the profile
// counter alone and not again inside the cell's simulation time.
func TestBusyTimeBillsProfilesOnce(t *testing.T) {
	r := runnerJ(t, 1)
	start := time.Now()
	if err := r.RunAll(CfgISA, CfgBounds1); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if r.Timing.Harness().Profiles == 0 {
		t.Fatal("profiled configs ran no profiling pass")
	}
	if busy := time.Duration(r.Timing.Harness().BusyNanos); busy > wall {
		t.Errorf("serial busy time %v exceeds the sweep's wall time %v", busy, wall)
	}
}

// TestRunConcurrentSameCell: hammering one cell from many goroutines
// must return the identical cached result from a single simulation.
func TestRunConcurrentSameCell(t *testing.T) {
	r := runnerJ(t, 8)
	w, _ := workload.ByName("mcf")
	const n = 16
	var wg sync.WaitGroup
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.Run(w, CfgISA)
			if err != nil {
				results[i] = err
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d got a different result: %v vs %v", i, results[i], results[0])
		}
	}
	if got := r.Timing.Harness().Sims; got != 1 {
		t.Errorf("one cell hammered concurrently ran %d simulations, want 1", got)
	}
}

// TestParallelDoFirstErrorByIndex: the error surfaced by a parallel
// fan-out must be the lowest-index one regardless of which worker
// fails first, so error reporting is deterministic.
func TestParallelDoFirstErrorByIndex(t *testing.T) {
	want := errors.New("boom-3")
	err := stats.ParallelDo(context.Background(), 8, 10, func(i int) error {
		if i == 3 {
			return want
		}
		if i == 7 {
			return fmt.Errorf("boom-7")
		}
		return nil
	})
	if err != want {
		t.Fatalf("got %v, want the lowest-index error %v", err, want)
	}
}

// TestNewRunnerReportsAllUnknown: every unknown workload name is
// listed, not just the first.
func TestNewRunnerReportsAllUnknown(t *testing.T) {
	_, err := NewRunner(1, "mcf", "nope1", "nope2")
	if err == nil {
		t.Fatal("expected error")
	}
	for _, miss := range []string{"nope1", "nope2"} {
		if !strings.Contains(err.Error(), miss) {
			t.Errorf("error %q does not name %q", err, miss)
		}
	}
}

// TestTracedSweepParallel: a fan-out at Jobs=4 with a trace.Progress
// attached ticks its counters to completion. (That a trace sink leaves
// a run's result unchanged is sim.TestSinkDoesNotPerturb's.)
func TestTracedSweepParallel(t *testing.T) {
	r := runnerJ(t, 4)
	r.Progress = trace.NewProgress()
	if _, _, err := r.Sweep(CfgConservative); err != nil {
		t.Fatal(err)
	}
	if r.Progress.Done() != r.Progress.Total() || r.Progress.Done() == 0 {
		t.Fatalf("progress %d/%d after completed sweep", r.Progress.Done(), r.Progress.Total())
	}
}

// TestParallelDoFirstErrorAtAnyJobs: the deterministic-error contract
// must hold at every worker count, including the serial path — the
// fail-fast stop must never suppress the lowest-index error.
func TestParallelDoFirstErrorAtAnyJobs(t *testing.T) {
	want := errors.New("boom-3")
	for _, jobs := range []int{1, 2, 4, 8, 16} {
		err := stats.ParallelDo(context.Background(), jobs, 10, func(i int) error {
			switch i {
			case 3:
				return want
			case 7:
				return errors.New("boom-7")
			}
			return nil
		})
		if err != want {
			t.Errorf("jobs=%d: got %v, want the lowest-index error %v", jobs, err, want)
		}
	}
}

// TestParallelDoFailFast: after an index records an error, the
// fan-out stops handing out new indices instead of running the rest
// of a large batch to completion.
func TestParallelDoFailFast(t *testing.T) {
	const n = 10_000
	var calls atomic.Int64
	err := stats.ParallelDo(context.Background(), 4, n, func(i int) error {
		calls.Add(1)
		if i == 0 {
			return fmt.Errorf("boom-0")
		}
		time.Sleep(100 * time.Microsecond) // give the flag time to propagate
		return nil
	})
	if err == nil || err.Error() != "boom-0" {
		t.Fatalf("err = %v, want boom-0", err)
	}
	if got := calls.Load(); got >= n/2 {
		t.Errorf("fail-fast still ran %d of %d indices", got, n)
	}
}

// TestParallelDoCanceledBeforeStart: a dead context stops the fan-out
// before any index is claimed, at any worker count.
func TestParallelDoCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, jobs := range []int{1, 4} {
		var calls atomic.Int64
		err := stats.ParallelDo(ctx, jobs, 10, func(i int) error {
			calls.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("jobs=%d: err = %v, want context.Canceled", jobs, err)
		}
		if calls.Load() != 0 {
			t.Errorf("jobs=%d: %d indices ran under a dead context", jobs, calls.Load())
		}
	}
}

// TestRunAllCtxCanceled: cancellation surfaces from the full fan-out
// as a context error without executing simulations.
func TestRunAllCtxCanceled(t *testing.T) {
	r := runnerJ(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.runAll(ctx, r.Fidelity, CfgBaseline); !Canceled(err) {
		t.Fatalf("err = %v, want a cancellation", err)
	}
	if got := r.Timing.Harness().Sims; got != 0 {
		t.Errorf("canceled fan-out still ran %d simulations", got)
	}
}

// TestTable1JulietPassesCanceled: Table1's Juliet passes run under the
// runner's context, so a cancellation that lands mid-pass stops that
// pass and is Table1's error.
func TestTable1JulietPassesCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := runnerJ(t, 1) // one busy worker leaves a CPU for the watcher below
	r.Ctx = ctx
	if err := r.RunAll(CfgBaseline, CfgLocation, CfgXTag, CfgSoftware,
		CfgDangKiller, CfgConservative, CfgISA); err != nil {
		t.Fatal(err)
	}
	sweeps := r.Timing.Harness().Sims
	done := make(chan error, 1)
	go func() {
		_, err := r.Table1()
		done <- err
	}()
	// The kept sweeps add no sims, so the first new one is a Juliet case.
	for r.Timing.Harness().Sims == sweeps {
		time.Sleep(50 * time.Microsecond)
	}
	cancel()
	if err := <-done; !Canceled(err) {
		t.Fatalf("err = %v, want a cancellation", err)
	}
	if ran, pass := r.Timing.Harness().Sims-sweeps, uint64(len(security.Suite())); ran >= pass {
		t.Errorf("%d Juliet cases ran: the pass in flight ignored the cancellation", ran)
	}
}
