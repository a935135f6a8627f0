// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 9): Figure 5 (pointer identification),
// Figure 7 (runtime overhead, conservative vs ISA-assisted), Figure 8
// (µop overhead breakdown), Figure 9 (lock location cache), Figure 10
// (memory overhead), Figure 11 (bounds checking), Table 1 (scheme
// comparison), Table 2 (processor configuration), the Section 9.3
// idealized-shadow study, and the Section 9.2 security suite.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"watchdog/internal/asm"
	"watchdog/internal/core"
	"watchdog/internal/flight"
	"watchdog/internal/machine"
	"watchdog/internal/report"
	"watchdog/internal/rt"
	"watchdog/internal/security"
	"watchdog/internal/sim"
	"watchdog/internal/stats"
	"watchdog/internal/trace"
	"watchdog/internal/workload"
)

// ConfigName selects one of the predefined simulation configurations.
type ConfigName string

// The configuration points the evaluation sweeps over.
const (
	CfgBaseline     ConfigName = "baseline"     // no instrumentation
	CfgConservative ConfigName = "conservative" // Watchdog, conservative ptr id
	CfgISA          ConfigName = "isa"          // Watchdog, ISA-assisted (profiled)
	CfgISANoLock    ConfigName = "isa-nolock"   // ISA-assisted, no lock location cache
	CfgISAIdeal     ConfigName = "isa-ideal"    // ISA-assisted, idealized shadow accesses
	CfgBounds1      ConfigName = "bounds-1uop"  // + bounds, fused check µop
	CfgBounds2      ConfigName = "bounds-2uop"  // + bounds, separate check µop
	CfgLocation     ConfigName = "location"     // location-based comparator
	CfgSoftware     ConfigName = "software"     // software-only comparator
	CfgNoCopyElim   ConfigName = "no-copy-elim" // ablation: rename copy elimination off
	CfgMonolithic   ConfigName = "monolithic"   // ablation: monolithic register metadata
	CfgXTag         ConfigName = "xtag"         // pointer-tagging comparator
	CfgDangKiller   ConfigName = "dangkiller"   // implicit-identifier comparator
)

// AllConfigs lists every predefined configuration, in sweep order.
// The serving layer and CLIs validate request configs against it.
var AllConfigs = []ConfigName{
	CfgBaseline, CfgConservative, CfgISA, CfgISANoLock, CfgISAIdeal,
	CfgBounds1, CfgBounds2, CfgLocation, CfgSoftware, CfgNoCopyElim,
	CfgMonolithic, CfgXTag, CfgDangKiller,
}

// IsConfig reports whether name is a predefined configuration, one
// SimConfig gives a meaning.
func IsConfig(name string) bool {
	_, err := SimConfig(ConfigName(name))
	return err == nil
}

// ConfigNames returns the predefined configuration names as strings
// (error messages, -config help text).
func ConfigNames() []string {
	out := make([]string, len(AllConfigs))
	for i, c := range AllConfigs {
		out[i] = string(c)
	}
	return out
}

// Runner executes (workload, configuration) pairs, keeping profiles
// and results, so figures sharing runs (e.g. the baseline) pay for them
// once. All methods are safe for concurrent use: cells and profiles
// live in flight Groups, so even when many goroutines request the same
// cell (or the same ISA-assisted profile) it is computed exactly once
// and everyone else waits on that computation instead of repeating it.
type Runner struct {
	Scale     int
	Workloads []workload.Workload
	// Jobs is the worker count for the parallel execution paths
	// (RunAll, Sweep, the figure methods); <= 0 means GOMAXPROCS.
	Jobs int

	// Fidelity is the timing methodology of every method without a
	// fidelity argument (empty = exact). It is a result-cache
	// dimension: cells of different fidelities never alias, so a runner
	// used at several fidelities (the fidelity-drift experiment, the
	// serving layer) keeps them apart.
	Fidelity sim.Fidelity

	// Timing counts executed simulations, profiling passes and cache
	// hits (observability for the parallel harness).
	Timing stats.Timing

	// Progress, when non-nil, receives cell-completion ticks from the
	// fan-out paths (RunAll and the Juliet suite). The counters are
	// atomic and ordering-free, so the deterministic merge of results
	// is unaffected.
	Progress *trace.Progress

	// Ctx, when non-nil, is the context of every method without a
	// context argument (the figure methods, Sweep, RunAll, Run,
	// Juliet). The CLIs set it once to their signal context so a
	// SIGINT cancels whatever sweep is in flight; the serving layer
	// ignores it and passes a per-request context to CellCtx instead.
	Ctx context.Context

	// Remote, when non-nil, replaces local simulation entirely: every
	// uncached cell is fetched through it (the distributed sweep
	// fabric) instead of being simulated in-process, and kept as the
	// worker sent it. The runner's caches, fan-out and workload-order
	// merge are unchanged, and the figures and Report read the same
	// wire cell on both paths, so a remote sweep's output is
	// byte-identical to a local one's: the workers run the same
	// deterministic simulations.
	Remote RemoteCellRunner

	// results keeps every cell this runner computed, keyed by cellKey,
	// unbounded because Report lists them all; profiles keeps the
	// profiling passes, keyed by profileFor.
	results  flight.Group[cellResult]
	profiles flight.Group[*core.Profile]
}

// RemoteCellRunner fetches one simulated cell from somewhere other
// than the local simulator — the distributed sweep fabric, which
// shards cells across watchdog-serve workers. The returned cell is
// the /v1/sim wire record.
type RemoteCellRunner interface {
	RemoteCell(ctx context.Context, workload string, config ConfigName, fid sim.Fidelity) (report.Cell, error)
}

// cellResult is one kept cell: its wire record, which the figures and
// Report read, and for a local simulation the Result, which Run and
// RunCtx return (nil for a remote cell).
type cellResult struct {
	cell report.Cell
	res  *machine.Result
}

// NewRunner builds a runner over all workloads (or the given subset).
// Unknown names are all reported, not just the first.
func NewRunner(scale int, names ...string) (*Runner, error) {
	var ws []workload.Workload
	if len(names) == 0 {
		ws = workload.All()
	} else {
		var unknown []string
		for _, n := range names {
			w, ok := workload.ByName(n)
			if !ok {
				unknown = append(unknown, fmt.Sprintf("%q", n))
				continue
			}
			ws = append(ws, w)
		}
		if len(unknown) > 0 {
			return nil, fmt.Errorf("unknown workloads: %s (known: %s)",
				strings.Join(unknown, ", "), strings.Join(workload.Names(), ", "))
		}
	}
	return &Runner{Scale: scale, Workloads: ws}, nil
}

// cellKey is the result-cache key of one (workload, configuration,
// fidelity) cell. Fidelity is part of the key so cells simulated at
// different fidelities coexist in one cache; Report lists the cells in
// key order.
func cellKey(wname string, name ConfigName, fid sim.Fidelity) string {
	return wname + "/" + string(name) + "@" + string(fid.OrExact())
}

// SimConfig is the one place a configuration name gets its meaning:
// the engine configuration and timing-model switches it simulates
// under. The runtime variant follows from the engine configuration
// (rt.For), and so does the need for a profiling pass (NeedsProfile),
// whose profile the runner fills in. An unknown name is an error that
// lists the known ones.
func SimConfig(name ConfigName) (sim.Config, error) {
	cfg := sim.Default()
	var err error
	switch name {
	case CfgBaseline:
		cfg.Core = core.Config{Policy: core.PolicyBaseline}
	case CfgConservative, CfgLocation, CfgSoftware, CfgXTag, CfgDangKiller:
		// The security policy of the same name gives the engine, so
		// Table 1's juliet column runs what watchdog-juliet -policy runs.
		cfg.Core, _, err = security.PolicyConfig(string(name))
	case CfgISA: // sim.Default's engine: ISA-assisted Watchdog
	case CfgISANoLock:
		cfg.Core.LockCache = false
	case CfgISAIdeal:
		cfg.IdealShadow = true
	case CfgBounds1:
		cfg.Core.Bounds = core.BoundsFused
	case CfgBounds2:
		cfg.Core.Bounds = core.BoundsSeparate
	case CfgNoCopyElim:
		cfg.Core.PtrPolicy = core.PtrConservative
		cfg.Core.CopyElim = false
	case CfgMonolithic:
		cfg.Monolithic = true
	default:
		return sim.Config{}, fmt.Errorf("unknown config %q (known: %s)", name, strings.Join(ConfigNames(), ", "))
	}
	return cfg, err
}

// NeedsProfile reports whether an engine configuration identifies
// pointers with ISA assistance, which the profiling pass drives.
func NeedsProfile(cc core.Config) bool {
	return cc.Policy == core.PolicyWatchdog && cc.PtrPolicy == core.PtrISAAssisted
}

// Profile runs the profiling pass over prog, built under opts with its
// runtime ending at rtEnd, and returns the profile an engine for which
// NeedsProfile holds identifies pointers from.
func Profile(ctx context.Context, prog *asm.Program, opts rt.Options, rtEnd int) (*core.Profile, error) {
	base := core.DefaultConfig()
	if opts.Bounds {
		base.Bounds = core.BoundsFused
	}
	return sim.ProfileCtx(ctx, prog, base, rtEnd)
}

// ctx returns the runner's default context for the methods without
// a context argument.
func (r *Runner) ctx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// Run executes one workload under one configuration (cached; safe for
// concurrent use) and returns its Result. A runner with Remote set
// keeps no Results, so there Run returns an error naming the cell.
func (r *Runner) Run(w workload.Workload, name ConfigName) (*machine.Result, error) {
	return r.RunCtx(r.ctx(), w, name)
}

// RunCtx is Run under an explicit context. Cancellation is
// cooperative down to the machine's run loop, so it lands
// mid-simulation. Identical concurrent requests coalesce onto one
// computation, driven by the first requester's context; a waiter whose
// own context fires stops waiting without disturbing the computation,
// and a waiter whose context is still live when another requester's
// cancellation kills the computation starts it again. Failures are
// never kept, so a later request recomputes.
func (r *Runner) RunCtx(ctx context.Context, w workload.Workload, name ConfigName) (*machine.Result, error) {
	c, err := r.run(ctx, r.Fidelity, w, name)
	if err == nil && c.res == nil {
		err = fmt.Errorf("%s under %s: a remote cell has no local Result", w.Name, name)
	}
	return c.res, err
}

// run is the one cell path behind Run, RunCtx, CellCtx and every
// sweep: the cell at an explicit fidelity, so the fidelity-drift
// experiment can simulate the same cell at every fidelity within one
// runner (and one program/profile cache). A cell is flattened once,
// when its simulation completes, or kept as the worker sent it.
func (r *Runner) run(ctx context.Context, fid sim.Fidelity, w workload.Workload, name ConfigName) (cellResult, error) {
	return r.results.Do(ctx, cellKey(w.Name, name, fid), r.Timing.AddHit, func() (cellResult, error) {
		if r.Remote != nil {
			start := time.Now()
			cell, err := r.Remote.RemoteCell(ctx, w.Name, name, fid)
			r.Timing.AddSim(time.Since(start))
			if err != nil {
				return cellResult{}, fmt.Errorf("%s under %s (remote): %w", w.Name, name, err)
			}
			return cellResult{cell: cell}, nil
		}
		res, err := r.runUncached(ctx, fid, w, name, 0)
		if err != nil {
			return cellResult{}, err
		}
		return cellResult{cell: buildCell(w.Name, string(name), fid, res), res: res}, nil
	})
}

// runUncached is the uncached simulation of one cell: the named
// configuration at fidelity fid, with the lock location cache resized
// to lockSize bytes when lockSize is non-zero (LockSweep's cells).
func (r *Runner) runUncached(ctx context.Context, fid sim.Fidelity, w workload.Workload, name ConfigName, lockSize int) (*machine.Result, error) {
	cfg, err := SimConfig(name)
	if err != nil {
		return nil, err
	}
	what := string(name)
	if lockSize != 0 {
		cfg.Hier.Lock.SizeBytes = lockSize
		what = fmt.Sprintf("%s with a %d-byte lock location cache", name, lockSize)
	}
	opts := rt.For(cfg.Core)
	prog, rtEnd, err := workload.BuildProgram(w, opts, r.Scale)
	if err != nil {
		return nil, err
	}
	if NeedsProfile(cfg.Core) {
		if cfg.Core.Profile, err = r.profileFor(ctx, w, opts, prog, rtEnd); err != nil {
			return nil, err
		}
	}
	cfg.RuntimeEnd = rtEnd
	cfg.Fidelity = fid
	res, err := r.simulate(ctx, prog, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s under %s: %w", w.Name, what, err)
	}
	if res.MemErr != nil {
		return nil, fmt.Errorf("%s under %s: unexpected violation: %v", w.Name, what, res.MemErr)
	}
	if res.Aborted {
		return nil, fmt.Errorf("%s under %s: runtime abort %d", w.Name, what, res.AbortCode)
	}
	return res, nil
}

// simulate is sim.RunCtx billed to Timing as one simulation. Only the
// simulation itself is timed: a profiling pass the cell needed is
// billed by profileFor, so busy time counts each nanosecond once.
func (r *Runner) simulate(ctx context.Context, prog *asm.Program, cfg sim.Config) (*machine.Result, error) {
	start := time.Now()
	res, err := sim.RunCtx(ctx, prog, cfg)
	r.Timing.AddSim(time.Since(start))
	return res, err
}

// profileFor returns the ISA-assisted profile of w's program under
// opts, running the profiling pass once per (workload, policy, bounds)
// even when many configurations request it concurrently. Workload
// programs build deterministically, so whichever caller creates the
// pass profiles an identical program. The pass is functional and
// therefore fidelity-invariant, so the key omits the fidelity: every
// fidelity of a cell shares one profile.
func (r *Runner) profileFor(ctx context.Context, w workload.Workload, opts rt.Options, prog *asm.Program, rtEnd int) (*core.Profile, error) {
	key := fmt.Sprintf("%s/%s/%v", w.Name, opts.Policy, opts.Bounds)
	return r.profiles.Do(ctx, key, nil, func() (*core.Profile, error) {
		start := time.Now()
		p, err := Profile(ctx, prog, opts, rtEnd)
		r.Timing.AddProfile(time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("profiling %s: %w", key, err)
		}
		return p, nil
	})
}

// Overhead is the one derivation of a slowdown ratio: a run's cycles
// over baseCycles, those of the baseline run of its program at its
// fidelity (an extrapolated cycle count over an exact one would be a
// mixed-fidelity ratio). Both are whole-program estimates
// (machine.Result.EstimatedCycles, which is a wire cell's Cycles), so
// a sampled ratio compares extrapolations. It is 0 when baseCycles is
// not positive.
func Overhead(cycles, baseCycles int64) float64 {
	if baseCycles <= 0 {
		return 0
	}
	return float64(cycles) / float64(baseCycles)
}

// Sweep runs every workload under the configuration, returning the
// per-benchmark slowdown ratios in figure order plus the geometric
// mean overhead percentage. The cells execute in parallel over the
// runner's workers; the series is assembled serially in workload
// order afterwards, so the output is identical to a serial sweep.
func (r *Runner) Sweep(name ConfigName) (stats.Series, float64, error) {
	return r.sweep(r.ctx(), r.Fidelity, name)
}

// sweep is Sweep under an explicit context and fidelity; cancellation
// stops the fan-out without handing out new cells and lands
// mid-simulation in the cells already running.
func (r *Runner) sweep(ctx context.Context, fid sim.Fidelity, name ConfigName) (stats.Series, float64, error) {
	s := stats.Series{Name: string(name)}
	if err := r.runAll(ctx, fid, CfgBaseline, name); err != nil {
		return s, 0, err
	}
	var ratios []float64
	for _, w := range r.Workloads {
		base, err := r.run(ctx, fid, w, CfgBaseline)
		if err != nil {
			return s, 0, err
		}
		c, err := r.run(ctx, fid, w, name)
		if err != nil {
			return s, 0, err
		}
		ratio := Overhead(c.cell.Cycles, base.cell.Cycles)
		s.Add(w.Name, (ratio-1)*100)
		ratios = append(ratios, ratio)
	}
	// A non-positive ratio means a simulation produced a nonsensical
	// cycle count; fail loudly instead of rendering NaN cells.
	geo, err := stats.GeomeanOverheadErr(ratios)
	if err != nil {
		return s, 0, fmt.Errorf("%s sweep %s: %w", fid.OrExact(), name, err)
	}
	return s, geo, nil
}
