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
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"watchdog/internal/asm"
	"watchdog/internal/core"
	"watchdog/internal/isa"
	"watchdog/internal/machine"
	"watchdog/internal/mem"
	"watchdog/internal/report"
	"watchdog/internal/rt"
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

// IsConfig reports whether name is a predefined configuration.
func IsConfig(name string) bool {
	for _, c := range AllConfigs {
		if string(c) == name {
			return true
		}
	}
	return false
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

// Canceled reports whether err stems from context cancellation or an
// expired deadline — either the context's own sentinel or the
// machine-level wrap produced mid-simulation.
func Canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Runner executes (workload, configuration) pairs with caching of
// programs, profiles and results, so figures sharing runs (e.g. the
// baseline) pay for them once. All methods are safe for concurrent
// use: the caches give per-key once-semantics, so even when many
// goroutines request the same cell (or the same ISA-assisted profile)
// it is computed exactly once and everyone else blocks on that
// computation instead of repeating it.
type Runner struct {
	Scale     int
	Workloads []workload.Workload
	// Jobs is the worker count for the parallel execution paths
	// (RunAll, Sweep, the figure methods); <= 0 means GOMAXPROCS.
	Jobs int

	// Fidelity is the timing methodology for every cell this runner
	// simulates (empty = exact). It is a result-cache dimension: cells
	// of different fidelities never alias, so a runner used at several
	// fidelities (the fidelity-drift experiment) keeps them apart.
	Fidelity sim.Fidelity
	// Sampling overrides the sampled fidelity's default parameters
	// (nil = sim.DefaultSampling()). Ignored at other fidelities.
	Sampling *machine.Sampling

	// Timing counts executed simulations, profiling passes and cache
	// hits (observability for the parallel harness).
	Timing stats.Timing

	// Trace, when non-nil, attaches a fresh trace sink with this
	// configuration to every uncached simulation (reachable afterwards
	// via the cached Result.Trace). Sinks are strictly per-cell, so
	// traced sweeps stay race-free at any Jobs.
	Trace *trace.Config
	// Progress, when non-nil, receives cell-completion ticks from the
	// fan-out paths (RunAll and the Juliet suite). The counters are
	// atomic and ordering-free, so the deterministic merge of results
	// is unaffected.
	Progress *trace.Progress

	// Ctx, when non-nil, is the default context for the methods that
	// predate context threading (the figure methods, Sweep, Run). The
	// CLIs set it once to their signal context so a SIGINT cancels
	// whatever sweep is in flight; the serving layer ignores it and
	// passes a per-request context to the *Ctx variants instead.
	Ctx context.Context

	// Remote, when non-nil, replaces local simulation entirely: every
	// uncached cell is fetched through it (the distributed sweep
	// fabric) instead of being simulated in-process. The runner's
	// caches, fan-out and workload-order merge are unchanged, so a
	// remote sweep assembles figures through exactly the code path a
	// local one does — byte-identical output, because the workers run
	// the same deterministic simulations. Remote cells are kept
	// verbatim for Report (see resultFromCell for what the figure
	// assembly reads).
	Remote RemoteCellRunner

	mu       sync.Mutex
	profiles map[string]*profileEntry
	results  map[string]*resultEntry
}

// RemoteCellRunner fetches one simulated cell from somewhere other
// than the local simulator — the distributed sweep fabric, which
// shards cells across watchdog-serve workers. The returned cell is
// the /v1/sim wire record; overhead asks for the slowdown ratio over
// the workload's baseline (the runner requests it for every
// non-baseline cell so remote reports match local ones).
type RemoteCellRunner interface {
	RemoteCell(ctx context.Context, workload string, config ConfigName, fid sim.Fidelity, overhead bool) (report.Cell, error)
}

// resultEntry is one result-cache slot. The creator (the goroutine
// that inserted the entry) computes the cell and closes done; every
// other requester of the same key waits on done — or bails on its own
// context, leaving the computation running for the rest. This is what
// the serving layer's request coalescing rides on: N identical
// in-flight requests cost one simulation, and a coalesced waiter's
// deadline still fires on time.
type resultEntry struct {
	done chan struct{}
	res  *machine.Result
	// cell is the wire record a remote fetch produced (nil for local
	// simulations): Report emits it verbatim so a distributed report
	// is byte-identical to the local one, while res holds the
	// reconstruction the figure math reads.
	cell *report.Cell
	err  error
}

// profileEntry is one profiling-pass cache slot with the same
// creator-computes semantics.
type profileEntry struct {
	done chan struct{}
	prof *core.Profile
	err  error
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
			return nil, fmt.Errorf("unknown workloads: %s (known: %v)",
				strings.Join(unknown, ", "), workload.Names())
		}
	}
	return &Runner{
		Scale:     scale,
		Workloads: ws,
		profiles:  make(map[string]*profileEntry),
		results:   make(map[string]*resultEntry),
	}, nil
}

// rtOptions maps a configuration to its runtime variant.
func rtOptions(name ConfigName) rt.Options {
	switch name {
	case CfgBaseline:
		return rt.Options{Policy: core.PolicyBaseline}
	case CfgLocation:
		return rt.Options{Policy: core.PolicyLocation}
	case CfgSoftware:
		return rt.Options{Policy: core.PolicySoftware}
	case CfgXTag:
		return rt.Options{Policy: core.PolicyXTag}
	case CfgDangKiller:
		return rt.Options{Policy: core.PolicyDangKiller}
	case CfgBounds1, CfgBounds2:
		return rt.Options{Policy: core.PolicyWatchdog, Bounds: true}
	default:
		return rt.Options{Policy: core.PolicyWatchdog}
	}
}

// cellKey is the result-cache key of one (workload, configuration,
// fidelity) cell. Fidelity is part of the key so cells simulated at
// different fidelities coexist in one cache; report assembly parses
// the key back with splitCellKey.
func cellKey(wname string, name ConfigName, fid sim.Fidelity) string {
	return wname + "/" + string(name) + "@" + string(fid.OrExact())
}

// splitCellKey inverts cellKey. ok is false for malformed keys.
func splitCellKey(key string) (wname, cname string, fid sim.Fidelity, ok bool) {
	wname, rest, ok := strings.Cut(key, "/")
	if !ok {
		return "", "", "", false
	}
	cname, f, ok := strings.Cut(rest, "@")
	if !ok {
		return "", "", "", false
	}
	return wname, cname, sim.Fidelity(f), true
}

// simConfig maps a configuration name to the full simulation config.
// The profile argument is used by ISA-assisted configurations.
func simConfig(name ConfigName, prof *core.Profile) sim.Config {
	cfg := sim.Default()
	switch name {
	case CfgBaseline:
		cfg.Core = core.Config{Policy: core.PolicyBaseline}
	case CfgConservative:
		cfg.Core.PtrPolicy = core.PtrConservative
	case CfgISA:
		cfg.Core.Profile = prof
	case CfgISANoLock:
		cfg.Core.Profile = prof
		cfg.Core.LockCache = false
	case CfgISAIdeal:
		cfg.Core.Profile = prof
		cfg.IdealShadow = true
	case CfgBounds1:
		cfg.Core.Profile = prof
		cfg.Core.Bounds = core.BoundsFused
	case CfgBounds2:
		cfg.Core.Profile = prof
		cfg.Core.Bounds = core.BoundsSeparate
	case CfgLocation:
		cfg.Core = core.Config{Policy: core.PolicyLocation}
	case CfgSoftware:
		cfg.Core = core.Config{Policy: core.PolicySoftware, PtrPolicy: core.PtrConservative}
	case CfgXTag:
		cfg.Core = core.Config{Policy: core.PolicyXTag, PtrPolicy: core.PtrConservative,
			TagBits: core.DefaultTagBits}
	case CfgDangKiller:
		cfg.Core = core.Config{Policy: core.PolicyDangKiller, PtrPolicy: core.PtrConservative}
	case CfgNoCopyElim:
		cfg.Core.PtrPolicy = core.PtrConservative
		cfg.Core.CopyElim = false
	case CfgMonolithic:
		cfg.Core.Profile = prof
		cfg.Monolithic = true
	}
	return cfg
}

// needsProfile reports whether the configuration uses ISA-assisted
// identification driven by the profiling pass.
func needsProfile(name ConfigName) bool {
	switch name {
	case CfgISA, CfgISANoLock, CfgISAIdeal, CfgBounds1, CfgBounds2, CfgMonolithic:
		return true
	}
	return false
}

// ctx returns the runner's default context for the non-Ctx methods.
func (r *Runner) ctx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// Run executes one workload under one configuration (cached; safe for
// concurrent use).
func (r *Runner) Run(w workload.Workload, name ConfigName) (*machine.Result, error) {
	return r.RunCtx(r.ctx(), w, name)
}

// RunCtx is Run under an explicit context. Cancellation is
// cooperative down to the machine's run loop, so it lands
// mid-simulation. Identical concurrent requests coalesce onto one
// computation (driven by the first requester's context); a waiter
// whose own context fires stops waiting without disturbing the
// computation. A computation killed by its context is evicted from
// the cache, so a later request recomputes instead of being served
// the stale cancellation error.
func (r *Runner) RunCtx(ctx context.Context, w workload.Workload, name ConfigName) (*machine.Result, error) {
	return r.RunFidelityCtx(ctx, w, name, r.Fidelity)
}

// RunFidelityCtx is RunCtx at an explicit fidelity, overriding the
// runner's default. The fidelity-drift experiment uses it to simulate
// the same cell at every fidelity within one runner (and one program/
// profile cache).
func (r *Runner) RunFidelityCtx(ctx context.Context, w workload.Workload, name ConfigName, fid sim.Fidelity) (*machine.Result, error) {
	key := cellKey(w.Name, name, fid)
	return r.cachedResult(ctx, key, func() (*machine.Result, *report.Cell, error) {
		if r.Remote != nil {
			// Ask for the overhead ratio on every non-baseline cell so
			// the worker computes it against its own baseline — the
			// exact float64 division the local path would perform — and
			// the verbatim cell matches a local report bit-for-bit.
			start := time.Now()
			cell, err := r.Remote.RemoteCell(ctx, w.Name, name, fid, name != CfgBaseline)
			r.Timing.AddSim(time.Since(start))
			if err != nil {
				return nil, nil, fmt.Errorf("%s under %s (remote): %w", w.Name, name, err)
			}
			// A remote fetch still counts as a Sim; the extra counter
			// attributes it to the fabric for -stats and the metrics
			// exporters.
			r.Timing.AddRemoteCell()
			return resultFromCell(&cell), &cell, nil
		}
		res, err := r.runUncached(ctx, w, name, fid)
		return res, nil, err
	})
}

// cachedResult serves key from the result cache, computing it exactly
// once under concurrent requests (per-key coalescing). compute returns
// the result plus, for remote fetches, the verbatim wire cell (nil for
// local simulations).
func (r *Runner) cachedResult(ctx context.Context, key string, compute func() (*machine.Result, *report.Cell, error)) (*machine.Result, error) {
	r.mu.Lock()
	if r.results == nil {
		r.results = make(map[string]*resultEntry)
	}
	e, ok := r.results[key]
	if !ok {
		e = &resultEntry{done: make(chan struct{})}
		r.results[key] = e
		r.mu.Unlock()
		e.res, e.cell, e.err = compute()
		if e.err != nil && Canceled(e.err) {
			// Don't let a canceled computation poison the cache: the
			// next request for this key starts fresh.
			r.mu.Lock()
			if r.results[key] == e {
				delete(r.results, key)
			}
			r.mu.Unlock()
		}
		close(e.done)
		return e.res, e.err
	}
	r.mu.Unlock()
	r.Timing.AddHit()
	// Completed entries are served even under a canceled context (the
	// non-blocking poll below), so report assembly after an interrupt
	// still reads everything that finished.
	select {
	case <-e.done:
		return e.res, e.err
	default:
	}
	select {
	case <-e.done:
		return e.res, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// resultFromCell inverts buildCell far enough for the figure assembly:
// the reconstructed Result reproduces every number the figures and
// sweeps read (EstimatedCycles, the CPI-stack buckets, µop breakdowns,
// engine counters, cache counters, the Figure 10 footprint split). The
// Sampled* counters stay zero on purpose — the wire Cycles value is
// already the extrapolation at any fidelity, so EstimatedCycles must
// return it unscaled. Report never re-flattens a reconstruction: the
// verbatim wire cell is emitted instead (resultEntry.cell), so
// lossiness here (e.g. the exact per-region footprint spread) cannot
// leak into a document.
func resultFromCell(c *report.Cell) *machine.Result {
	res := &machine.Result{
		Partial: c.Partial,
		Insts:   c.Insts,
		Uops:    c.Uops,
	}
	t := &res.Timing
	t.Cycles = c.Cycles
	t.BaseCycles = c.BaseCycles
	t.CheckCycles = c.CheckCycles
	t.LockMissCycles = c.LockMissCycles
	t.MetaCycles = c.MetaCycles
	t.Uops = c.Uops
	for m := isa.MetaClass(0); m < isa.NumMetaClasses; m++ {
		t.UopsByMeta[m] = c.UopsByMeta[m.String()]
	}
	for op := isa.UopOp(0); op < isa.NumUopOps; op++ {
		t.UopsByOp[op] = c.UopsByOp[op.String()]
	}
	t.Cache.Lock.Accesses = c.LockCacheAccesses
	t.Cache.Lock.Misses = c.LockCacheMisses
	t.Cache.L1D.Accesses = c.L1DAccesses
	t.Cache.L1D.Misses = c.L1DMisses
	t.Cache.L2.Misses = c.L2Misses
	t.Cache.L3.Misses = c.L3Misses
	res.Engine = core.Stats{
		MemAccesses: c.MemAccesses,
		PtrOps:      c.PtrLoads + c.PtrStores,
		PtrLoads:    c.PtrLoads,
		PtrStores:   c.PtrStores,
		Checks:      c.Checks,
	}
	// The wire carries the footprint pre-split into app/meta totals.
	// Park them in one representative region per side so splitFootprint
	// recovers the same four numbers.
	if c.AppWords|c.AppPages|c.MetaWords|c.MetaPages != 0 {
		res.Footprint = map[mem.Region]mem.Footprint{
			mem.RegionHeap:   {Words: c.AppWords, Pages: c.AppPages},
			mem.RegionShadow: {Words: c.MetaWords, Pages: c.MetaPages},
		}
	}
	return res
}

// runUncached is the uncached simulation of one cell. The profiling
// pass is functional and therefore fidelity-invariant, so its cache
// key deliberately omits the fidelity — every fidelity of a cell
// shares one profile.
func (r *Runner) runUncached(ctx context.Context, w workload.Workload, name ConfigName, fid sim.Fidelity) (*machine.Result, error) {
	opts := rtOptions(name)
	prog, rtEnd, err := workload.BuildProgram(w, opts, r.Scale)
	if err != nil {
		return nil, err
	}
	var prof *core.Profile
	if needsProfile(name) {
		pkey := fmt.Sprintf("%s/%s/%v", w.Name, opts.Policy, opts.Bounds)
		prof, err = r.profileFor(ctx, pkey, prog, rtEnd, opts)
		if err != nil {
			return nil, err
		}
	}
	cfg := simConfig(name, prof)
	cfg.RuntimeEnd = rtEnd
	cfg.Fidelity = fid
	if fid.OrExact() == sim.FidelitySampled {
		cfg.Sampling = r.Sampling
	}
	if r.Trace != nil {
		cfg.Sink = trace.New(*r.Trace)
	}
	res, err := r.simulate(ctx, prog, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s under %s: %w", w.Name, name, err)
	}
	if res.MemErr != nil {
		return nil, fmt.Errorf("%s under %s: unexpected violation: %v", w.Name, name, res.MemErr)
	}
	if res.Aborted {
		return nil, fmt.Errorf("%s under %s: runtime abort %d", w.Name, name, res.AbortCode)
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

// profileFor returns the ISA-assisted profile for key, running the
// profiling pass exactly once even when many configurations request
// the same workload's profile concurrently. Workload programs build
// deterministically, so whichever caller wins the race profiles an
// identical program. Like the result cache, a canceled profiling pass
// is evicted rather than cached.
func (r *Runner) profileFor(ctx context.Context, key string, prog *asm.Program, rtEnd int, opts rt.Options) (*core.Profile, error) {
	r.mu.Lock()
	if r.profiles == nil {
		r.profiles = make(map[string]*profileEntry)
	}
	e, ok := r.profiles[key]
	if !ok {
		e = &profileEntry{done: make(chan struct{})}
		r.profiles[key] = e
		r.mu.Unlock()
		start := time.Now()
		base := core.DefaultConfig()
		if opts.Bounds {
			base.Bounds = core.BoundsFused
		}
		p, err := sim.ProfileCtx(ctx, prog, base, rtEnd)
		if err != nil {
			err = fmt.Errorf("profiling %s: %w", key, err)
		}
		e.prof, e.err = p, err
		r.Timing.AddProfile(time.Since(start))
		if e.err != nil && Canceled(e.err) {
			r.mu.Lock()
			if r.profiles[key] == e {
				delete(r.profiles, key)
			}
			r.mu.Unlock()
		}
		close(e.done)
		return e.prof, e.err
	}
	r.mu.Unlock()
	select {
	case <-e.done:
		return e.prof, e.err
	default:
	}
	select {
	case <-e.done:
		return e.prof, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Overhead computes the slowdown ratio of cfg over the baseline for
// one workload.
func (r *Runner) Overhead(w workload.Workload, name ConfigName) (float64, error) {
	return r.OverheadCtx(r.ctx(), w, name)
}

// OverheadCtx is Overhead under an explicit context. Cycle counts go
// through Result.EstimatedCycles, so at the sampled fidelity the ratio
// compares whole-program extrapolations (for exact runs EstimatedCycles
// is the measured count and nothing changes).
func (r *Runner) OverheadCtx(ctx context.Context, w workload.Workload, name ConfigName) (float64, error) {
	return r.overheadFidelity(ctx, w, name, r.Fidelity)
}

func (r *Runner) overheadFidelity(ctx context.Context, w workload.Workload, name ConfigName, fid sim.Fidelity) (float64, error) {
	base, err := r.RunFidelityCtx(ctx, w, CfgBaseline, fid)
	if err != nil {
		return 0, err
	}
	res, err := r.RunFidelityCtx(ctx, w, name, fid)
	if err != nil {
		return 0, err
	}
	return float64(res.EstimatedCycles()) / float64(base.EstimatedCycles()), nil
}

// Sweep runs every workload under the configuration, returning the
// per-benchmark slowdown ratios in figure order plus the geometric
// mean overhead percentage. The cells execute in parallel over the
// runner's workers; the series is assembled serially in workload
// order afterwards, so the output is identical to a serial sweep.
func (r *Runner) Sweep(name ConfigName) (stats.Series, float64, error) {
	return r.SweepCtx(r.ctx(), name)
}

// SweepCtx is Sweep under an explicit context; cancellation stops the
// fan-out without handing out new cells and lands mid-simulation in
// the cells already running.
func (r *Runner) SweepCtx(ctx context.Context, name ConfigName) (stats.Series, float64, error) {
	s := stats.Series{Name: string(name)}
	if err := r.RunAllCtx(ctx, CfgBaseline, name); err != nil {
		return s, 0, err
	}
	var ratios []float64
	for _, w := range r.Workloads {
		ratio, err := r.OverheadCtx(ctx, w, name)
		if err != nil {
			return s, 0, err
		}
		s.Add(w.Name, (ratio-1)*100)
		ratios = append(ratios, ratio)
	}
	// A non-positive ratio means a simulation produced a nonsensical
	// cycle count; fail loudly instead of rendering NaN cells.
	geo, err := stats.GeomeanOverheadErr(ratios)
	if err != nil {
		return s, 0, fmt.Errorf("sweep %s: %w", name, err)
	}
	return s, geo, nil
}
