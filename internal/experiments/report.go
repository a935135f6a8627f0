package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"watchdog/internal/core"
	"watchdog/internal/isa"
	"watchdog/internal/machine"
	"watchdog/internal/mem"
	"watchdog/internal/report"
	"watchdog/internal/rt"
	"watchdog/internal/security"
	"watchdog/internal/sim"
	"watchdog/internal/workload"
)

// Juliet runs the Section 9.2 security suite under ISA-assisted
// Watchdog over the runner's worker pool, recording every case into
// r.Timing (so -stats reports real sim counts for the Juliet path, not
// "0 sims"). On cancellation the summary covers the cases that
// completed and the context error is returned alongside it.
func (r *Runner) Juliet() (security.Summary, error) {
	return r.juliet(CfgISA)
}

// juliet runs the security suite under the named configuration's
// engine and runtime, on the runner's context and workers, billing
// r.Timing and ticking r.Progress per case. The runs are functional,
// so ISA-assisted configurations identify pointers from annotations
// alone, with no profiling pass.
func (r *Runner) juliet(name ConfigName) (security.Summary, error) {
	cfg, err := SimConfig(name)
	if err != nil {
		return security.Summary{}, err
	}
	cases := security.Suite()
	var onDone func()
	if r.Progress != nil {
		r.Progress.AddTotal(len(cases))
		onDone = r.Progress.CellDone
	}
	outs, err := security.RunCasesCtx(r.ctx(), cases, cfg.Core, rt.For(cfg.Core), r.Jobs, &r.Timing, onDone)
	return security.SummarizeRan(cases, outs), err
}

// Report assembles the machine-readable metrics report: one Cell per
// (workload, configuration) pair simulated so far, the geomean
// summaries for the named overhead figures, and the security summary
// when one is supplied. Figure names must be OverheadFigures names;
// their sweeps read the warmed result cache, so calling Report after
// the figures ran adds no simulations.
func (r *Runner) Report(figures []string, juliet *security.Summary) (*report.Report, error) {
	rep := &report.Report{Scale: r.Scale, Fidelity: string(r.Fidelity.OrExact())}
	for _, w := range r.Workloads {
		rep.Workloads = append(rep.Workloads, w.Name)
	}

	// Geomean summaries, in the fixed figure order (input order and
	// duplicates do not affect the document).
	for _, name := range figures {
		if !slices.ContainsFunc(OverheadFigures, func(f OverheadFigure) bool { return f.Name == name }) {
			return nil, fmt.Errorf("report: %q is not an overhead figure", name)
		}
	}
	// The sweeps below re-run under a background context on purpose:
	// callers only name figures that completed, so these are pure
	// cache reads — and after an interrupt the report must still
	// assemble everything that finished, not fail on the dead signal
	// context.
	for _, f := range OverheadFigures {
		if !slices.Contains(figures, f.Name) {
			continue
		}
		fig := report.Figure{Name: f.Name}
		for _, cfg := range f.Cfgs {
			_, geo, err := r.sweep(context.Background(), r.Fidelity, cfg)
			if err != nil {
				return nil, err
			}
			fig.Geomeans = append(fig.Geomeans, report.Geomean{
				Config: string(cfg), OverheadPct: geo,
			})
		}
		rep.Figures = append(rep.Figures, fig)
	}

	// Only completed successes are kept, so cells still computing (or
	// failed) never reach the report. Each non-baseline cell gets its
	// overhead over the baseline cell the run holds at its fidelity,
	// whether either was simulated here or fetched from a worker.
	cells := r.results.Kept()
	keys := make([]string, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		c := cells[key].cell
		if c.Config != string(CfgBaseline) {
			if b, ok := cells[cellKey(c.Workload, CfgBaseline, sim.Fidelity(c.Fidelity))]; ok {
				c.Overhead = overhead(c, b.cell)
			}
		}
		rep.Cells = append(rep.Cells, c)
	}
	annotateDrift(rep.Cells)

	if juliet != nil {
		j := juliet.ReportRecord(core.PolicyWatchdog.String())
		rep.Juliet = &j
	}
	return rep, nil
}

// CellCtx returns one (workload, configuration) cell at fidelity fid,
// simulated under ctx: the record the figures and Report read, which
// is the wire format of the serving layer. With withOverhead set (and
// a non-baseline config) the workload's baseline cell is also run so
// the cell carries the slowdown ratio. Both runs coalesce onto the
// runner's caches.
func (r *Runner) CellCtx(ctx context.Context, fid sim.Fidelity, w workload.Workload, name ConfigName, withOverhead bool) (report.Cell, error) {
	c, err := r.run(ctx, fid, w, name)
	if err != nil || !withOverhead || name == CfgBaseline {
		return c.cell, err
	}
	base, err := r.run(ctx, fid, w, CfgBaseline)
	if err != nil {
		return report.Cell{}, err
	}
	c.cell.Overhead = overhead(c.cell, base.cell)
	return c.cell, nil
}

// buildCell flattens one simulation result into the report schema.
// For a sampled result the cycle counts are the whole-program
// extrapolation: the measured CPI-stack buckets scale by the same
// factor and the base bucket absorbs the rounding remainder, so the
// schema's bucket-sum invariant (the four buckets sum to Cycles)
// holds at every fidelity.
func buildCell(wname, cname string, fid sim.Fidelity, res *machine.Result) report.Cell {
	t := &res.Timing
	cycles := res.EstimatedCycles()
	check, lockMiss, meta := t.CheckCycles, t.LockMissCycles, t.MetaCycles
	if cycles != t.Cycles && t.Cycles > 0 {
		f := float64(cycles) / float64(t.Cycles)
		check = int64(math.Round(float64(check) * f))
		lockMiss = int64(math.Round(float64(lockMiss) * f))
		meta = int64(math.Round(float64(meta) * f))
	}
	c := report.Cell{
		Workload: wname,
		Config:   cname,
		Fidelity: string(fid.OrExact()),
		Partial:  res.Partial,

		Cycles:         cycles,
		BaseCycles:     cycles - check - lockMiss - meta,
		CheckCycles:    check,
		LockMissCycles: lockMiss,
		MetaCycles:     meta,

		SampledInsts: res.SampledInsts,

		Insts:        res.Insts,
		Uops:         t.Uops,
		InjectedUops: t.InjectedUops(),
		IPC:          t.IPC(),

		MemAccesses: res.Engine.MemAccesses,
		PtrLoads:    res.Engine.PtrLoads,
		PtrStores:   res.Engine.PtrStores,
		Checks:      res.Engine.Checks,

		LockCacheAccesses: t.Cache.Lock.Accesses,
		LockCacheMisses:   t.Cache.Lock.Misses,
		L1DAccesses:       t.Cache.L1D.Accesses,
		L1DMisses:         t.Cache.L1D.Misses,
		L2Misses:          t.Cache.L2.Misses,
		L3Misses:          t.Cache.L3.Misses,
	}
	c.AppWords, c.AppPages, c.MetaWords, c.MetaPages = splitFootprint(res.Footprint)
	for m := isa.MetaClass(0); m < isa.NumMetaClasses; m++ {
		if n := t.UopsByMeta[m]; n > 0 {
			if c.UopsByMeta == nil {
				c.UopsByMeta = make(map[string]uint64)
			}
			c.UopsByMeta[m.String()] = n
		}
	}
	for op := isa.UopOp(0); op < isa.NumUopOps; op++ {
		if n := t.UopsByOp[op]; n > 0 {
			if c.UopsByOp == nil {
				c.UopsByOp = make(map[string]uint64)
			}
			c.UopsByOp[op.String()] = n
		}
	}
	return c
}

// splitFootprint divides the touch accounting into application memory
// (globals, heap, stack) and metadata memory (shadow space, lock
// locations, lock-location stack).
func splitFootprint(fp map[mem.Region]mem.Footprint) (appW, appP, metaW, metaP uint64) {
	for region, f := range fp {
		switch region {
		case mem.RegionGlobal, mem.RegionHeap, mem.RegionStack:
			appW += f.Words
			appP += f.Pages
		case mem.RegionShadow, mem.RegionLock, mem.RegionStackLock:
			metaW += f.Words
			metaP += f.Pages
		}
	}
	return
}

// annotateDrift fills Cell.DriftVsExactPct on every non-exact cell
// whose exact counterpart (same workload and configuration) is present
// in the document: the signed percentage by which the approximate
// cycle count strays from the exact one. Cells without an exact
// counterpart stay unannotated (zero).
func annotateDrift(cells []report.Cell) {
	exact := make(map[[2]string]int64)
	for _, c := range cells {
		if sim.Fidelity(c.Fidelity).OrExact() == sim.FidelityExact {
			exact[[2]string{c.Workload, c.Config}] = c.Cycles
		}
	}
	for i := range cells {
		c := &cells[i]
		if sim.Fidelity(c.Fidelity).OrExact() == sim.FidelityExact {
			continue
		}
		if e, ok := exact[[2]string{c.Workload, c.Config}]; ok && e > 0 {
			c.DriftVsExactPct = 100 * float64(c.Cycles-e) / float64(e)
		}
	}
}
