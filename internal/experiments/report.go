package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"watchdog/internal/core"
	"watchdog/internal/isa"
	"watchdog/internal/machine"
	"watchdog/internal/report"
	"watchdog/internal/rt"
	"watchdog/internal/security"
	"watchdog/internal/sim"
	"watchdog/internal/workload"
)

// overheadFigures maps the overhead-figure experiments to the
// configurations they sweep — the geomean summaries of the report and
// the per-figure series of the baseline comparison.
var overheadFigures = []struct {
	name string
	cfgs []ConfigName
}{
	{"fig7", []ConfigName{CfgConservative, CfgISA, CfgXTag, CfgDangKiller}},
	{"fig9", []ConfigName{CfgISA, CfgISANoLock}},
	{"fig11", []ConfigName{CfgISA, CfgBounds1, CfgBounds2}},
	{"ideal", []ConfigName{CfgISA, CfgISAIdeal}},
	{"ablations", []ConfigName{CfgConservative, CfgNoCopyElim, CfgISA, CfgMonolithic}},
}

// IsOverheadFigure reports whether the experiment name has a geomean
// summary in the report.
func IsOverheadFigure(name string) bool {
	for _, f := range overheadFigures {
		if f.name == name {
			return true
		}
	}
	return false
}

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
	outs, err := security.RunCasesCtx(r.ctx(), cases, cfg.Core, rt.For(cfg.Core), r.jobs(), &r.Timing, onDone)
	return security.SummarizeRan(cases, outs), err
}

// Report assembles the machine-readable metrics report: one Cell per
// (workload, configuration) pair simulated so far, the geomean
// summaries for the named overhead figures, and the security summary
// when one is supplied. Figure names must come from the overhead set
// (fig7, fig9, fig11, ideal, ablations); their sweeps read the warmed
// result cache, so calling Report after the figures ran adds no
// simulations.
func (r *Runner) Report(figures []string, juliet *security.Summary) (*report.Report, error) {
	rep := &report.Report{Scale: r.Scale, Fidelity: string(r.Fidelity.OrExact())}
	for _, w := range r.Workloads {
		rep.Workloads = append(rep.Workloads, w.Name)
	}

	// Geomean summaries, in the fixed figure order (input order and
	// duplicates do not affect the document).
	want := make(map[string]bool, len(figures))
	for _, name := range figures {
		if !IsOverheadFigure(name) {
			return nil, fmt.Errorf("report: %q is not an overhead figure", name)
		}
		want[name] = true
	}
	// The sweeps below re-run under a background context on purpose:
	// callers only name figures that completed, so these are pure
	// cache reads — and after an interrupt the report must still
	// assemble everything that finished, not fail on the dead signal
	// context.
	for _, f := range overheadFigures {
		if !want[f.name] {
			continue
		}
		fig := report.Figure{Name: f.name}
		for _, cfg := range f.cfgs {
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
	// failed) never reach the report.
	cells := r.results.Kept()

	keys := make([]string, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		wname, cname, fid, ok := splitCellKey(key)
		if !ok {
			continue
		}
		// A remote fetch stored the worker's wire cell: emit it
		// verbatim, so a distributed report is byte-identical to the
		// local one (the reconstruction is for figure math only).
		if c := cells[key]; c.wire != nil {
			rep.Cells = append(rep.Cells, *c.wire)
			continue
		}
		// The baseline for the overhead ratio is the same workload's
		// baseline cell at the same fidelity: an extrapolated cycle
		// count divided by an exact one would be a mixed-fidelity ratio.
		var base *machine.Result
		if b, ok := cells[cellKey(wname, CfgBaseline, fid)]; ok && cname != string(CfgBaseline) {
			base = b.res
		}
		rep.Cells = append(rep.Cells, buildCell(wname, cname, fid, cells[key].res, base))
	}
	annotateDrift(rep.Cells)

	if juliet != nil {
		j := juliet.ReportRecord(core.PolicyWatchdog.String())
		rep.Juliet = &j
	}
	return rep, nil
}

// CellCtx simulates one (workload, configuration) cell under ctx and
// returns it flattened into the report schema — the wire format of
// the serving layer. With overhead set (and a non-baseline config)
// the workload's baseline cell is also run so the response carries
// the slowdown ratio. Both runs coalesce onto the runner's caches.
func (r *Runner) CellCtx(ctx context.Context, w workload.Workload, name ConfigName, overhead bool) (report.Cell, error) {
	res, err := r.RunCtx(ctx, w, name)
	if err != nil {
		return report.Cell{}, err
	}
	var base *machine.Result
	if overhead && name != CfgBaseline {
		if base, err = r.RunCtx(ctx, w, CfgBaseline); err != nil {
			return report.Cell{}, err
		}
	}
	return buildCell(w.Name, string(name), r.Fidelity, res, base), nil
}

// buildCell flattens one simulation result into the report schema.
// For a sampled result the cycle counts are the whole-program
// extrapolation: the measured CPI-stack buckets scale by the same
// factor and the base bucket absorbs the rounding remainder, so the
// schema's bucket-sum invariant (the four buckets sum to Cycles)
// holds at every fidelity.
func buildCell(wname, cname string, fid sim.Fidelity, res, base *machine.Result) report.Cell {
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
	if base != nil && base.EstimatedCycles() > 0 {
		c.Overhead = float64(cycles) / float64(base.EstimatedCycles())
	}
	return c
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
