package experiments

import (
	"fmt"
	"strings"

	"watchdog/internal/cache"
	"watchdog/internal/isa"
	"watchdog/internal/pipeline"
	"watchdog/internal/security"
	"watchdog/internal/stats"
)

// OverheadFigure is one of the Section 9 overhead figures: the -exp
// name that selects it, the title of its table, and the configurations
// whose slowdown over the baseline it tabulates, one column each.
type OverheadFigure struct {
	Name  string
	Title string
	Cfgs  []ConfigName
}

// The overhead figures, each declared once: the figure methods render
// their entry, Report summarizes it, FidelityDrift sweeps Figure 7's,
// and watchdog-bench -bars draws it.
var (
	OverheadFig7 = OverheadFigure{"fig7",
		"Figure 7: runtime overhead of use-after-free checking (% slowdown)",
		[]ConfigName{CfgConservative, CfgISA, CfgXTag, CfgDangKiller}}
	OverheadFig9 = OverheadFigure{"fig9",
		"Figure 9: effect of the lock location cache (% slowdown)",
		[]ConfigName{CfgISA, CfgISANoLock}}
	OverheadFig11 = OverheadFigure{"fig11",
		"Figure 11: integrating bounds checking (% slowdown)",
		[]ConfigName{CfgISA, CfgBounds1, CfgBounds2}}
	OverheadIdeal = OverheadFigure{"ideal",
		"Section 9.3: idealized shadow-space accesses (% slowdown)",
		[]ConfigName{CfgISA, CfgISAIdeal}}
	OverheadAblations = OverheadFigure{"ablations",
		"Ablations: copy elimination (vs conservative) and monolithic metadata (vs isa)",
		[]ConfigName{CfgConservative, CfgNoCopyElim, CfgISA, CfgMonolithic}}
)

// OverheadFigures lists the overhead figures in report order.
var OverheadFigures = []OverheadFigure{OverheadFig7, OverheadFig9, OverheadFig11, OverheadIdeal, OverheadAblations}

// Fig5 reproduces Figure 5: the percentage of memory accesses
// classified as pointer loads/stores under conservative vs
// ISA-assisted identification, per benchmark and on average.
func (r *Runner) Fig5() (*stats.Table, error) {
	if err := r.RunAll(CfgConservative, CfgISA); err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 5: % of memory accesses carrying pointer metadata",
		"bench", "conservative", "isa-assisted")
	ctx, fid := r.ctx(), r.Fidelity
	var cons, ia []float64
	for _, w := range r.Workloads {
		cr, err := r.run(ctx, fid, w, CfgConservative)
		if err != nil {
			return nil, err
		}
		ir, err := r.run(ctx, fid, w, CfgISA)
		if err != nil {
			return nil, err
		}
		cf := frac(cr.cell.PtrLoads+cr.cell.PtrStores, cr.cell.MemAccesses)
		af := frac(ir.cell.PtrLoads+ir.cell.PtrStores, ir.cell.MemAccesses)
		cons = append(cons, cf)
		ia = append(ia, af)
		t.Row(w.Name, stats.Pct(cf), stats.Pct(af))
	}
	t.Row("avg", stats.Pct(stats.Mean(cons)), stats.Pct(stats.Mean(ia)))
	return t, nil
}

// Fig7 reproduces Figure 7: runtime overhead with conservative vs
// ISA-assisted pointer identification (paper: 25% and 15% geomean),
// extended with the pointer-tagging and implicit-identifier
// comparators (additive columns; the paper's two stay as-is).
func (r *Runner) Fig7() (*stats.Table, error) { return r.OverheadTable(OverheadFig7) }

// Fig8 reproduces Figure 8: µop overhead breakdown under ISA-assisted
// identification (paper: 44% total on average; checks dominate).
func (r *Runner) Fig8() (*stats.Table, error) {
	if err := r.RunAll(CfgBaseline, CfgISA); err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 8: µop overhead breakdown, ISA-assisted (% extra µops over baseline)",
		"bench", "checks", "ptr-loads", "ptr-stores", "other", "total")
	ctx, fid := r.ctx(), r.Fidelity
	var chk, pl, ps, ot, tot []float64
	for _, w := range r.Workloads {
		base, err := r.run(ctx, fid, w, CfgBaseline)
		if err != nil {
			return nil, err
		}
		res, err := r.run(ctx, fid, w, CfgISA)
		if err != nil {
			return nil, err
		}
		bu := float64(base.cell.Uops)
		meta := res.cell.UopsByMeta
		c := float64(meta[isa.MetaCheck.String()]) / bu * 100
		l := float64(meta[isa.MetaPtrLoad.String()]) / bu * 100
		s := float64(meta[isa.MetaPtrStore.String()]) / bu * 100
		o := float64(meta[isa.MetaOther.String()]) / bu * 100
		chk, pl, ps, ot = append(chk, c), append(pl, l), append(ps, s), append(ot, o)
		tot = append(tot, c+l+s+o)
		t.Row(w.Name, c, l, s, o, c+l+s+o)
	}
	t.Row("avg", stats.Mean(chk), stats.Mean(pl), stats.Mean(ps), stats.Mean(ot), stats.Mean(tot))
	return t, nil
}

// Fig9 reproduces Figure 9: overhead with and without the dedicated
// lock location cache (paper: 15% -> 24% without it).
func (r *Runner) Fig9() (*stats.Table, error) { return r.OverheadTable(OverheadFig9) }

// Fig10 reproduces Figure 10: memory overhead measured in words
// touched and in 4 KB pages touched (paper: 32% and 56% average).
// The unadorned "words"/"pages" columns are the paper's ISA-assisted
// numbers; the suffixed columns measure the comparators' metadata
// footprints (xtag: one tag byte per heap word plus the lock arena;
// dangkiller: lock arena only, no shadow space).
func (r *Runner) Fig10() (*stats.Table, error) {
	cfgs := []ConfigName{CfgISA, CfgXTag, CfgDangKiller}
	if err := r.RunAll(cfgs...); err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 10: memory overhead of the metadata spaces",
		"bench", "words", "pages", "xtag-words", "xtag-pages",
		"dangkiller-words", "dangkiller-pages")
	ctx, fid := r.ctx(), r.Fidelity
	sums := make([][]float64, 2*len(cfgs))
	for _, w := range r.Workloads {
		cells := []any{w.Name}
		for i, cfg := range cfgs {
			res, err := r.run(ctx, fid, w, cfg)
			if err != nil {
				return nil, err
			}
			wo := frac(res.cell.MetaWords, res.cell.AppWords)
			po := frac(res.cell.MetaPages, res.cell.AppPages)
			sums[2*i] = append(sums[2*i], wo)
			sums[2*i+1] = append(sums[2*i+1], po)
			cells = append(cells, stats.Pct(wo), stats.Pct(po))
		}
		t.Row(cells...)
	}
	avg := []any{"avg"}
	for _, s := range sums {
		avg = append(avg, stats.Pct(stats.Mean(s)))
	}
	t.Row(avg...)
	return t, nil
}

// Fig11 reproduces Figure 11: full memory safety — Watchdog alone vs
// bounds checking fused into the check µop vs a separate bounds µop
// (paper: 15% / 18% / 24% geomean).
func (r *Runner) Fig11() (*stats.Table, error) { return r.OverheadTable(OverheadFig11) }

// Ideal reproduces the Section 9.3 cache-pressure isolation study:
// idealized shadow accesses (paper: overhead drops 15% -> 11%).
func (r *Runner) Ideal() (*stats.Table, error) { return r.OverheadTable(OverheadIdeal) }

// Ablations reports the design-choice studies DESIGN.md calls out:
// rename copy elimination and decoupled vs monolithic register
// metadata.
func (r *Runner) Ablations() (*stats.Table, error) { return r.OverheadTable(OverheadAblations) }

// Table1 reproduces Table 1: the comparison of checking schemes, with
// the qualitative columns from the paper, the overhead measured on
// this substrate, and — going beyond the paper's table — the measured
// detection rate on the full Section 9.2 security suite.
func (r *Runner) Table1() (*stats.Table, error) {
	t := stats.NewTable("Table 1: comparison of checking approaches",
		"approach", "class", "metadata", "casts-safe", "comprehensive", "overhead", "juliet")
	rows := []struct {
		name  string
		cfg   ConfigName
		class string
		meta  string
		casts string
		compr string
	}{
		{"location (MemTracker-like)", CfgLocation, "location", "disjoint", "Y",
			"N — misses reallocated UAF"},
		{"xTag (pointer tagging)", CfgXTag, "tag", "in-pointer", "Y",
			"N — tag aliasing, heap only"},
		{"software id-based (CETS-like)", CfgSoftware, "identifier", "disjoint", "Y", "Y"},
		{"DangKiller (implicit id)", CfgDangKiller, "identifier", "implicit", "Y", "Y"},
		{"Watchdog (this work)", CfgConservative, "identifier", "disjoint", "Y", "Y"},
		{"Watchdog + ISA assist", CfgISA, "identifier", "disjoint", "Y", "Y"},
	}
	if err := r.RunAll(CfgBaseline, CfgLocation, CfgXTag, CfgSoftware,
		CfgDangKiller, CfgConservative, CfgISA); err != nil {
		return nil, err
	}
	for _, row := range rows {
		_, ov, err := r.Sweep(row.cfg)
		if err != nil {
			return nil, err
		}
		sum, err := r.juliet(row.cfg)
		if err != nil {
			return nil, err
		}
		t.Row(row.name, row.class, row.meta, row.casts, row.compr,
			fmt.Sprintf("%.2fx", 1+ov/100),
			fmt.Sprintf("%d/%d", sum.BadDetected, sum.BadTotal))
	}
	return t, nil
}

// table2 declares Table 2 once: each parameter of the simulated
// processor with its value.
func table2() [][2]string {
	p := pipeline.DefaultConfig()
	h := cache.DefaultHierConfig()
	return [][2]string{
		{"Clock", fmt.Sprintf("%.1f GHz", p.ClockGHz)},
		{"Fetch", fmt.Sprintf("%d macro-insts/cycle, %d-cycle front end", p.FetchWidthMacro, p.FrontEndDepth)},
		{"Bpred", "3-table PPM (256x2, 128x4, 128x4), 8-bit tags, 2-bit ctrs"},
		{"Rename/Dispatch", fmt.Sprintf("%d µops/cycle", p.DispatchWidth)},
		{"Window", fmt.Sprintf("%d-entry ROB, %d-entry IQ, %d-wide issue", p.ROBSize, p.IQSize, p.IssueWidth)},
		{"LQ/SQ", fmt.Sprintf("%d / %d entries", p.LQSize, p.SQSize)},
		{"Int FUs", fmt.Sprintf("%d ALU, %d branch, %d load ports, %d store port, %d mul/div",
			p.IntALUs, p.BranchUnits, p.LoadPorts, p.StorePorts, p.MulDivs)},
		{"FP FUs", fmt.Sprintf("%d ALU, %d mul, %d div", p.FPAlus, p.FPMuls, p.FPDivs)},
		{"L1 I$", fmt.Sprintf("%d KB %d-way, %d cycles", h.L1I.SizeBytes>>10, h.L1I.Ways, h.L1I.Latency)},
		{"L1 D$", fmt.Sprintf("%d KB %d-way, %d cycles", h.L1D.SizeBytes>>10, h.L1D.Ways, h.L1D.Latency)},
		{"Private L2$", fmt.Sprintf("%d KB %d-way, %d cycles", h.L2.SizeBytes>>10, h.L2.Ways, h.L2.Latency)},
		{"Shared L3$", fmt.Sprintf("%d MB %d-way, %d cycles", h.L3.SizeBytes>>20, h.L3.Ways, h.L3.Latency)},
		{"Memory", fmt.Sprintf("%d cycles beyond L3", h.DRAMLatency)},
		{"Lock location $", fmt.Sprintf("%d KB %d-way, %d cycles", h.Lock.SizeBytes>>10, h.Lock.Ways, h.Lock.Latency)},
	}
}

// Table2 prints the simulated processor configuration.
func Table2() string {
	var b strings.Builder
	b.WriteString("Table 2: simulated processor configuration\n")
	for _, r := range table2() {
		fmt.Fprintf(&b, "  %-15s %s\n", r[0], r[1])
	}
	return b.String()
}

// Table2Data is Table 2 as a (parameter, value) table, the rows
// Table2 prints, for watchdog-bench -csv.
func Table2Data() *stats.Table {
	t := stats.NewTable("Table 2: simulated processor configuration", "parameter", "value")
	for _, r := range table2() {
		t.Row(r[0], r[1])
	}
	return t
}

// Juliet runs the Section 9.2 security suite under Watchdog and
// returns the summary (paper: 291/291 detected, no false positives).
// The 582 cases run in parallel over all CPUs. The background context
// never fires, so every case runs and the error is always nil.
func Juliet() security.Summary {
	s, _ := new(Runner).Juliet()
	return s
}

// Bars renders one of the overhead comparisons as grouped horizontal
// bar charts (the terminal rendition of the paper's figures).
func (r *Runner) Bars(title string, cfgs ...ConfigName) (string, error) {
	if err := r.RunAll(append([]ConfigName{CfgBaseline}, cfgs...)...); err != nil {
		return "", err
	}
	series := make([]stats.Series, len(cfgs))
	for i, cfg := range cfgs {
		s, geo, err := r.Sweep(cfg)
		if err != nil {
			return "", err
		}
		s.Add("Geo.mean", geo)
		series[i] = s
	}
	return stats.RenderBars(title, series)
}

// OverheadTable renders an overhead figure: per-benchmark % slowdowns
// under each of its configurations, plus the geometric-mean row.
func (r *Runner) OverheadTable(f OverheadFigure) (*stats.Table, error) {
	// Warm every cell of the table in one parallel fan-out (the
	// per-config Sweeps below then only read the cache).
	if err := r.RunAll(append([]ConfigName{CfgBaseline}, f.Cfgs...)...); err != nil {
		return nil, err
	}
	headers := []string{"bench"}
	series := make([]stats.Series, len(f.Cfgs))
	geoRow := []any{"Geo.mean"}
	for i, cfg := range f.Cfgs {
		s, geo, err := r.Sweep(cfg)
		if err != nil {
			return nil, err
		}
		headers = append(headers, string(cfg))
		series[i] = s
		geoRow = append(geoRow, geo)
	}
	t := stats.NewTable(f.Title, headers...)
	for bi, w := range r.Workloads {
		row := []any{w.Name}
		for _, s := range series {
			row = append(row, s.Values[bi])
		}
		t.Row(row...)
	}
	t.Row(geoRow...)
	return t, nil
}

func frac(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
