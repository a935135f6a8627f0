package experiments

import (
	"fmt"
	"strings"

	"watchdog/internal/cache"
	"watchdog/internal/isa"
	"watchdog/internal/mem"
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
	var cons, ia []float64
	for _, w := range r.Workloads {
		cr, err := r.Run(w, CfgConservative)
		if err != nil {
			return nil, err
		}
		ir, err := r.Run(w, CfgISA)
		if err != nil {
			return nil, err
		}
		cf := frac(cr.Engine.PtrOps, cr.Engine.MemAccesses)
		af := frac(ir.Engine.PtrOps, ir.Engine.MemAccesses)
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
	var chk, pl, ps, ot, tot []float64
	for _, w := range r.Workloads {
		base, err := r.Run(w, CfgBaseline)
		if err != nil {
			return nil, err
		}
		res, err := r.Run(w, CfgISA)
		if err != nil {
			return nil, err
		}
		bu := float64(base.Timing.Uops)
		c := float64(res.Timing.UopsByMeta[isa.MetaCheck]) / bu * 100
		l := float64(res.Timing.UopsByMeta[isa.MetaPtrLoad]) / bu * 100
		s := float64(res.Timing.UopsByMeta[isa.MetaPtrStore]) / bu * 100
		o := float64(res.Timing.UopsByMeta[isa.MetaOther]) / bu * 100
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
	sums := make([][]float64, 2*len(cfgs))
	for _, w := range r.Workloads {
		cells := []any{w.Name}
		for i, cfg := range cfgs {
			res, err := r.Run(w, cfg)
			if err != nil {
				return nil, err
			}
			appW, appP, metaW, metaP := splitFootprint(res.Footprint)
			wo := frac(metaW, appW)
			po := frac(metaP, appP)
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

// Table2 prints the simulated processor configuration.
func Table2() string {
	p := pipeline.DefaultConfig()
	h := cache.DefaultHierConfig()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: simulated processor configuration\n")
	fmt.Fprintf(&b, "  Clock           %.1f GHz\n", p.ClockGHz)
	fmt.Fprintf(&b, "  Fetch           %d macro-insts/cycle, %d-cycle front end\n", p.FetchWidthMacro, p.FrontEndDepth)
	fmt.Fprintf(&b, "  Bpred           3-table PPM (256x2, 128x4, 128x4), 8-bit tags, 2-bit ctrs\n")
	fmt.Fprintf(&b, "  Rename/Dispatch %d µops/cycle\n", p.DispatchWidth)
	fmt.Fprintf(&b, "  Window          %d-entry ROB, %d-entry IQ, %d-wide issue\n", p.ROBSize, p.IQSize, p.IssueWidth)
	fmt.Fprintf(&b, "  LQ/SQ           %d / %d entries\n", p.LQSize, p.SQSize)
	fmt.Fprintf(&b, "  Int FUs         %d ALU, %d branch, %d load ports, %d store port, %d mul/div\n",
		p.IntALUs, p.BranchUnits, p.LoadPorts, p.StorePorts, p.MulDivs)
	fmt.Fprintf(&b, "  FP FUs          %d ALU, %d mul, %d div\n", p.FPAlus, p.FPMuls, p.FPDivs)
	fmt.Fprintf(&b, "  L1 I$           %d KB %d-way, %d cycles\n", h.L1I.SizeBytes>>10, h.L1I.Ways, h.L1I.Latency)
	fmt.Fprintf(&b, "  L1 D$           %d KB %d-way, %d cycles\n", h.L1D.SizeBytes>>10, h.L1D.Ways, h.L1D.Latency)
	fmt.Fprintf(&b, "  Private L2$     %d KB %d-way, %d cycles\n", h.L2.SizeBytes>>10, h.L2.Ways, h.L2.Latency)
	fmt.Fprintf(&b, "  Shared L3$      %d MB %d-way, %d cycles\n", h.L3.SizeBytes>>20, h.L3.Ways, h.L3.Latency)
	fmt.Fprintf(&b, "  Memory          %d cycles beyond L3\n", h.DRAMLatency)
	fmt.Fprintf(&b, "  Lock location $ %d KB %d-way, %d cycles\n", h.Lock.SizeBytes>>10, h.Lock.Ways, h.Lock.Latency)
	return b.String()
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
