package experiments

import (
	"context"
	"math"
	"testing"

	"watchdog/internal/report"
	"watchdog/internal/sim"
)

// TestReportCells: every simulated cell appears in the report, the
// cycle-breakdown buckets sum to the total cycle count, and overhead
// ratios line up with the Sweep values.
func TestReportCells(t *testing.T) {
	r := runner(t)
	if err := r.RunAll(CfgBaseline, CfgConservative, CfgISA, CfgXTag, CfgDangKiller); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Report([]string{"fig7"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(testSet) * 5; len(rep.Cells) != want {
		t.Fatalf("%d cells, want %d", len(rep.Cells), want)
	}
	if len(rep.Workloads) != len(testSet) {
		t.Fatalf("workloads %v", rep.Workloads)
	}
	base := make(map[string]int64)
	for _, c := range rep.Cells {
		if c.Cycles <= 0 {
			t.Fatalf("%s/%s: non-positive cycles %d", c.Workload, c.Config, c.Cycles)
		}
		if sum := c.BaseCycles + c.CheckCycles + c.LockMissCycles + c.MetaCycles; sum != c.Cycles {
			t.Errorf("%s/%s: breakdown sums to %d, want %d", c.Workload, c.Config, sum, c.Cycles)
		}
		if c.Config == string(CfgBaseline) {
			base[c.Workload] = c.Cycles
			if c.Overhead != 0 {
				t.Errorf("%s baseline cell has overhead %v", c.Workload, c.Overhead)
			}
		}
		if c.Uops == 0 || c.Insts == 0 {
			t.Errorf("%s/%s: zero instruction counts", c.Workload, c.Config)
		}
	}
	for _, c := range rep.Cells {
		if c.Config == string(CfgBaseline) {
			continue
		}
		want := float64(c.Cycles) / float64(base[c.Workload])
		if math.Abs(c.Overhead-want) > 1e-12 {
			t.Errorf("%s/%s: overhead %v, want %v", c.Workload, c.Config, c.Overhead, want)
		}
		if c.Checks == 0 || c.InjectedUops == 0 {
			t.Errorf("%s/%s: instrumented run with no injected work", c.Workload, c.Config)
		}
	}

	// Figure geomeans must match a direct Sweep.
	if len(rep.Figures) != 1 || rep.Figures[0].Name != "fig7" {
		t.Fatalf("figures: %+v", rep.Figures)
	}
	for _, g := range rep.Figures[0].Geomeans {
		_, geo, err := r.Sweep(ConfigName(g.Config))
		if err != nil {
			t.Fatal(err)
		}
		if g.OverheadPct != geo {
			t.Errorf("%s geomean %v, want %v", g.Config, g.OverheadPct, geo)
		}
	}
}

// TestReportDeterministic: two reports over the same runner state are
// identical (the byte-stability contract behind baseline comparison).
func TestReportDeterministic(t *testing.T) {
	r := runner(t)
	if err := r.RunAll(CfgBaseline, CfgISA); err != nil {
		t.Fatal(err)
	}
	a, err := r.Report(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Report(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := report.Compare(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ca.Regressed() || len(ca.Notes) != 0 {
		t.Fatalf("self-comparison not clean: %s", ca)
	}
}

// TestReportFidelityCellsCoexist: fidelity is part of the result-cache
// identity, so the same (workload, config) pair simulated at exact and
// sampled fidelity yields two distinct cells in one report — each with
// a same-fidelity overhead baseline — and every sampled cell with an
// exact counterpart carries the measured drift annotation.
func TestReportFidelityCellsCoexist(t *testing.T) {
	r := runner(t)
	ctx := context.Background()
	for _, fid := range []sim.Fidelity{sim.FidelityExact, sim.FidelitySampled} {
		for _, w := range r.Workloads {
			for _, cfg := range []ConfigName{CfgBaseline, CfgISA} {
				if _, err := r.run(ctx, fid, w, cfg); err != nil {
					t.Fatalf("%s/%s@%s: %v", w.Name, cfg, fid, err)
				}
			}
		}
	}
	rep, err := r.Report(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(testSet) * 2 * 2; len(rep.Cells) != want {
		t.Fatalf("%d cells, want %d (both fidelities)", len(rep.Cells), want)
	}

	baseCycles := map[[2]string]int64{} // (workload, fidelity) -> baseline cycles
	for _, c := range rep.Cells {
		if c.Config == string(CfgBaseline) {
			baseCycles[[2]string{c.Workload, c.Fidelity}] = c.Cycles
		}
	}
	exactISA := map[string]int64{}
	for _, c := range rep.Cells {
		switch c.Fidelity {
		case "exact":
			if c.SampledInsts != 0 || c.DriftVsExactPct != 0 {
				t.Errorf("%s/%s: exact cell carries sampling fields (%d insts, %v%% drift)",
					c.Workload, c.Config, c.SampledInsts, c.DriftVsExactPct)
			}
			if c.Config == string(CfgISA) {
				exactISA[c.Workload] = c.Cycles
			}
		case "sampled":
			if c.SampledInsts == 0 || c.SampledInsts >= c.Insts {
				t.Errorf("%s/%s: sampled cell measured %d of %d insts, want a strict subset",
					c.Workload, c.Config, c.SampledInsts, c.Insts)
			}
			if sum := c.BaseCycles + c.CheckCycles + c.LockMissCycles + c.MetaCycles; sum != c.Cycles {
				t.Errorf("%s/%s: sampled breakdown sums to %d, want %d", c.Workload, c.Config, sum, c.Cycles)
			}
			if c.Config != string(CfgBaseline) {
				want := float64(c.Cycles) / float64(baseCycles[[2]string{c.Workload, "sampled"}])
				if math.Abs(c.Overhead-want) > 1e-12 {
					t.Errorf("%s/%s: sampled overhead %v not over the sampled baseline (want %v)",
						c.Workload, c.Config, c.Overhead, want)
				}
			}
		default:
			t.Errorf("%s/%s: unexpected fidelity %q", c.Workload, c.Config, c.Fidelity)
		}
	}
	for _, c := range rep.Cells {
		if c.Fidelity != "sampled" || c.Config != string(CfgISA) {
			continue
		}
		e := exactISA[c.Workload]
		want := 100 * float64(c.Cycles-e) / float64(e)
		if c.DriftVsExactPct != want {
			t.Errorf("%s/%s: drift %v%%, want %v%%", c.Workload, c.Config, c.DriftVsExactPct, want)
		}
	}
}

// TestReportRejectsNonOverheadFigure: only the overhead figures have
// geomean summaries.
func TestReportRejectsNonOverheadFigure(t *testing.T) {
	r := runner(t)
	if _, err := r.Report([]string{"fig8"}, nil); err == nil {
		t.Fatal("fig8 has no geomean summary; Report must reject it")
	}
}

// TestJulietRecordsTiming: the Juliet path must feed the harness
// -stats counters (the "0 sims ... 0.0x parallel" bug).
func TestJulietRecordsTiming(t *testing.T) {
	r := runner(t)
	r.Jobs = 4
	sum, err := r.Juliet()
	if err != nil {
		t.Fatalf("Juliet: %v", err)
	}
	if sum.BadDetected != sum.BadTotal || sum.BadTotal == 0 {
		t.Fatalf("juliet summary wrong: %s", sum.String())
	}
	if got := r.Timing.Sims(); got != uint64(sum.BadTotal+sum.GoodTotal) {
		t.Fatalf("Timing.Sims() = %d, want one per case (%d)", got, sum.BadTotal+sum.GoodTotal)
	}
	if r.Timing.BusyTime() <= 0 {
		t.Fatal("juliet cases recorded no busy time")
	}
}
