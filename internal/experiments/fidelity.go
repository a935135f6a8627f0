package experiments

import (
	"context"
	"fmt"
	"time"

	"watchdog/internal/report"
	"watchdog/internal/rt"
	"watchdog/internal/sim"
	"watchdog/internal/stats"
	"watchdog/internal/workload"
)

// FidelityDrift quantifies what sampling trades away: it sweeps the
// Figure 7 configurations (so the drift numbers speak about the
// paper's headline overheads) at every fidelity in sim.Fidelities (exact
// first: it defines the reference), and reports each approximation's
// geomean-overhead drift against exact (percentage points) next to its
// wall-clock speedup. The drift records also land in the -json report
// so CI can gate on them. ISA-assisted profiling passes are warmed
// before the clock starts, so no fidelity's wall time is billed for
// the shared functional profiling.
func (r *Runner) FidelityDrift() (*stats.Table, []report.Drift, error) {
	ctx, fig := r.ctx(), OverheadFig7
	if err := r.warmProfiles(ctx, fig.Cfgs); err != nil {
		return nil, nil, err
	}
	cfgs := append([]ConfigName{CfgBaseline}, fig.Cfgs...)
	wall := make(map[sim.Fidelity]time.Duration, len(sim.Fidelities))
	geos := make(map[sim.Fidelity]map[ConfigName]float64, len(sim.Fidelities))
	for _, fid := range sim.Fidelities {
		t0 := time.Now()
		if err := r.runAll(ctx, fid, cfgs...); err != nil {
			return nil, nil, err
		}
		wall[fid] = time.Since(t0)
		geos[fid] = make(map[ConfigName]float64, len(fig.Cfgs))
		for _, cfg := range fig.Cfgs {
			_, geo, err := r.sweep(ctx, fid, cfg)
			if err != nil {
				return nil, nil, err
			}
			geos[fid][cfg] = geo
		}
	}

	t := stats.NewTable(
		fmt.Sprintf("Fidelity drift: %s geomean overhead vs exact (scale %d)", fig.Name, r.Scale),
		"fidelity", "config", "geomean", "drift-pp", "speedup")
	var drift []report.Drift
	for _, fid := range sim.Fidelities {
		speedup := speedupOver(wall[sim.FidelityExact], wall[fid])
		for _, cfg := range fig.Cfgs {
			exact := geos[sim.FidelityExact][cfg]
			geo := geos[fid][cfg]
			t.Row(string(fid), string(cfg), geo, geo-exact, speedup)
			if fid == sim.FidelityExact {
				continue
			}
			drift = append(drift, report.Drift{
				Fidelity:  string(fid),
				Config:    string(cfg),
				ExactPct:  exact,
				ApproxPct: geo,
				DriftPP:   geo - exact,
				SpeedupX:  speedup,
			})
		}
	}
	return t, drift, nil
}

// warmProfiles runs the profiling passes the given configurations
// will need, in parallel, before any timing clock starts. Profiles are
// fidelity-invariant (the pass is functional), so whichever fidelity
// ran first would otherwise be billed for them.
func (r *Runner) warmProfiles(ctx context.Context, cfgs []ConfigName) error {
	type job struct {
		w    workload.Workload
		opts rt.Options
	}
	var jobs []job
	for _, c := range cfgs {
		cfg, err := SimConfig(c)
		if err != nil {
			return err
		}
		if !NeedsProfile(cfg.Core) {
			continue
		}
		for _, w := range r.Workloads {
			jobs = append(jobs, job{w, rt.For(cfg.Core)})
		}
	}
	return stats.ParallelDo(ctx, r.Jobs, len(jobs), func(i int) error {
		prog, rtEnd, err := workload.BuildProgram(jobs[i].w, jobs[i].opts, r.Scale)
		if err != nil {
			return err
		}
		_, err = r.profileFor(ctx, jobs[i].w, jobs[i].opts, prog, rtEnd)
		return err
	})
}

// speedupOver is exactWall / wall, guarded against a zero denominator.
func speedupOver(exact, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(exact) / float64(wall)
}
