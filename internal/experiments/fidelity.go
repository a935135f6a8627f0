package experiments

import (
	"context"
	"fmt"
	"time"

	"watchdog/internal/report"
	"watchdog/internal/sim"
	"watchdog/internal/stats"
	"watchdog/internal/workload"
)

// driftConfigs is the configuration set the fidelity-drift experiment
// sweeps: Figure 7's, so the drift numbers speak about the paper's
// headline overheads.
var driftConfigs = []ConfigName{CfgConservative, CfgISA, CfgXTag, CfgDangKiller}

// FidelityDrift quantifies what sampling trades away: it sweeps the
// Figure 7 configurations at every fidelity in sim.Fidelities (exact
// first: it defines the reference), and reports each approximation's
// geomean-overhead drift against exact (percentage points) next to its
// wall-clock speedup. The drift records also land in the -json report
// so CI can gate on them. ISA-assisted profiling passes are warmed
// before the clock starts, so no fidelity's wall time is billed for
// the shared functional profiling.
func (r *Runner) FidelityDrift() (*stats.Table, []report.Drift, error) {
	return r.FidelityDriftCtx(r.ctx())
}

// FidelityDriftCtx is FidelityDrift under an explicit context.
func (r *Runner) FidelityDriftCtx(ctx context.Context) (*stats.Table, []report.Drift, error) {
	if err := r.warmProfilesCtx(ctx, driftConfigs); err != nil {
		return nil, nil, err
	}
	cfgs := append([]ConfigName{CfgBaseline}, driftConfigs...)
	wall := make(map[sim.Fidelity]time.Duration, len(sim.Fidelities))
	geos := make(map[sim.Fidelity]map[ConfigName]float64, len(sim.Fidelities))
	for _, fid := range sim.Fidelities {
		t0 := time.Now()
		if err := r.runAllFidelityCtx(ctx, fid, cfgs...); err != nil {
			return nil, nil, err
		}
		wall[fid] = time.Since(t0)
		geos[fid] = make(map[ConfigName]float64, len(driftConfigs))
		for _, cfg := range driftConfigs {
			geo, err := r.geomeanFidelity(ctx, cfg, fid)
			if err != nil {
				return nil, nil, err
			}
			geos[fid][cfg] = geo
		}
	}

	t := stats.NewTable(
		fmt.Sprintf("Fidelity drift: fig7 geomean overhead vs exact (scale %d)", r.Scale),
		"fidelity", "config", "geomean", "drift-pp", "speedup")
	var drift []report.Drift
	for _, fid := range sim.Fidelities {
		speedup := speedupOver(wall[sim.FidelityExact], wall[fid])
		for _, cfg := range driftConfigs {
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

// geomeanFidelity is the geomean-overhead half of SweepCtx at an
// explicit fidelity (pure cache reads after runAllFidelityCtx).
func (r *Runner) geomeanFidelity(ctx context.Context, name ConfigName, fid sim.Fidelity) (float64, error) {
	var ratios []float64
	for _, w := range r.Workloads {
		ratio, err := r.overheadFidelity(ctx, w, name, fid)
		if err != nil {
			return 0, err
		}
		ratios = append(ratios, ratio)
	}
	geo, err := stats.GeomeanOverheadErr(ratios)
	if err != nil {
		return 0, fmt.Errorf("fidelity %s sweep %s: %w", fid.OrExact(), name, err)
	}
	return geo, nil
}

// warmProfilesCtx runs the ISA-assisted profiling passes the given
// configurations will need, in parallel, before any timing clock
// starts. Profiles are fidelity-invariant (the pass is functional), so
// whichever fidelity ran first would otherwise be billed for them.
func (r *Runner) warmProfilesCtx(ctx context.Context, cfgs []ConfigName) error {
	var need []ConfigName
	for _, c := range cfgs {
		if needsProfile(c) {
			need = append(need, c)
		}
	}
	if len(need) == 0 {
		return nil
	}
	type job struct {
		w workload.Workload
		c ConfigName
	}
	jobs := make([]job, 0, len(r.Workloads)*len(need))
	for _, c := range need {
		for _, w := range r.Workloads {
			jobs = append(jobs, job{w, c})
		}
	}
	return r.parallelDo(ctx, len(jobs), func(i int) error {
		opts := rtOptions(jobs[i].c)
		prog, rtEnd, err := workload.BuildProgram(jobs[i].w, opts, r.Scale)
		if err != nil {
			return err
		}
		pkey := fmt.Sprintf("%s/%s/%v", jobs[i].w.Name, opts.Policy, opts.Bounds)
		_, err = r.profileFor(ctx, pkey, prog, rtEnd, opts)
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
