package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"watchdog/internal/core"
	"watchdog/internal/fuzzgen"
	"watchdog/internal/machine"
	"watchdog/internal/rt"
	"watchdog/internal/security"
	"watchdog/internal/sim"
)

// policy is one checking policy the referee judges under.
type policy struct {
	name string
	cfg  core.Config
	opts rt.Options
}

// oraclePolicies must catch every planted use-after-free. The others
// may miss one (location once the block is reallocated, xtag when the
// tags alias) but must then run to the baseline checksum.
var oraclePolicies = map[string]bool{"watchdog": true, "conservative": true, "software": true, "dangkiller": true}

// fuzzInstLimit bounds a generated program, as the fuzz tests do.
const fuzzInstLimit = 10_000_000

// runReferee judges the Juliet suite under all six policies, then fuzz
// seeds seed, seed+1, ... — a safe and a planted-UAF program each, under
// the baseline and all six policies — until the run's time is up. An
// operation is one program judged under one policy.
func runReferee(ctx context.Context, o *options, ready func() bool) (*part, error) {
	cases := security.Suite()
	var pols []policy
	for _, name := range security.Policies() {
		cfg, opts, err := security.PolicyConfig(name)
		if err != nil {
			return nil, err
		}
		pols = append(pols, policy{name, cfg, opts})
	}
	if !ready() {
		return nil, nil
	}
	p := newPart()
	rss := startRSSWindows()
	start := time.Now()

	jStart := time.Now()
	for _, pol := range pols {
		sp := o.tr.begin("security.juliet", 0, pol.name)
		outs, err := security.RunCasesCtx(ctx, cases, pol.cfg, pol.opts, o.workers, nil, nil)
		sp.end()
		p.Attempted += len(cases)
		if err != nil {
			p.fail(len(cases), "juliet under %s: %v", pol.name, err)
			continue
		}
		if m := security.Mismatches(pol.name, cases, outs); len(m) > 0 {
			p.fail(len(m), "juliet under %s: %s detected=%v, expected %v",
				pol.name, m[0].Outcome.Case.ID, m[0].Outcome.Detected, m[0].Expected)
		}
	}
	juliet := time.Since(jStart)

	if o.tr != nil {
		// Judge seeds untraced for half the time, for the times, then
		// the same seeds traced, for the spans.
		ref := fuzzPhase(ctx, nil, o, pols, o.size.fuzzSeeds, start.Add(o.seconds/2), p)
		tStart := time.Now()
		traced := fuzzPhase(ctx, o.tr, o, pols, ref.seeds, time.Time{}, p)
		p.set("bench.trace_overhead_pct", o.tr.overheadPct(tStart, o.workers))
		rss.finish()
		p.set("wall_s", juliet.Seconds())
		p.set("ops_per_s", float64(ref.programs)/ref.wall.Seconds())
		p.set("sim_mips", float64(ref.insts)/1e6/ref.wall.Seconds())
		p.set("model.insts", float64(traced.insts))
		p.set("fuzzgen.generate_us", median(o.tr.durations("fuzzgen.generate", time.Microsecond)))
		run := o.tr.durations("sim.run", time.Millisecond)
		p.set("sim.run_ms_p50", percentile(run, 50))
		p.set("sim.run_ms_p90", percentile(run, 90))
		return p, nil
	}
	fz := fuzzPhase(ctx, nil, o, pols, o.size.fuzzSeeds, start.Add(o.seconds), p)
	p.RSS = rss.finish()
	o.notef("raw host time: juliet %d cases x %d policies wall_s %.3f; %d fuzz seeds from %d in %.3f s: ops_per_s %.1f, sim_mips %.3f",
		len(cases), len(pols), juliet.Seconds(), fz.seeds, o.seed, fz.wall.Seconds(),
		float64(fz.programs)/fz.wall.Seconds(), float64(fz.insts)/1e6/fz.wall.Seconds())
	return p, nil
}

// fuzzRound is what one pass over fuzz seeds did.
type fuzzRound struct {
	seeds    int    // seeds judged
	programs int    // programs judged correctly, one per policy and bug
	insts    uint64 // simulated instructions, baseline runs included
	wall     time.Duration
}

// fuzzPhase judges seeds o.seed, o.seed+1, ... over o.workers
// goroutines: count of them, or (count 0) as many as start before the
// deadline. Verdicts are added to p.
func fuzzPhase(ctx context.Context, tr *tracer, o *options, pols []policy, count int, deadline time.Time, p *part) fuzzRound {
	var mu sync.Mutex
	var fr fuzzRound
	var next atomic.Int64
	start := time.Now()
	parallel(o.workers, o.workers, func(int) {
		for ctx.Err() == nil {
			i := next.Add(1) - 1
			if count > 0 && i >= int64(count) || count == 0 && !time.Now().Before(deadline) {
				return
			}
			seed := o.seed + i
			v := judgeSeed(ctx, tr, seed, pols)
			mu.Lock()
			fr.seeds++
			fr.programs += v.attempted - v.failed
			fr.insts += v.insts
			p.Attempted += v.attempted
			if v.err != nil {
				p.fail(v.failed, "fuzz seed %d: %v", seed, v.err)
			}
			mu.Unlock()
		}
	})
	fr.wall = time.Since(start)
	return fr
}

// seedVerdict is what judging one fuzz seed found.
type seedVerdict struct {
	attempted, failed int
	insts             uint64
	err               error // the first wrong verdict
}

// judgeSeed generates the seed's safe and planted-UAF programs for the
// baseline and each policy, runs each, and checks the verdicts: safe
// programs reach the baseline checksum with no violation under every
// policy; the oracle policies fault on the planted access; the others
// fault there or reach the baseline checksum.
func judgeSeed(ctx context.Context, tr *tracer, seed int64, pols []policy) seedVerdict {
	var v seedVerdict
	key := fmt.Sprint(seed)
	sp := tr.begin("fuzz.seed", 0, key)
	defer sp.end()
	parent := sp.id()
	for _, bug := range []fuzzgen.Bug{fuzzgen.BugNone, fuzzgen.BugUAF} {
		base, _, err := fuzzRun(ctx, tr, parent, key, seed, bug, core.Config{Policy: core.PolicyBaseline})
		if err == nil && (base.MemErr != nil || base.Aborted || len(base.Output) != 1) {
			err = fmt.Errorf("baseline did not complete with a checksum")
		}
		if base != nil {
			v.insts += base.Insts
		}
		for _, p := range pols {
			v.attempted++
			if err != nil {
				v.fail(fmt.Errorf("bug %d: %w", bug, err))
				continue
			}
			res, bugPC, perr := fuzzRun(ctx, tr, parent, key, seed, bug, p.cfg)
			if res != nil {
				v.insts += res.Insts
			}
			if perr == nil {
				perr = verdict(res, bug, bugPC, base.Output[0], oraclePolicies[p.name])
			}
			if perr != nil {
				v.fail(fmt.Errorf("%s, bug %d: %w", p.name, bug, perr))
			}
		}
	}
	return v
}

func (v *seedVerdict) fail(err error) {
	if v.err == nil {
		v.err = err
	}
	v.failed++
}

// verdict checks one policy's run of a generated program.
func verdict(res *machine.Result, bug fuzzgen.Bug, bugPC int, checksum int64, oracle bool) error {
	clean := res.MemErr == nil && !res.Aborted && len(res.Output) == 1
	switch {
	case bug == fuzzgen.BugNone && !clean:
		return fmt.Errorf("safe program did not complete cleanly (violation %v)", res.MemErr)
	case clean && res.Output[0] != checksum:
		return fmt.Errorf("checksum %d, baseline %d", res.Output[0], checksum)
	case bug == fuzzgen.BugNone || (clean && !oracle):
		return nil
	case res.MemErr == nil:
		return fmt.Errorf("planted use-after-free not detected")
	case res.MemErr.Kind != core.ErrUseAfterFree || res.MemErr.PC != bugPC:
		return fmt.Errorf("fault %v at pc %d, planted at %d", res.MemErr.Kind, res.MemErr.PC, bugPC)
	}
	return nil
}

// fuzzRun generates the seed's program for the configuration's runtime
// variant and runs it functionally.
func fuzzRun(ctx context.Context, tr *tracer, parent int64, key string, seed int64, bug fuzzgen.Bug, cfg core.Config) (*machine.Result, int, error) {
	sp := tr.begin("fuzzgen.generate", parent, key)
	prog, rtEnd, bugPC, err := fuzzgen.Generate(fuzzgen.Options{Seed: seed, Bug: bug, Policy: cfg.Policy})
	sp.end()
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin("sim.run", parent, key)
	res, err := sim.RunCtx(ctx, prog, sim.Config{Core: cfg, RuntimeEnd: rtEnd, InstLimit: fuzzInstLimit})
	sp.end()
	return res, bugPC, err
}
