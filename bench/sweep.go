package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"watchdog/internal/core"
	"watchdog/internal/experiments"
	"watchdog/internal/isa"
	"watchdog/internal/machine"
	"watchdog/internal/rt"
	"watchdog/internal/sim"
	"watchdog/internal/stats"
	"watchdog/internal/workload"
)

// figureFanouts are the cell sets Fig7, Fig9 and Fig11 fan out, in the
// order the figure methods run them; batchConfigs are their distinct
// configurations. One batch is the three figures on a fresh runner.
var figureFanouts = [][]experiments.ConfigName{
	{experiments.CfgBaseline, experiments.CfgConservative, experiments.CfgISA, experiments.CfgXTag, experiments.CfgDangKiller},
	{experiments.CfgBaseline, experiments.CfgISA, experiments.CfgISANoLock},
	{experiments.CfgBaseline, experiments.CfgISA, experiments.CfgBounds1, experiments.CfgBounds2},
}

var batchConfigs = []experiments.ConfigName{
	experiments.CfgBaseline, experiments.CfgConservative, experiments.CfgISA, experiments.CfgXTag,
	experiments.CfgDangKiller, experiments.CfgISANoLock, experiments.CfgBounds1, experiments.CfgBounds2,
}

func runSweepExact(ctx context.Context, o *options, ready func() bool) (*part, error) {
	return runSweep(ctx, o, ready, sim.FidelityExact, o.size.exactScale)
}

func runSweepSampled(ctx context.Context, o *options, ready func() bool) (*part, error) {
	return runSweep(ctx, o, ready, sim.FidelitySampled, o.size.sampledScale)
}

// cellResult is one simulated (workload, configuration) cell. dur is
// how long the traced pass took to simulate it.
type cellResult struct {
	w   workload.Workload
	cfg experiments.ConfigName
	res *machine.Result
	err error
	dur time.Duration
}

// batch is one figure batch: its cells in workload-major order and its
// wall time. err is set when a figure could not be assembled.
type batch struct {
	wall  time.Duration
	cells []cellResult
	err   error
}

// simulateFunc simulates one cell.
type simulateFunc func(w workload.Workload, cfg experiments.ConfigName) (*machine.Result, error)

// runSweep measures one figure batch; the parent process runs batches,
// each in a fresh process, until the time is up, so every batch starts
// from the same process state (a reused Go heap re-zeroes its memory,
// which roughly triples the resident set of a second batch).
func runSweep(ctx context.Context, o *options, ready func() bool, fid sim.Fidelity, scale int) (*part, error) {
	ws, err := kernelList(o.size.kernels)
	if err != nil {
		return nil, err
	}
	if !ready() {
		return nil, nil
	}
	p := newPart()
	if o.tr != nil {
		return p, tracedSweep(ctx, o, p, ws, fid, scale)
	}
	b := runnerBatch(ctx, o, ws, fid, scale)
	ok := checkBatch(p, b, fid)
	p.RSS = append(p.RSS, peakRSSMB())
	o.notef("batch of %d cells at scale %d, %s fidelity, raw host time: wall_s %.3f, ops_per_s %.3f, sim_mips %.3f",
		len(b.cells), scale, fid, b.wall.Seconds(), float64(ok)/b.wall.Seconds(),
		float64(sumInsts(b.cells))/1e6/b.wall.Seconds())
	return p, nil
}

// runnerBatch regenerates Fig7, Fig9 and Fig11 on a fresh runner with
// o.workers jobs, as watchdog-bench does, and times that by the wall
// clock: the figure regeneration a reproducer waits for, idle tail
// included. It then reads the batch's cells back from the runner's
// cache for checking.
func runnerBatch(ctx context.Context, o *options, ws []workload.Workload, fid sim.Fidelity, scale int) batch {
	var b batch
	r, err := experiments.NewRunner(scale, kernelNames(ws)...)
	if err == nil {
		r.Jobs = o.workers
		r.Fidelity = fid
		r.Ctx = ctx
		start := time.Now()
		for _, fig := range []func() (*stats.Table, error){r.Fig7, r.Fig9, r.Fig11} {
			if _, err = fig(); err != nil {
				break
			}
		}
		b.wall = time.Since(start)
	}
	b.err = err
	for _, w := range ws {
		for _, cfg := range batchConfigs {
			c := cellResult{w: w, cfg: cfg}
			if b.err == nil {
				c.res, c.err = r.RunCtx(ctx, w, cfg)
			}
			b.cells = append(b.cells, c)
		}
	}
	return b
}

// runBatch simulates the batch's cells one by one, in the order the
// figure methods do — the three fan-outs one after another,
// config-major within each, cells an earlier fan-out already ran
// skipped — over o.workers goroutines, and times each cell.
func runBatch(o *options, ws []workload.Workload, simulate simulateFunc) batch {
	results := make(map[string]cellResult)
	start := time.Now()
	for _, fan := range figureFanouts {
		var todo []cellResult
		for _, cfg := range fan {
			for _, w := range ws {
				if _, done := results[w.Name+"/"+string(cfg)]; !done {
					todo = append(todo, cellResult{w: w, cfg: cfg})
				}
			}
		}
		parallel(o.workers, len(todo), func(i int) {
			c := &todo[i]
			t0 := time.Now()
			c.res, c.err = simulate(c.w, c.cfg)
			c.dur = time.Since(t0)
		})
		for _, c := range todo {
			results[c.w.Name+"/"+string(c.cfg)] = c
		}
	}
	b := batch{wall: time.Since(start)}
	for _, w := range ws {
		for _, cfg := range batchConfigs {
			b.cells = append(b.cells, results[w.Name+"/"+string(cfg)])
		}
	}
	return b
}

// kernelList resolves the kernel names (nil = all twenty).
func kernelList(names []string) ([]workload.Workload, error) {
	if len(names) == 0 {
		return workload.All(), nil
	}
	var ws []workload.Workload
	for _, n := range names {
		w, ok := workload.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", n)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

func kernelNames(ws []workload.Workload) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}

// checkBatch counts the batch's cells as attempted and fails each cell
// that errored, stopped early, or whose output differs from its
// workload's baseline; at exact fidelity the CPI stack must also sum
// to the cycle count. A batch whose figures failed fails as a whole,
// counted as one operation per cell. It returns the number of correct
// cells.
func checkBatch(p *part, b batch, fid sim.Fidelity) int {
	if b.err != nil {
		p.Attempted += len(b.cells)
		p.fail(len(b.cells), "figures: %v", b.err)
		return 0
	}
	p.Attempted += len(b.cells)
	failed := p.Failed
	base := make(map[string][]int64)
	for _, c := range b.cells {
		if c.cfg == experiments.CfgBaseline && c.err == nil && c.res != nil {
			base[c.w.Name] = c.res.Output
		}
	}
	for _, c := range b.cells {
		if err := checkCell(c, base, fid); err != nil {
			p.fail(1, "%s/%s: %v", c.w.Name, c.cfg, err)
		}
	}
	return len(b.cells) - (p.Failed - failed)
}

func checkCell(c cellResult, base map[string][]int64, fid sim.Fidelity) error {
	switch {
	case c.err != nil:
		return c.err
	case c.res == nil:
		return fmt.Errorf("no result")
	case c.res.Partial:
		return fmt.Errorf("partial result")
	case c.res.MemErr != nil:
		return fmt.Errorf("unexpected violation: %v", c.res.MemErr)
	case c.res.Aborted:
		return fmt.Errorf("runtime abort %d", c.res.AbortCode)
	}
	want, ok := base[c.w.Name]
	if !ok {
		return fmt.Errorf("no baseline output to compare against")
	}
	if !slices.Equal(c.res.Output, want) {
		return fmt.Errorf("output %v differs from baseline %v", c.res.Output, want)
	}
	t := c.res.Timing
	if fid.OrExact() == sim.FidelityExact && t.BaseCycles+t.CheckCycles+t.LockMissCycles+t.MetaCycles != t.Cycles {
		return fmt.Errorf("CPI stack %d+%d+%d+%d != %d cycles",
			t.BaseCycles, t.CheckCycles, t.LockMissCycles, t.MetaCycles, t.Cycles)
	}
	return nil
}

func sumInsts(cells []cellResult) uint64 {
	var n uint64
	for _, c := range cells {
		if c.res != nil {
			n += c.res.Insts
		}
	}
	return n
}

// statDigest hashes simulated statistics, which a change that only
// speeds up the simulator must leave alone.
type statDigest struct{ h hash.Hash64 }

func newDigest() *statDigest { return &statDigest{fnv.New64a()} }

func (d *statDigest) str(s string) { d.h.Write([]byte(s)) }

func (d *statDigest) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

// value keeps 48 bits, so the digest is exact as a JSON number.
func (d *statDigest) value() float64 { return float64(d.h.Sum64() & (1<<48 - 1)) }

// digest hashes the cells' statistics in their order.
func digest(cells []cellResult) float64 {
	d := newDigest()
	for _, c := range cells {
		d.str(c.w.Name + "/" + string(c.cfg))
		r := c.res
		if r == nil {
			d.u64(0)
			continue
		}
		t := r.Timing
		d.u64(r.Insts, r.Uops, uint64(t.Cycles), uint64(r.EstimatedCycles()),
			uint64(t.BaseCycles), uint64(t.CheckCycles), uint64(t.LockMissCycles), uint64(t.MetaCycles),
			t.Cache.L1D.Accesses, t.Cache.L1D.Misses, t.Cache.Lock.Accesses, t.Cache.Lock.Misses,
			t.Cache.L2.Misses, t.Cache.L3.Misses, t.Mispredicts, r.Engine.Checks)
		for _, v := range r.Output {
			d.u64(uint64(v))
		}
	}
	return d.value()
}

// setModel reports the simulated statistics summed over the cells.
func setModel(p *part, cells []cellResult) {
	var insts, uops, cycles, checks, l1d, lock, mispred uint64
	for _, c := range cells {
		if c.res == nil {
			continue
		}
		t := c.res.Timing
		insts += c.res.Insts
		uops += c.res.Uops
		cycles += uint64(c.res.EstimatedCycles())
		checks += t.UopsByMeta[isa.MetaCheck]
		l1d += t.Cache.L1D.Misses
		lock += t.Cache.Lock.Misses
		mispred += t.Mispredicts
	}
	p.set("model.insts", float64(insts))
	p.set("model.uops", float64(uops))
	p.set("model.cycles", float64(cycles))
	p.set("model.check_uops", float64(checks))
	p.set("model.l1d_misses", float64(l1d))
	p.set("model.lock_misses", float64(lock))
	p.set("model.mispredicts", float64(mispred))
	p.set("model.digest", digest(cells))
}

// tracedSweep runs one batch through the runner, then the same cells
// through workload.BuildProgram, sim.ProfileCtx and sim.RunCtx — the
// calls the runner makes — with a span around each. Both must simulate
// identical statistics.
func tracedSweep(ctx context.Context, o *options, p *part, ws []workload.Workload, fid sim.Fidelity, scale int) error {
	ref := runnerBatch(ctx, o, ws, fid, scale)
	if ref.err != nil {
		return fmt.Errorf("figures: %w", ref.err)
	}
	ok := checkBatch(p, ref, fid)
	wall := ref.wall.Seconds()
	p.set("wall_s", wall)
	p.set("ops_per_s", float64(ok)/wall)
	p.set("sim_mips", float64(sumInsts(ref.cells))/1e6/wall)

	profiles := &profileCache{m: make(map[string]*profileEntry)}
	tStart := time.Now()
	traced := runBatch(o, ws, func(w workload.Workload, cfg experiments.ConfigName) (*machine.Result, error) {
		return tracedCell(ctx, o.tr, w, cfg, fid, scale, profiles)
	})
	checkBatch(p, traced, fid)
	if d, want := digest(traced.cells), digest(ref.cells); d != want {
		p.fail(len(traced.cells), "traced cells simulated different statistics (digest %v, runner %v)", d, want)
	}
	setModel(p, traced.cells)
	p.set("bench.trace_overhead_pct", o.tr.overheadPct(tStart, o.workers))
	var busy time.Duration
	for _, c := range traced.cells {
		busy += c.dur
	}
	p.set("experiments.core_idle_pct", 100*(1-busy.Seconds()/(traced.wall.Seconds()*float64(o.workers))))
	prof := o.tr.durations("sim.profile", time.Millisecond)
	run := o.tr.durations("sim.run", time.Millisecond)
	p.set("sim.profile_ms_p50", percentile(prof, 50))
	p.set("sim.profile_ms_p90", percentile(prof, 90))
	p.set("sim.run_ms_p50", percentile(run, 50))
	p.set("sim.run_ms_p90", percentile(run, 90))
	p.set("workload.build_ms", median(o.tr.durations("workload.build", time.Millisecond)))
	o.notef("runner batch %.3f s, traced batch %.3f s; %d profiling passes, %d simulations",
		ref.wall.Seconds(), traced.wall.Seconds(), len(prof), len(run))
	return nil
}

// parallel calls fn(i) for i in 0..n-1 over the given number of worker
// goroutines and returns when all calls have returned.
func parallel(workers, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < min(workers, n); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// tracedCell simulates one cell with spans around each layer call.
func tracedCell(ctx context.Context, tr *tracer, w workload.Workload, cfg experiments.ConfigName, fid sim.Fidelity, scale int, profiles *profileCache) (*machine.Result, error) {
	key := w.Name + "/" + string(cfg)
	cell := tr.begin("cell", 0, key)
	defer cell.end()
	opts := cellRuntime(cfg)
	b := tr.begin("workload.build", cell.id(), key)
	prog, rtEnd, err := workload.BuildProgram(w, opts, scale)
	b.end()
	if err != nil {
		return nil, err
	}
	var prof *core.Profile
	if needsProfile(cfg) {
		pkey := fmt.Sprintf("%s/%s/%v", w.Name, opts.Policy, opts.Bounds)
		prof, err = profiles.get(pkey, func() (*core.Profile, error) {
			s := tr.begin("sim.profile", cell.id(), key)
			defer s.end()
			base := core.DefaultConfig()
			if opts.Bounds {
				base.Bounds = core.BoundsFused
			}
			return sim.ProfileCtx(ctx, prog, base, rtEnd)
		})
		if err != nil {
			return nil, err
		}
	}
	sc := cellConfig(cfg, prof)
	sc.RuntimeEnd = rtEnd
	sc.Fidelity = fid
	s := tr.begin("sim.run", cell.id(), key)
	res, err := sim.RunCtx(ctx, prog, sc)
	s.end()
	return res, err
}

// profileCache runs each profiling pass once; later callers wait for
// the first.
type profileCache struct {
	mu sync.Mutex
	m  map[string]*profileEntry
}

type profileEntry struct {
	done chan struct{}
	prof *core.Profile
	err  error
}

func (c *profileCache) get(key string, compute func() (*core.Profile, error)) (*core.Profile, error) {
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		e = &profileEntry{done: make(chan struct{})}
		c.m[key] = e
		c.mu.Unlock()
		e.prof, e.err = compute()
		close(e.done)
		return e.prof, e.err
	}
	c.mu.Unlock()
	<-e.done
	return e.prof, e.err
}

// cellRuntime, needsProfile and cellConfig restate, for the batch's
// configurations, how experiments.Runner maps a configuration name to
// its runtime variant and simulation config. The traced batch's digest
// must equal the runner's, which catches any drift.
func cellRuntime(cfg experiments.ConfigName) rt.Options {
	switch cfg {
	case experiments.CfgBaseline:
		return rt.Options{Policy: core.PolicyBaseline}
	case experiments.CfgXTag:
		return rt.Options{Policy: core.PolicyXTag}
	case experiments.CfgDangKiller:
		return rt.Options{Policy: core.PolicyDangKiller}
	case experiments.CfgBounds1, experiments.CfgBounds2:
		return rt.Options{Policy: core.PolicyWatchdog, Bounds: true}
	}
	return rt.Options{Policy: core.PolicyWatchdog}
}

func needsProfile(cfg experiments.ConfigName) bool {
	switch cfg {
	case experiments.CfgISA, experiments.CfgISANoLock, experiments.CfgBounds1, experiments.CfgBounds2:
		return true
	}
	return false
}

func cellConfig(cfg experiments.ConfigName, prof *core.Profile) sim.Config {
	sc := sim.Default()
	switch cfg {
	case experiments.CfgBaseline:
		sc.Core = core.Config{Policy: core.PolicyBaseline}
	case experiments.CfgConservative:
		sc.Core.PtrPolicy = core.PtrConservative
	case experiments.CfgISA:
		sc.Core.Profile = prof
	case experiments.CfgISANoLock:
		sc.Core.Profile = prof
		sc.Core.LockCache = false
	case experiments.CfgBounds1:
		sc.Core.Profile = prof
		sc.Core.Bounds = core.BoundsFused
	case experiments.CfgBounds2:
		sc.Core.Profile = prof
		sc.Core.Bounds = core.BoundsSeparate
	case experiments.CfgXTag:
		sc.Core = core.Config{Policy: core.PolicyXTag, PtrPolicy: core.PtrConservative, TagBits: core.DefaultTagBits}
	case experiments.CfgDangKiller:
		sc.Core = core.Config{Policy: core.PolicyDangKiller, PtrPolicy: core.PtrConservative}
	}
	return sc
}
