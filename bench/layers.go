package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"watchdog/internal/asm"
	"watchdog/internal/bpred"
	"watchdog/internal/cache"
	"watchdog/internal/core"
	"watchdog/internal/experiments"
	"watchdog/internal/isa"
	"watchdog/internal/machine"
	"watchdog/internal/mem"
	"watchdog/internal/pipeline"
	"watchdog/internal/sim"
	"watchdog/internal/trace"
	"watchdog/internal/workload"
)

// layerKernels are the kernels the layers phase records and replays:
// mcf chases pointers through the heap, lbm streams through arrays.
var layerKernels = []string{"mcf", "lbm"}

// opKind is which cache-hierarchy call a recorded access makes.
type opKind uint8

const (
	opFetch opKind = iota
	opData
	opLockRead
	opLockWrite
)

// memOp is one cache-hierarchy call of a recorded run.
type memOp struct {
	kind  opKind
	write bool
	addr  uint64
}

// branchOutcome is one executed conditional branch.
type branchOutcome struct {
	pc    uint64
	taken bool
}

// recording is one kernel's run at scale 1 under the isa config,
// captured with a timeline trace and reduced to the streams each layer
// consumes.
type recording struct {
	name     string
	prog     *asm.Program
	rtEnd    int
	prof     *core.Profile
	res      *machine.Result
	pcs      []int           // executed macro-instruction pcs
	ops      []memOp         // hierarchy calls, in the order the pipeline made them
	branches []branchOutcome // conditional branches, in execution order
}

// record simulates the kernel with a timeline sink and reduces the
// events to layer streams. The timeline itself is dropped.
func record(name string) (*recording, error) {
	w, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown kernel %q", name)
	}
	prog, rtEnd, err := workload.BuildProgram(w, cellRuntime(experiments.CfgISA), 1)
	if err != nil {
		return nil, err
	}
	prof, err := sim.Profile(prog, core.DefaultConfig(), rtEnd)
	if err != nil {
		return nil, err
	}
	sc := cellConfig(experiments.CfgISA, prof)
	sc.RuntimeEnd = rtEnd
	sc.Sink = trace.New(trace.Config{Timeline: true})
	res, err := sim.Run(prog, sc)
	if err != nil {
		return nil, err
	}
	rec := &recording{name: name, prog: prog, rtEnd: rtEnd, prof: prof, res: res}
	rec.reduce(res.Trace.Events(), pipeline.DefaultConfig().SQSize)
	res.Trace = nil
	return rec, nil
}

// reduce derives the layer streams from the timeline. The hierarchy
// calls restate pipeline.Model's: an instruction fetch when the fetch
// block changes, a lock read per check µop, an access per load that
// store-to-load forwarding does not satisfy (forwarding is replayed
// from the recorded issue and retire cycles over a store queue of
// sqSize entries), and a write per store. A load or store the engine
// injected (its Figure 8 class is not the program's) that touches a
// lock location — the stack frames' lock updates — takes the lock path;
// every other one, the data path.
func (rec *recording) reduce(events []trace.Event, sqSize int) {
	type pendingStore struct {
		addr   uint64
		retire int64
	}
	stores := make([]pendingStore, sqSize)
	head := 0
	var lastBlock uint64
	branchAt := -1
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case trace.KindInst:
			if branchAt >= 0 {
				rec.branches = append(rec.branches, branchOutcome{
					pc: mem.CodeAddr(branchAt), taken: ev.PC != branchAt+1,
				})
				branchAt = -1
			}
			if ev.Op == isa.OpBr {
				branchAt = ev.PC
			}
			rec.pcs = append(rec.pcs, ev.PC)
		case trace.KindFetch:
			if b := ev.Addr >> 6; b != lastBlock {
				lastBlock = b
				rec.ops = append(rec.ops, memOp{kind: opFetch, addr: ev.Addr})
			}
		case trace.KindUop:
			r := mem.RegionOf(ev.Addr)
			lock := ev.Meta != isa.MetaNone && (r == mem.RegionLock || r == mem.RegionStackLock)
			switch ev.Uop {
			case isa.UopLoad, isa.UopFLoad, isa.UopShadowLoad:
				forwarded := false
				word := ev.Addr &^ 7
				idx := head
				for j := 0; j < len(stores); j++ {
					idx--
					if idx < 0 {
						idx = len(stores) - 1
					}
					s := stores[idx]
					if s.retire == 0 || s.retire <= ev.Issue {
						break
					}
					if s.addr&^7 == word {
						forwarded = true
						break
					}
				}
				if !forwarded {
					rec.ops = append(rec.ops, memOp{kind: pick(lock, opLockRead, opData), addr: ev.Addr})
				}
			case isa.UopCheck, isa.UopCheckFull:
				rec.ops = append(rec.ops, memOp{kind: opLockRead, addr: ev.Addr})
			}
			if ev.Write {
				stores[head] = pendingStore{addr: ev.Addr, retire: ev.Retire}
				head = (head + 1) % len(stores)
				rec.ops = append(rec.ops, memOp{kind: pick(lock, opLockWrite, opData), write: true, addr: ev.Addr})
			}
		}
	}
}

func pick(cond bool, a, b opKind) opKind {
	if cond {
		return a
	}
	return b
}

// replay sends hierarchy calls, in order, through h.
func replay(h *cache.Hierarchy, ops []memOp) {
	for _, op := range ops {
		switch op.kind {
		case opFetch:
			h.Fetch(op.addr)
		case opData:
			h.Data(op.addr, op.write)
		case opLockRead:
			h.LockRead(op.addr)
		case opLockWrite:
			h.LockWrite(op.addr)
		}
	}
}

// runLayers is the traced run's layers phase: it replays recorded
// streams through fresh layer objects and times each layer on its own.
// Each timing is the median over o.size.layerReps repetitions.
func runLayers(o *options, p *part) error {
	var recs []*recording
	for _, k := range layerKernels {
		rec, err := record(k)
		if err != nil {
			return fmt.Errorf("record %s: %w", k, err)
		}
		recs = append(recs, rec)
	}
	reps := max(o.size.layerReps, 1)
	// perOp returns the median over reps of the time run takes per
	// operation; prepare builds fresh layer objects outside the timing.
	perOp := func(n int, prepare func() (run func())) float64 {
		if n == 0 {
			return 0
		}
		var xs []float64
		for r := 0; r < reps; r++ {
			run := prepare()
			start := time.Now()
			run()
			xs = append(xs, float64(time.Since(start).Nanoseconds())/float64(n))
		}
		return median(xs)
	}
	hc := cache.DefaultHierConfig()
	for _, m := range []struct {
		kind opKind
		name string
	}{{opData, "cache.data_ns"}, {opLockRead, "cache.lockread_ns"}, {opFetch, "cache.fetch_ns"}} {
		n := 0
		subs := make([][]memOp, len(recs))
		for i, rec := range recs {
			for _, op := range rec.ops {
				if op.kind == m.kind {
					subs[i] = append(subs[i], op)
				}
			}
			n += len(subs[i])
		}
		p.set(m.name, perOp(n, func() func() {
			hs := make([]*cache.Hierarchy, len(recs))
			for i := range hs {
				hs[i] = cache.NewHierarchy(hc)
			}
			return func() {
				for i := range recs {
					replay(hs[i], subs[i])
				}
			}
		}))
	}

	var dataAddrs []uint64
	var branches []branchOutcome
	executed := 0
	for _, rec := range recs {
		for _, op := range rec.ops {
			if op.kind == opData {
				dataAddrs = append(dataAddrs, op.addr)
			}
		}
		branches = append(branches, rec.branches...)
		executed += len(rec.pcs)
	}
	p.set("cache.tlb_lookup_ns", perOp(len(dataAddrs), func() func() {
		tlb := cache.NewTLB(hc.DTLBEntries, 4, hc.TLBWalkPenalty)
		return func() {
			for _, a := range dataAddrs {
				tlb.Lookup(a)
			}
		}
	}))
	p.set("bpred.cond_ns", perOp(len(branches), func() func() {
		bp := bpred.New(bpred.DefaultConfig())
		return func() {
			for _, b := range branches {
				bp.UpdateCond(b.pc, b.taken, bp.PredictCond(b.pc))
			}
		}
	}))

	// Crack every static instruction; serve every executed one from the
	// crack cache. Static programs are small, so each pass cracks the
	// programs many times.
	const crackPasses = 50
	static := 0
	for _, rec := range recs {
		static += len(rec.prog.Insts)
	}
	buf := make([]isa.Uop, 0, isa.MaxUopsPerInst)
	p.set("isa.crack_ns", perOp(static*crackPasses, func() func() {
		return func() {
			for pass := 0; pass < crackPasses; pass++ {
				for _, rec := range recs {
					for i := range rec.prog.Insts {
						buf = isa.Crack(&rec.prog.Insts[i], buf[:0])
					}
				}
			}
		}
	}))
	ccs := make([]*isa.CrackCache, len(recs))
	for i, rec := range recs {
		ccs[i] = isa.NewCrackCache(rec.prog.Insts)
	}
	served := 0
	p.set("isa.crackcache_ns", perOp(executed, func() func() {
		return func() {
			for i, rec := range recs {
				for _, pc := range rec.pcs {
					served += len(ccs[i].Cached(pc))
				}
			}
		}
	}))
	keep = served

	const constructions = 10
	us, bytes := construct(constructions, func() any { return cache.NewHierarchy(hc) })
	p.set("cache.new_hierarchy_us", us)
	p.set("cache.new_hierarchy_bytes", bytes)
	h := cache.NewHierarchy(hc)
	bp := bpred.New(bpred.DefaultConfig())
	us, bytes = construct(constructions, func() any { return pipeline.New(pipeline.DefaultConfig(), h, bp) })
	p.set("pipeline.new_us", us)
	p.set("pipeline.new_bytes", bytes)

	return timeSimulator(recs, reps, p)
}

// keep holds what timed code produced, so the compiler cannot drop
// the work.
var keep any

// construct times n calls of fn and returns microseconds and bytes
// allocated per call.
func construct(n int, fn func() any) (us, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		keep = fn()
	}
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	keep = nil
	return float64(d.Nanoseconds()) / 1e3 / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// timeSimulator times whole simulations of the recorded kernels three
// ways — functional baseline, functional isa and timed isa — and
// attributes the differences: the timing model's cost per µop, the
// check engine's per check, and the functional machine's per
// instruction.
func timeSimulator(recs []*recording, reps int, p *part) error {
	var baseT, funcT, timedT time.Duration
	var baseInsts, uops, checks uint64
	for _, rec := range recs {
		w, _ := workload.ByName(rec.name)
		bprog, brtEnd, err := workload.BuildProgram(w, cellRuntime(experiments.CfgBaseline), 1)
		if err != nil {
			return err
		}
		bcfg := cellConfig(experiments.CfgBaseline, nil)
		bcfg.Timing = false
		bcfg.RuntimeEnd = brtEnd
		fcfg := cellConfig(experiments.CfgISA, rec.prof)
		fcfg.Timing = false
		fcfg.RuntimeEnd = rec.rtEnd
		tcfg := cellConfig(experiments.CfgISA, rec.prof)
		tcfg.RuntimeEnd = rec.rtEnd

		d, res, err := timeRun(reps, bprog, bcfg)
		if err != nil {
			return err
		}
		baseT += d
		baseInsts += res.Insts
		d, res, err = timeRun(reps, rec.prog, fcfg)
		if err != nil {
			return err
		}
		funcT += d
		checks += res.Engine.Checks
		d, res, err = timeRun(reps, rec.prog, tcfg)
		if err != nil {
			return err
		}
		timedT += d
		uops += res.Timing.Uops
	}
	p.set("pipeline.timing_ns_per_uop", float64((timedT-funcT).Nanoseconds())/float64(uops))
	p.set("core.check_ns", float64((funcT-baseT).Nanoseconds())/float64(checks))
	p.set("machine.functional_ns_per_inst", float64(baseT.Nanoseconds())/float64(baseInsts))
	return nil
}

// timeRun returns the median duration of reps simulations.
func timeRun(reps int, prog *asm.Program, cfg sim.Config) (time.Duration, *machine.Result, error) {
	var xs []float64
	var res *machine.Result
	for r := 0; r < reps; r++ {
		start := time.Now()
		var err error
		res, err = sim.RunCtx(context.Background(), prog, cfg)
		if err != nil {
			return 0, nil, err
		}
		xs = append(xs, float64(time.Since(start)))
	}
	return time.Duration(median(xs)), res, nil
}
