// watchdog-sim simulates one program on the simulated processor under
// a chosen checking configuration and reports timing and engine
// statistics. The program is a workload (-workload, sized by -scale)
// or a WD64 assembly file (-asm, which needs a "main" function). It
// runs once under the configuration and, unless that is baseline,
// once more under baseline, and one summary reports both runs. A
// configuration that identifies pointers with ISA assistance profiles
// a workload first; an -asm program runs on its annotations alone.
//
// The summary has one format on both sources: the program and the
// configuration, then insts (macro, µops, cycles), the sampled estimate
// at sampled fidelity, the overhead over baseline, memory ops, checks,
// the program's output, and caught or abort when the run ended on
// either; -v adds µop classes and branch mispredicts.
//
// Every flag acts alike on both sources, except that -workload, -scale
// and -list, which pick or size a workload, exit 1 next to -asm.
// -disasm prints the listing and then runs; -trace, -timeline and
// -flight-log observe the configuration's run, not the baseline's. A
// memory-safety violation or runtime abort is the simulated program's
// outcome: the summary prints it (caught or abort), -flight-log dumps
// the events before it, and the exit code is 0. So does a program that
// fails under baseline, which checks nothing: the overhead line then
// says why it has no number. Exit 1 means a bad flag, a program that
// does not build, or a failed or interrupted simulation.
//
// Usage:
//
//	watchdog-sim -list
//	watchdog-sim -workload mcf -config isa -scale 2
//	watchdog-sim -workload perl -config conservative -v
//	watchdog-sim -workload mcf -disasm -trace 20                # listing, then the run, its first 20 instructions traced
//	watchdog-sim -workload mcf -config isa -timeline out.json   # open in ui.perfetto.dev
//	watchdog-sim -asm prog.wdasm -flight-log 64                 # dump last events on a violation
//
// SIGINT/SIGTERM cancel the simulation cooperatively mid-run: the
// exit code is non-zero and a -cpuprofile is still stopped and
// flushed instead of being left unusable.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"watchdog/internal/asm"
	"watchdog/internal/experiments"
	"watchdog/internal/isa"
	"watchdog/internal/machine"
	"watchdog/internal/rt"
	"watchdog/internal/sim"
	"watchdog/internal/trace"
	"watchdog/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the testable entry point: parses args, executes under ctx
// (canceled on SIGINT/SIGTERM by main), and returns the process exit
// code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("watchdog-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "mcf", "workload name (see -list)")
		cfg      = fs.String("config", "isa", "configuration: "+strings.Join(experiments.ConfigNames(), "|"))
		scale    = fs.Int("scale", 1, "problem-size multiplier")
		list     = fs.Bool("list", false, "list workloads and exit")
		verbose  = fs.Bool("v", false, "print per-class µop counts and branch mispredicts")
		disasm   = fs.Bool("disasm", false, "print the assembled program listing before the run")
		traceN   = fs.Int("trace", 0, "trace the first N executed instructions to stderr")
		timeline = fs.String("timeline", "", "write the run's Perfetto/Chrome trace-event timeline (load in ui.perfetto.dev) to this JSON path")
		flightN  = fs.Int("flight-log", 0, "keep the last N trace events in a flight recorder and dump them on a violation or runtime abort")
		asmFile  = fs.String("asm", "", "run a WD64 assembly file (expects a \"main\" function) instead of a workload")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile (go tool pprof) to this path")
		memProf  = fs.String("memprofile", "", "write an allocation profile (go tool pprof) to this path when done")
		fidelity = fs.String("fidelity", "exact", "timing fidelity: "+sim.FidelityNames("|"))
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "watchdog-sim:", err)
		return 1
	}
	if *asmFile != "" {
		// The program comes from the file, so the flags that pick or
		// size a workload have nothing to act on.
		var workloadOnly []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workload", "scale", "list":
				workloadOnly = append(workloadOnly, "-"+f.Name)
			}
		})
		if len(workloadOnly) > 0 {
			return fail(fmt.Errorf("%s cannot be used with -asm", strings.Join(workloadOnly, ", ")))
		}
	}

	// Reject a bogus scale up front: workload.BuildProgram clamps
	// non-positive scales to 1, so without this check `-scale 0` would
	// run fine while the summary reports the scale that was asked for,
	// not the one simulated.
	if *scale < 1 {
		return fail(fmt.Errorf("-scale %d: the problem-size multiplier must be >= 1", *scale))
	}
	if *traceN < 0 {
		return fail(fmt.Errorf("-trace %d: the instruction count must be >= 0", *traceN))
	}
	if *flightN < 0 || *flightN > trace.MaxFlightN {
		return fail(fmt.Errorf("-flight-log %d: the event count must be in [0, %d]", *flightN, trace.MaxFlightN))
	}
	fid, err := sim.ParseFidelity(*fidelity)
	if err != nil {
		return fail(err)
	}
	cfgName := experiments.ConfigName(*cfg)
	simCfg, err := experiments.SimConfig(cfgName)
	if err != nil {
		return fail(err)
	}
	baseCfg, err := experiments.SimConfig(experiments.CfgBaseline)
	if err != nil {
		return fail(err)
	}
	simCfg.Fidelity, baseCfg.Fidelity = fid, fid

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}

	if *list {
		for _, w := range workload.All() {
			fmt.Fprintf(stdout, "%-9s %s\n", w.Name, w.Kernel)
		}
		return 0
	}
	src, err := newSource(*asmFile, *name, *scale)
	if err != nil {
		return fail(err)
	}
	prog, rtEnd, err := src.build(rt.For(simCfg.Core))
	if err != nil {
		return fail(err)
	}
	if *disasm {
		fmt.Fprint(stdout, prog.Disasm(0, 0))
	}
	config := fmt.Sprintf("%s, fidelity %s", cfgName, fid.OrExact())
	var (
		traced, events int
		tlFile         *os.File
		tl             *trace.Perfetto
	)
	if *timeline != "" {
		if tlFile, err = os.Create(*timeline); err != nil {
			return fail(err)
		}
		tl = trace.NewPerfetto(tlFile, map[string]string{"program": src.desc, "config": config})
	}
	if *traceN > 0 || tl != nil || *flightN > 0 {
		// One sink serves all three: its ring keeps the last flightN
		// events, and its observer prints the first traceN instructions
		// and streams every event to the timeline, which keeps none.
		sink := trace.New(trace.Config{FlightN: *flightN})
		sink.SetObserver(func(ev trace.Event) {
			if ev.Kind == trace.KindInst && traced < *traceN {
				traced++
				for _, l := range prog.LabelsAt(ev.PC) {
					fmt.Fprintf(stderr, "%s:\n", l)
				}
				fmt.Fprintf(stderr, "%6d  %s\n", ev.PC, prog.Insts[ev.PC].String())
			}
			if tl != nil {
				events++
				tl.Event(ev)
			} else if traced == *traceN {
				// Nothing left to print or stream: detach, so a sink
				// without a ring stops recording.
				sink.SetObserver(nil)
			}
		})
		simCfg.Sink = sink
	}
	res, err := simulate(ctx, src, prog, rtEnd, simCfg)
	if tl != nil {
		// A failed or interrupted run leaves no timeline behind.
		if err = cmp.Or(err, tl.Close(), tlFile.Close()); err != nil {
			os.Remove(*timeline)
		}
	}
	if err != nil {
		return fail(err)
	}
	if *traceN > 0 {
		fmt.Fprintf(stderr, "-- traced %d of %d executed instructions --\n", traced, res.Insts)
	}
	if *flightN > 0 && (res.MemErr != nil || res.Aborted) {
		if err := res.Trace.DumpFlight(stderr, resolver(prog)); err != nil {
			return fail(err)
		}
	}
	if tl != nil {
		fmt.Fprintf(stderr, "watchdog-sim: wrote timeline %s (%d events)\n", *timeline, events)
	}

	base, baseErr := res, error(nil)
	if cfgName != experiments.CfgBaseline {
		baseProg, baseEnd, err := src.build(rt.For(baseCfg.Core))
		if err == nil {
			base, err = simulate(ctx, src, baseProg, baseEnd, baseCfg)
		}
		if ctx.Err() != nil {
			return fail(ctx.Err())
		}
		baseErr = err
	}

	fmt.Fprintf(stdout, "%-10s %s\n", src.kind, src.desc)
	fmt.Fprintf(stdout, "config     %s\n", config)
	fmt.Fprintf(stdout, "insts      %d macro, %d µops, %d cycles (IPC %.2f)\n",
		res.Insts, res.Timing.Uops, res.Timing.Cycles, res.Timing.IPC())
	if res.SampledInsts > 0 && res.SampledInsts < res.Insts {
		// A sampled run's raw cycle counter covers only the measured
		// windows; the extrapolation is the whole-program estimate.
		fmt.Fprintf(stdout, "sampled    %d of %d insts (%.1f%%), estimated %d cycles\n",
			res.SampledInsts, res.Insts,
			100*float64(res.SampledInsts)/float64(res.Insts), res.EstimatedCycles())
	}
	switch {
	case baseErr != nil:
		fmt.Fprintf(stdout, "overhead   unknown: under baseline, %v\n", baseErr)
	case base != res:
		ratio := experiments.Overhead(res.EstimatedCycles(), base.EstimatedCycles())
		fmt.Fprintf(stdout, "overhead   %.1f%% over baseline (%d cycles)\n", (ratio-1)*100, base.EstimatedCycles())
	}
	fmt.Fprintf(stdout, "mem ops    %d checked, %d classified as pointer ops (%.1f%%)\n",
		res.Engine.MemAccesses, res.Engine.PtrOps,
		100*float64(res.Engine.PtrOps)/float64(max(res.Engine.MemAccesses, 1)))
	fmt.Fprintf(stdout, "checks     %d injected\n", res.Engine.Checks)
	fmt.Fprintf(stdout, "output     %v %q\n", res.Output, res.Text)
	switch {
	case res.MemErr != nil:
		fmt.Fprintf(stdout, "caught     %v\n", res.MemErr)
	case res.Aborted:
		fmt.Fprintf(stdout, "abort      runtime code %d\n", res.AbortCode)
	}
	if *verbose {
		fmt.Fprintf(stdout, "µop classes:\n")
		for m := isa.MetaClass(0); m < isa.NumMetaClasses; m++ {
			fmt.Fprintf(stdout, "  %-9s %d\n", m, res.Timing.UopsByMeta[m])
		}
		fmt.Fprintf(stdout, "mispredicts %d\n", res.Timing.Mispredicts)
	}
	return 0
}

// source is the program to simulate: a workload at a scale, or an
// assembly file. build makes it under one runtime variant, so the
// configuration's run and the baseline's each get their own.
type source struct {
	kind, desc string // the summary's first line: "workload", "mcf (…), scale 1"
	build      func(rt.Options) (*asm.Program, int, error)
	// profiled is false for an -asm program, which runs on its
	// annotations alone: the profiling pass cannot run a program that
	// violates safety.
	profiled bool
}

// newSource picks the assembly file at path, or else the named
// workload at scale.
func newSource(path, name string, scale int) (source, error) {
	if path != "" {
		text, err := os.ReadFile(path)
		if err != nil {
			return source{}, err
		}
		return source{kind: "asm", desc: path, build: func(opts rt.Options) (*asm.Program, int, error) {
			b := rt.NewBuild(opts)
			if err := asm.Parse(b.B, string(text)); err != nil {
				return nil, 0, err
			}
			prog, err := b.Finish()
			return prog, b.RuntimeEnd(), err
		}}, nil
	}
	w, ok := workload.ByName(name)
	if !ok {
		return source{}, fmt.Errorf("unknown workload %q (try -list)", name)
	}
	return source{
		kind: "workload",
		desc: fmt.Sprintf("%s (%s), scale %d", w.Name, w.Kernel, scale),
		build: func(opts rt.Options) (*asm.Program, int, error) {
			return workload.BuildProgram(w, opts, scale)
		},
		profiled: true,
	}, nil
}

// simulate runs prog, which src built under rt.For(cfg.Core) with its
// runtime ending at rtEnd, under cfg. A workload is profiled first
// when the engine identifies pointers from a profile.
func simulate(ctx context.Context, src source, prog *asm.Program, rtEnd int, cfg sim.Config) (*machine.Result, error) {
	cfg.RuntimeEnd = rtEnd
	if src.profiled && experiments.NeedsProfile(cfg.Core) {
		p, err := experiments.Profile(ctx, prog, rt.For(cfg.Core), rtEnd)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		cfg.Core.Profile = p
	}
	return sim.RunCtx(ctx, prog, cfg)
}

// resolver renders the macro instruction at a pc for flight-log lines.
func resolver(prog *asm.Program) func(pc int) string {
	return func(pc int) string {
		if pc < 0 || pc >= len(prog.Insts) {
			return fmt.Sprintf("pc?%d", pc)
		}
		return prog.Insts[pc].String()
	}
}
