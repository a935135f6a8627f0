// watchdog-sim runs a single workload on the simulated processor under
// a chosen checking configuration and reports timing and engine
// statistics.
//
// Usage:
//
//	watchdog-sim -list
//	watchdog-sim -workload mcf -config isa -scale 2
//	watchdog-sim -workload perl -config conservative -v
//	watchdog-sim -workload mcf -config isa -timeline out.json   # open in ui.perfetto.dev
//	watchdog-sim -asm prog.wd -flight-log 64                    # dump last events on a violation
//
// SIGINT/SIGTERM cancel the simulation cooperatively mid-run: the
// exit code is non-zero and a -cpuprofile is still stopped and
// flushed instead of being left unusable.
package main

import (
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
	"watchdog/internal/core"
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
		verbose  = fs.Bool("v", false, "print per-class µop counts and program output")
		disasm   = fs.Bool("disasm", false, "print the assembled program listing (combines with -trace)")
		traceN   = fs.Int("trace", 0, "trace the first N executed instructions to stderr")
		timeline = fs.String("timeline", "", "write the run's Perfetto/Chrome trace-event timeline (load in ui.perfetto.dev) to this JSON path")
		flightN  = fs.Int("flight-log", 0, "keep the last N trace events in a flight recorder and dump them on a violation or runtime abort")
		asmFile  = fs.String("asm", "", "run a WD64 assembly file (expects a \"main\" function) instead of a workload")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile (go tool pprof) to this path")
		memProf  = fs.String("memprofile", "", "write an allocation profile (go tool pprof) to this path when done")
		fidelity = fs.String("fidelity", "exact", "timing fidelity: "+sim.FidelityNames("|"))
		sampFF   = fs.Uint64("sample-ff", 0, "sampled fidelity: fast-forward instructions per period (0 = paper default)")
		sampWU   = fs.Uint64("sample-warmup", 0, "sampled fidelity: warmup instructions per period (0 = paper default)")
		sampWin  = fs.Uint64("sample", 0, "sampled fidelity: measured instructions per period (0 = paper default)")
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
	// run fine while the banner below reports the scale that was asked
	// for, not the one simulated.
	if *scale < 1 {
		return fail(fmt.Errorf("-scale %d: the problem-size multiplier must be >= 1", *scale))
	}
	if *flightN < 0 {
		return fail(fmt.Errorf("-flight-log %d: the event count must be >= 0", *flightN))
	}
	fid, err := sim.ParseFidelity(*fidelity)
	if err != nil {
		return fail(err)
	}
	sampling, err := sim.SamplingOverride(fid, *sampFF, *sampWU, *sampWin)
	if err != nil {
		return fail(err)
	}
	// Both paths below simulate the configuration's own config, so an
	// unknown name is refused before anything runs.
	simCfg, err := experiments.SimConfig(experiments.ConfigName(*cfg))
	if err != nil {
		return fail(err)
	}

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

	if *asmFile != "" {
		simCfg.Fidelity = fid
		simCfg.Sampling = sampling
		if err := runAsmFile(ctx, *asmFile, *cfg, simCfg, *disasm, *verbose, *traceN, *timeline, *flightN, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}

	if *list {
		for _, w := range workload.All() {
			fmt.Fprintf(stdout, "%-9s %s\n", w.Name, w.Kernel)
		}
		return 0
	}
	if *disasm || *traceN > 0 {
		// -disasm and -trace combine: the listing prints first, then
		// the traced functional run.
		if err := inspect(ctx, *name, *scale, simCfg.Core, *disasm, *traceN, stdout, stderr); err != nil {
			return fail(err)
		}
		if *disasm && *traceN == 0 {
			return 0
		}
	}

	w, ok := workload.ByName(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q (try -list)", *name))
	}
	r, err := experiments.NewRunner(*scale, w.Name)
	if err != nil {
		return fail(err)
	}
	// The signal context rides the runner: a SIGINT mid-simulation
	// cancels cooperatively inside machine.Run, the error path below
	// returns non-zero, and the profile defers still flush.
	r.Ctx = ctx
	r.Fidelity = fid
	r.Sampling = sampling
	if *timeline != "" || *flightN > 0 {
		r.Trace = &trace.Config{Timeline: *timeline != "", FlightN: *flightN}
	}
	res, err := r.Run(w, experiments.ConfigName(*cfg))
	// The baseline comparison run below needs no trace attached.
	r.Trace = nil
	if err != nil {
		return fail(err)
	}
	if *timeline != "" {
		labels := map[string]string{
			"workload": w.Name,
			"config":   *cfg,
			"scale":    fmt.Sprint(*scale),
		}
		if err := trace.WritePerfettoFile(*timeline, res.Trace, labels); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "watchdog-sim: wrote timeline %s (%d events)\n",
			*timeline, len(res.Trace.Events()))
	}

	fmt.Fprintf(stdout, "workload   %s (%s)\n", w.Name, w.Kernel)
	fmt.Fprintf(stdout, "config     %s, scale %d, fidelity %s\n", *cfg, *scale, fid.OrExact())
	fmt.Fprintf(stdout, "insts      %d macro, %d µops\n", res.Insts, res.Timing.Uops)
	fmt.Fprintf(stdout, "cycles     %d (IPC %.2f)\n", res.Timing.Cycles, res.Timing.IPC())
	if res.SampledInsts > 0 && res.SampledInsts < res.Insts {
		// A sampled run's raw cycle counter covers only the measured
		// windows; the extrapolation is the whole-program estimate.
		fmt.Fprintf(stdout, "sampled    %d of %d insts (%.1f%%), estimated %d cycles\n",
			res.SampledInsts, res.Insts,
			100*float64(res.SampledInsts)/float64(res.Insts), res.EstimatedCycles())
	}
	if base, err := r.Run(w, experiments.CfgBaseline); err == nil && *cfg != "baseline" {
		ratio := float64(res.EstimatedCycles()) / float64(base.EstimatedCycles())
		fmt.Fprintf(stdout, "overhead   %.1f%% over baseline (%d cycles)\n", (ratio-1)*100, base.EstimatedCycles())
	}
	fmt.Fprintf(stdout, "mem ops    %d checked, %d classified as pointer ops (%.1f%%)\n",
		res.Engine.MemAccesses, res.Engine.PtrOps,
		100*float64(res.Engine.PtrOps)/float64(max(res.Engine.MemAccesses, 1)))
	fmt.Fprintf(stdout, "checks     %d injected\n", res.Engine.Checks)
	if *verbose {
		printUopClasses(stdout, res)
		fmt.Fprintf(stdout, "output      %v\n", res.Output)
	}
	return 0
}

// printUopClasses prints the -v detail of a timed run: µops by class
// and branch mispredicts.
func printUopClasses(w io.Writer, res *machine.Result) {
	fmt.Fprintf(w, "µop classes:\n")
	for m := isa.MetaClass(0); m < isa.NumMetaClasses; m++ {
		fmt.Fprintf(w, "  %-9s %d\n", m, res.Timing.UopsByMeta[m])
	}
	fmt.Fprintf(w, "mispredicts %d\n", res.Timing.Mispredicts)
}

// runAsmFile assembles and runs a WD64 text program on top of the
// simulated runtime under the configuration's own config, at the
// fidelity simCfg names; disasm prints the listing first, and verbose
// the µop classes after the summary. There is no profiling pass (it
// cannot run a program that violates safety), so ISA-assisted
// configurations identify pointers from the program's annotations
// alone.
func runAsmFile(ctx context.Context, path, cfgName string, simCfg sim.Config, disasm, verbose bool, traceN int, timeline string, flightN int, stdout, stderr io.Writer) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	build := rt.NewBuild(rt.For(simCfg.Core))
	if err := asm.Parse(build.B, string(src)); err != nil {
		return err
	}
	prog, err := build.Finish()
	if err != nil {
		return err
	}
	if disasm {
		fmt.Fprint(stdout, prog.Disasm(0, 0))
	}
	simCfg.RuntimeEnd = build.RuntimeEnd()
	if traceN > 0 {
		simCfg.TraceBudget = uint64(traceN)
		simCfg.Trace = traceFn(prog, stderr)
	}
	if timeline != "" || flightN > 0 {
		simCfg.Sink = trace.New(trace.Config{Timeline: timeline != "", FlightN: flightN})
	}
	res, err := sim.RunCtx(ctx, prog, simCfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "insts   %d macro, %d µops, %d cycles (IPC %.2f)\n",
		res.Insts, res.Timing.Uops, res.Timing.Cycles, res.Timing.IPC())
	if res.SampledInsts > 0 && res.SampledInsts < res.Insts {
		// As in the workload summary: the raw cycle counter covers only
		// the measured windows.
		fmt.Fprintf(stdout, "sampled %d of %d insts (%.1f%%), estimated %d cycles\n",
			res.SampledInsts, res.Insts,
			100*float64(res.SampledInsts)/float64(res.Insts), res.EstimatedCycles())
	}
	fmt.Fprintf(stdout, "output  %v %q\n", res.Output, res.Text)
	switch {
	case res.MemErr != nil:
		fmt.Fprintf(stdout, "caught  %v\n", res.MemErr)
	case res.Aborted:
		fmt.Fprintf(stdout, "abort   runtime code %d\n", res.AbortCode)
	}
	if verbose {
		printUopClasses(stdout, res)
	}
	if flightN > 0 && (res.MemErr != nil || res.Aborted) {
		if err := res.Trace.DumpFlight(stderr, resolver(prog)); err != nil {
			return err
		}
	}
	if timeline != "" {
		if err := trace.WritePerfettoFile(timeline, res.Trace, map[string]string{"asm": path, "config": cfgName}); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "watchdog-sim: wrote timeline %s (%d events)\n",
			timeline, len(res.Trace.Events()))
	}
	return nil
}

// inspect prints a disassembly and/or traces execution of the
// workload under the configuration's engine (functional run).
func inspect(ctx context.Context, name string, scale int, cc core.Config, disasm bool, traceN int, stdout, stderr io.Writer) error {
	w, ok := workload.ByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	prog, rtEnd, err := workload.BuildProgram(w, rt.For(cc), scale)
	if err != nil {
		return err
	}
	if disasm {
		fmt.Fprint(stdout, prog.Disasm(0, 0))
	}
	if traceN <= 0 {
		return nil
	}
	cfg := sim.Config{Core: cc, RuntimeEnd: rtEnd}
	// The budget lives in the sink, so once the first traceN
	// instructions have printed the observer is detached instead of
	// being re-entered (and skipped) for every remaining instruction.
	cfg.TraceBudget = uint64(traceN)
	cfg.Trace = traceFn(prog, stderr)
	res, err := sim.RunCtx(ctx, prog, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "-- traced %d of %d executed instructions --\n",
		res.Trace.InstObserved(), res.Insts)
	return nil
}

// traceFn renders one macro instruction per line, with labels.
func traceFn(prog *asm.Program, w io.Writer) func(pc int, in *isa.Inst) {
	return func(pc int, in *isa.Inst) {
		for _, l := range prog.LabelsAt(pc) {
			fmt.Fprintf(w, "%s:\n", l)
		}
		fmt.Fprintf(w, "%6d  %s\n", pc, in.String())
	}
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
