// Package sim wires the subsystems into runnable simulations: it
// builds the memory, engine, hierarchy, predictor and pipeline from a
// single Config, runs programs, and implements the two-pass profiling
// methodology for ISA-assisted pointer identification (Section 5.2).
package sim

import (
	"context"

	"watchdog/internal/asm"
	"watchdog/internal/bpred"
	"watchdog/internal/cache"
	"watchdog/internal/core"
	"watchdog/internal/isa"
	"watchdog/internal/machine"
	"watchdog/internal/mem"
	"watchdog/internal/pipeline"
	"watchdog/internal/trace"
)

// Config configures a simulation run.
type Config struct {
	Core     core.Config
	Pipeline pipeline.Config
	Hier     cache.HierConfig
	// Timing attaches the out-of-order timing model; functional-only
	// runs (profiling) leave it off.
	Timing bool
	// IdealShadow idealizes shadow-space metadata accesses (the
	// Section 9.3 cache-pressure isolation study).
	IdealShadow bool
	// Monolithic enables the monolithic register data/metadata
	// strawman of Section 6.1 (ablation).
	Monolithic bool
	// RuntimeEnd marks the end of runtime-library code (checking
	// exemption for the software/location policies).
	RuntimeEnd int
	// InstLimit overrides the default macro-instruction limit.
	InstLimit uint64
	// Trace, when set, observes every executed macro instruction. It
	// rides the trace sink's instruction-event stream (an adapter sink
	// is created when Sink is nil), so -trace and the richer trace
	// features share one entry point into the hot path.
	Trace func(pc int, in *isa.Inst)
	// TraceBudget bounds how many instructions Trace observes (0 =
	// unlimited). Once spent, the observer short-circuits.
	TraceBudget uint64
	// Sink, when set, records per-µop lifecycle, check-outcome and
	// shadow-traffic events (timeline export, flight recorder).
	Sink *trace.Sink
	// Sampling, when non-nil, overrides the sampled fidelity's default
	// periodic-sampling parameters (Section 9.1). It is an error at any
	// other fidelity.
	Sampling *machine.Sampling
	// Fidelity selects the timing methodology (exact when empty; see
	// the Fidelity type). Functional-only runs ignore it.
	Fidelity Fidelity
}

// Default returns the paper's primary configuration with timing.
func Default() Config {
	return Config{
		Core:     core.DefaultConfig(),
		Pipeline: pipeline.DefaultConfig(),
		Hier:     cache.DefaultHierConfig(),
		Timing:   true,
	}
}

// Run executes the program under the configuration.
func Run(prog *asm.Program, cfg Config) (*machine.Result, error) {
	return RunCtx(context.Background(), prog, cfg)
}

// RunCtx is Run with cooperative cancellation: the machine polls
// ctx.Done() every machine.CancelCheckInterval macro instructions, so
// deadlines and SIGINT/SIGTERM land mid-simulation instead of only
// between runs. A background (uncancellable) context leaves the hot
// loop untouched — same results, same allocations.
func RunCtx(ctx context.Context, prog *asm.Program, cfg Config) (*machine.Result, error) {
	memory := mem.New()
	// The hierarchy must agree with the engine about the lock cache.
	hier := cfg.Hier
	hier.LockCacheEnabled = cfg.Core.LockCache
	eng := core.NewEngine(cfg.Core, memory)
	eng.SetUncheckedBelow(cfg.RuntimeEnd)

	var model *pipeline.Model
	var bp *bpred.Predictor
	if cfg.Timing {
		if err := cfg.Pipeline.Validate(); err != nil {
			return nil, err
		}
		if err := hier.Validate(); err != nil {
			return nil, err
		}
		bp = bpred.New(bpred.DefaultConfig())
		model = pipeline.New(cfg.Pipeline, cache.NewHierarchy(hier), bp)
		model.IdealShadow = cfg.IdealShadow
		model.Monolithic = cfg.Monolithic
	}
	m := machine.New(prog, memory, eng, model, bp)
	sink := cfg.Sink
	if cfg.Trace != nil {
		if sink == nil {
			// Adapter-only sink: no timeline, no ring — just the
			// instruction observer stream.
			sink = trace.New(trace.Config{InstBudget: cfg.TraceBudget})
		}
		tr := cfg.Trace
		sink.SetInstObserver(func(ev trace.Event) {
			tr(ev.PC, &prog.Insts[ev.PC])
		})
	}
	if sink != nil {
		m.SetSink(sink)
		if model != nil {
			model.SetSink(sink)
		}
	}
	if err := applyFidelity(m, &cfg); err != nil {
		return nil, err
	}
	if cfg.InstLimit != 0 {
		m.InstLimit = cfg.InstLimit
	}
	m.SetContext(ctx)
	m.Load()
	return m.Run()
}

// Profile performs the functional profiling pass of Section 5.2: a run
// with conservative identification that records every static memory
// instruction observed to load or store valid pointer metadata. The
// returned profile drives ISA-assisted classification of unannotated
// instructions in subsequent runs.
func Profile(prog *asm.Program, base core.Config, runtimeEnd int) (*core.Profile, error) {
	return ProfileCtx(context.Background(), prog, base, runtimeEnd)
}

// ProfileCtx is Profile with cooperative cancellation (see RunCtx).
func ProfileCtx(ctx context.Context, prog *asm.Program, base core.Config, runtimeEnd int) (*core.Profile, error) {
	p := core.NewProfile()
	cfg := Config{
		Core:       base,
		RuntimeEnd: runtimeEnd,
	}
	cfg.Core.Policy = core.PolicyWatchdog
	cfg.Core.PtrPolicy = core.PtrConservative
	cfg.Core.Profiling = true
	cfg.Core.Profile = p
	res, err := RunCtx(ctx, prog, cfg)
	if err != nil {
		return nil, err
	}
	if res.MemErr != nil {
		return nil, res.MemErr
	}
	return p, nil
}
