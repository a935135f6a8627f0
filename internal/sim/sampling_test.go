package sim

import (
	"context"
	"math"
	"testing"

	"watchdog/internal/asm"
	"watchdog/internal/core"
	"watchdog/internal/isa"
	"watchdog/internal/machine"
	"watchdog/internal/rt"
	"watchdog/internal/workload"
)

// TestSamplingApproximatesFullSimulation: the extrapolated cycle count
// from periodic sampling must land near the fully simulated count on a
// steady-state kernel.
func TestSamplingApproximatesFullSimulation(t *testing.T) {
	w, _ := workload.ByName("hmmer")
	prog, rtEnd, err := workload.BuildProgram(w, rt.Options{Policy: core.PolicyWatchdog}, 2)
	if err != nil {
		t.Fatal(err)
	}
	full := Default()
	full.RuntimeEnd = rtEnd
	fres, err := Run(prog, full)
	if err != nil || fres.MemErr != nil {
		t.Fatalf("full run: %v %v", err, fres.MemErr)
	}

	sampled := Default()
	sampled.RuntimeEnd = rtEnd
	sampled.Fidelity = FidelitySampled
	sres, err := runCtx(context.Background(), prog, sampled, machine.Sampling{FastForward: 40_000, Warmup: 5_000, Sample: 5_000})
	if err != nil || sres.MemErr != nil {
		t.Fatalf("sampled run: %v %v", err, sres.MemErr)
	}
	if sres.SampledInsts == 0 {
		t.Fatal("no sample windows measured")
	}
	if sres.SampledInsts >= sres.Insts/2 {
		t.Fatalf("sampling measured %d of %d insts — not actually sampling", sres.SampledInsts, sres.Insts)
	}
	est := sres.EstimatedCycles()
	ratio := float64(est) / float64(fres.Timing.Cycles)
	if math.Abs(ratio-1) > 0.30 {
		t.Fatalf("sampled estimate %d vs full %d (ratio %.2f) outside 30%%", est, fres.Timing.Cycles, ratio)
	}
	// Checksums unaffected by sampling (functional execution is exact).
	if len(sres.Output) != len(fres.Output) || sres.Output[0] != fres.Output[0] {
		t.Fatalf("sampling changed program output: %v vs %v", sres.Output, fres.Output)
	}
}

// TestSamplingFastForwardPastProgramEnd: a fast-forward period longer
// than the whole program must not mean nothing is ever measured — the
// offset start opens the first period at its warmup, so the run still
// measures its initial sample window and extrapolates from it, and
// the functional checksum stays exact.
func TestSamplingFastForwardPastProgramEnd(t *testing.T) {
	w, _ := workload.ByName("hmmer")
	prog, rtEnd, err := workload.BuildProgram(w, rt.Options{Policy: core.PolicyWatchdog}, 1)
	if err != nil {
		t.Fatal(err)
	}
	full := Default()
	full.RuntimeEnd = rtEnd
	fres, err := Run(prog, full)
	if err != nil || fres.MemErr != nil {
		t.Fatalf("full run: %v %v", err, fres.MemErr)
	}

	cfg := Default()
	cfg.RuntimeEnd = rtEnd
	cfg.Fidelity = FidelitySampled
	res, err := runCtx(context.Background(), prog, cfg, machine.Sampling{FastForward: 1 << 40, Warmup: 1_000, Sample: 1_000})
	if err != nil || res.MemErr != nil {
		t.Fatalf("sampled run: %v %v", err, res.MemErr)
	}
	if res.SampledInsts != 1_000 {
		t.Fatalf("short-program run sampled %d insts, want the initial 1000-inst window",
			res.SampledInsts)
	}
	if res.SampledCycles <= 0 {
		t.Fatalf("initial window measured %d cycles", res.SampledCycles)
	}
	if got := res.EstimatedCycles(); got <= 0 {
		t.Fatalf("EstimatedCycles = %d, want a positive extrapolation", got)
	}
	// Functional execution is exact regardless of the timing gating.
	if len(res.Output) != len(fres.Output) || res.Output[0] != fres.Output[0] {
		t.Fatalf("fast-forward changed program output: %v vs %v", res.Output, fres.Output)
	}
	if res.Insts != fres.Insts {
		t.Fatalf("instruction count differs: %d vs %d", res.Insts, fres.Insts)
	}
}

// TestSamplingZeroFastForward: FastForward 0 (with zero warmup) starts
// measuring immediately and must cover essentially the whole program,
// so the extrapolation lands on the measured cycle count.
func TestSamplingZeroFastForward(t *testing.T) {
	w, _ := workload.ByName("hmmer")
	prog, rtEnd, err := workload.BuildProgram(w, rt.Options{Policy: core.PolicyWatchdog}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.RuntimeEnd = rtEnd
	cfg.Fidelity = FidelitySampled
	res, err := runCtx(context.Background(), prog, cfg, machine.Sampling{FastForward: 0, Warmup: 0, Sample: 10_000})
	if err != nil || res.MemErr != nil {
		t.Fatalf("run: %v %v", err, res.MemErr)
	}
	if res.SampledInsts == 0 {
		t.Fatal("no instructions measured with sampling on from the start")
	}
	// Each period loses two instructions to the (empty) fast-forward
	// and warmup phase transitions, so coverage is near-total, not exact.
	if float64(res.SampledInsts) < 0.99*float64(res.Insts) {
		t.Fatalf("measured only %d of %d instructions with zero fast-forward",
			res.SampledInsts, res.Insts)
	}
	ratio := float64(res.EstimatedCycles()) / float64(res.Timing.Cycles)
	if math.Abs(ratio-1) > 0.05 {
		t.Fatalf("whole-program sample estimate %d vs measured %d (ratio %.3f)",
			res.EstimatedCycles(), res.Timing.Cycles, ratio)
	}
}

// TestSamplingStillDetectsViolations: detection is functional, so a
// violation inside a fast-forward window is still caught.
func TestSamplingStillDetectsViolations(t *testing.T) {
	r := rt.NewBuild(rt.Options{Policy: core.PolicyWatchdog})
	b := r.B
	b.Label("main")
	// Burn instructions so the bug lands in a fast-forward phase.
	b.Movi(isa.R5, 50_000)
	b.Label("burn")
	b.Subi(isa.R5, isa.R5, 1)
	b.Brnz(isa.R5, "burn")
	b.Movi(isa.R1, 32)
	b.Call("malloc")
	b.Mov(isa.R4, isa.R1)
	b.Call("free")
	b.Ld(isa.R3, asm.Mem(isa.R4, 0, 8)) // dangling
	b.Ret()
	prog, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.RuntimeEnd = r.RuntimeEnd()
	cfg.Fidelity = FidelitySampled
	res, err := runCtx(context.Background(), prog, cfg, machine.Sampling{FastForward: 1_000_000, Warmup: 1000, Sample: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemErr == nil || res.MemErr.Kind != core.ErrUseAfterFree {
		t.Fatalf("violation missed under sampling: %v", res.MemErr)
	}
}
