package machine

import (
	"context"
	"testing"

	"watchdog/internal/asm"
	"watchdog/internal/bpred"
	"watchdog/internal/cache"
	"watchdog/internal/core"
	"watchdog/internal/isa"
	"watchdog/internal/mem"
	"watchdog/internal/pipeline"
)

// TestSamplingZeroPeriodPanics pins the liveness invariant: an
// all-zero period could never bucket an instruction and the run would
// spin forever, so SetSampling must refuse it loudly.
func TestSamplingZeroPeriodPanics(t *testing.T) {
	m := timedMachine(t, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("SetSampling accepted an empty period")
		}
	}()
	m.SetSampling(Sampling{})
}

// timedMachine builds a machine with the full timing stack over a
// deterministic bounded workload that exercises checked loads/stores,
// calls and branches (the same shape the zero-alloc test uses, but
// halting).
func timedMachine(t *testing.T, iters int64) *Machine {
	t.Helper()
	b := asm.NewBuilder()
	b.Label("_start")
	b.Movi(isa.R1, 0)
	b.Movi(isa.R4, iters)
	b.Label("loop")
	b.Push(isa.R1)
	b.LdP(isa.R2, asm.Mem(isa.SP, 0, 8))
	b.StP(asm.Mem(isa.SP, 0, 8), isa.R2)
	b.Pop(isa.R1)
	b.Call("fn")
	b.Addi(isa.R1, isa.R1, 1)
	b.Subi(isa.R4, isa.R4, 1)
	b.Brnz(isa.R4, "loop")
	b.Halt()
	b.Label("fn")
	b.Push(isa.R3)
	b.Pop(isa.R3)
	b.Ret()
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	memory := mem.New()
	eng := core.NewEngine(core.DefaultConfig(), memory)
	hc := cache.DefaultHierConfig()
	hc.LockCacheEnabled = true
	bp := bpred.New(bpred.DefaultConfig())
	model := pipeline.New(pipeline.DefaultConfig(), cache.NewHierarchy(hc), bp)
	m := New(prog, memory, eng, model, bp)
	m.Load()
	return m
}

// TestSamplingHundredPercentMatchesExact is the boundary-bugfix pin: a
// 100%-sampled run ({FastForward: 0, Warmup: 0}) must reproduce the
// exact run's cycle count bit-for-bit. Before the fix, the phase
// machine transitioned after bucketing the crossing instruction, so
// each sample window was offset by one instruction and the sampled
// totals drifted from the exact run even at 100% coverage.
func TestSamplingHundredPercentMatchesExact(t *testing.T) {
	exact := timedMachine(t, 2000)
	res, err := exact.Run()
	if err != nil {
		t.Fatalf("exact run: %v", err)
	}

	sampled := timedMachine(t, 2000)
	sampled.SetSampling(Sampling{FastForward: 0, Warmup: 0, Sample: 100})
	sres, err := sampled.Run()
	if err != nil {
		t.Fatalf("sampled run: %v", err)
	}

	if sres.Insts != res.Insts {
		t.Fatalf("instruction counts diverged: sampled %d vs exact %d", sres.Insts, res.Insts)
	}
	if sres.SampledInsts != res.Insts {
		t.Errorf("100%%-sampled run measured %d of %d instructions", sres.SampledInsts, res.Insts)
	}
	if sres.SampledCycles != res.Timing.Cycles {
		t.Errorf("100%%-sampled cycles %d != exact cycles %d", sres.SampledCycles, res.Timing.Cycles)
	}
	if sres.SampledUops != res.Timing.Uops {
		t.Errorf("100%%-sampled µops %d != exact µops %d", sres.SampledUops, res.Timing.Uops)
	}
	if got := sres.EstimatedCycles(); got != res.Timing.Cycles {
		t.Errorf("extrapolated cycles %d != exact cycles %d", got, res.Timing.Cycles)
	}
}

// TestSamplingBoundaryBucketsExactlyOnce checks the phase arithmetic
// against first principles with prime, non-dividing phase lengths:
// every instruction lands in exactly one phase, so the number of
// measured instructions is computable in closed form from the total.
// The first period is offset to start at its warmup, so the closed
// form treats the run as warmup+sample followed by full rotations.
func TestSamplingBoundaryBucketsExactlyOnce(t *testing.T) {
	cfg := Sampling{FastForward: 97, Warmup: 31, Sample: 41}
	m := timedMachine(t, 2000)
	m.SetSampling(cfg)
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	period := cfg.Period()
	var want uint64
	first := cfg.Warmup + cfg.Sample
	if res.Insts <= first {
		if res.Insts > cfg.Warmup {
			want = res.Insts - cfg.Warmup
		}
	} else {
		want = cfg.Sample
		rest := res.Insts - first
		want += (rest / period) * cfg.Sample
		if rem := rest % period; rem > cfg.FastForward+cfg.Warmup {
			want += rem - (cfg.FastForward + cfg.Warmup)
		}
	}
	if res.SampledInsts != want {
		t.Fatalf("sampled %d instructions of %d, want exactly %d (period %d)",
			res.SampledInsts, res.Insts, want, period)
	}
}

// TestSamplingOffsetStartMeasuresShortPrograms: a program shorter than
// one full period must still measure a window — the first period opens
// at its warmup, not its fast-forward. Before the offset start, such a
// run reported zero cycles at the sampled fidelity.
func TestSamplingOffsetStartMeasuresShortPrograms(t *testing.T) {
	m := timedMachine(t, 100) // ~800 macro insts, far below the period
	m.SetSampling(Sampling{FastForward: 1 << 40, Warmup: 50, Sample: 100})
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.SampledInsts != 100 {
		t.Fatalf("short program sampled %d insts, want the full 100-inst window", res.SampledInsts)
	}
	if res.SampledCycles <= 0 {
		t.Fatalf("sampled window measured %d cycles", res.SampledCycles)
	}
	if est := res.EstimatedCycles(); est <= 0 {
		t.Fatalf("EstimatedCycles = %d, want a positive extrapolation", est)
	}
}

// TestSamplingZeroSampleWindowFallsBack: the machine accepts a
// zero-length sample window (only an empty period is refused). Such a
// run must still complete correctly, and
// EstimatedCycles must fall back to the directly measured cycle count
// instead of dividing by zero.
func TestSamplingZeroSampleWindowFallsBack(t *testing.T) {
	m := timedMachine(t, 2000)
	m.SetSampling(Sampling{FastForward: 1_000, Warmup: 100, Sample: 0})
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.SampledInsts != 0 {
		t.Fatalf("zero-length windows measured %d instructions", res.SampledInsts)
	}
	if got := res.EstimatedCycles(); got != res.Timing.Cycles {
		t.Fatalf("EstimatedCycles with no samples = %d, want the measured %d", got, res.Timing.Cycles)
	}
}

// TestRunCanceledMidFastForwardPartial: cancellation landing inside a
// fast-forward phase must not masquerade as a completed measurement —
// the result carries Partial and the stats of the moment the run
// stopped. With the offset start the first warmup+sample window (20
// insts) completes before the first cancellation poll at 8192, so the
// folded sample survives; only the Partial flag says it is not a
// whole-program estimate.
func TestRunCanceledMidFastForwardPartial(t *testing.T) {
	m := timedMachine(t, 1_000_000)
	// Fast-forward far longer than the first cancellation poll, so the
	// cancel deterministically lands mid-fast-forward.
	m.SetSampling(Sampling{FastForward: 1 << 40, Warmup: 10, Sample: 10})
	ctx, cancel := context.WithCancel(context.Background())
	m.SetContext(ctx)
	cancel()
	res, err := m.Run()
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	if !res.Partial {
		t.Error("canceled run not marked Partial")
	}
	if res.SampledInsts != 10 {
		t.Errorf("mid-fast-forward cancel folded %d sampled insts, want the completed 10-inst window",
			res.SampledInsts)
	}
	if res.SampledCycles <= 0 {
		t.Errorf("completed sample window measured %d cycles", res.SampledCycles)
	}

	// A run that completes stays non-partial.
	m2 := timedMachine(t, 100)
	m2.SetSampling(Sampling{FastForward: 50, Warmup: 10, Sample: 10})
	res2, err := m2.Run()
	if err != nil {
		t.Fatalf("complete run: %v", err)
	}
	if res2.Partial {
		t.Error("completed run marked Partial")
	}
}

// TestStepZeroAllocSampledFastForward: the sampled fidelity's inner
// fast-forward loop — functional execution plus cache warming — must
// stay allocation-free, like the exact path TestStepZeroAlloc pins.
func TestStepZeroAllocSampledFastForward(t *testing.T) {
	m := timedMachine(t, 1<<40)
	m.SetSampling(Sampling{FastForward: 1 << 40, Warmup: 1, Sample: 1})
	for i := 0; i < 20000; i++ {
		if err := m.step(); err != nil {
			t.Fatalf("warmup step: %v", err)
		}
	}
	if m.halted {
		t.Fatalf("machine halted during warmup (MemErr=%v)", m.res.MemErr)
	}
	avg := testing.AllocsPerRun(2000, func() {
		if err := m.step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	})
	if avg != 0 {
		t.Fatalf("sampled fast-forward step allocates %.2f objects/op, want 0", avg)
	}
}
