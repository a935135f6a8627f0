package machine

import (
	"math"

	"watchdog/internal/pipeline"
)

// Sampling implements the paper's simulation methodology (Section
// 9.1): periodic sampling, where each measured sample is preceded by a
// functional fast-forward (no timing model) and a timing warmup whose
// cycles are discarded. The paper used 2% sampling with 10M-instruction
// samples preceded by 480M fast-forward and 10M warmup per period.
//
// During fast-forward the machine still executes the Watchdog engine's
// functional semantics (metadata propagation, checks), so detection
// remains exact; only the microarchitectural timing is skipped. The
// branch predictor trains on every branch regardless of phase, and the
// machine warms the cache hierarchy during fast-forward (functional
// warming), so the timing-visible microarchitectural state is
// architecturally current when a warmup window opens.
//
// Phase boundaries are exact: every macro instruction is bucketed in
// exactly one phase, a phase with quota N receives exactly N
// instructions, and a sample window measures the cycles of exactly its
// own instructions. Zero-length phases are skipped without consuming
// an instruction, so e.g. {FastForward: 0, Warmup: 0, Sample: N}
// measures every instruction and reproduces the exact run's cycle
// count bit-for-bit.
//
// The first period starts at its warmup phase rather than its
// fast-forward (an offset start, in the spirit of SMARTS' randomized
// sampling offset): a run begins warmup -> sample and only then falls
// into the steady fast-forward -> warmup -> sample rotation. This
// guarantees that any program longer than Warmup measures at least
// one window, so a program shorter than a full period still produces
// a cycle estimate instead of silently measuring nothing.
type Sampling struct {
	FastForward uint64 // instructions per period with timing off
	Warmup      uint64 // instructions with timing on, cycles discarded
	Sample      uint64 // instructions with timing on, cycles measured
}

// Period returns the total instructions per sampling period.
func (s Sampling) Period() uint64 { return s.FastForward + s.Warmup + s.Sample }

// zeroPeriodInvariant names the sampler's liveness invariant: at least
// one phase must be non-empty or the phase machine could never assign
// the current instruction to a bucket.
const zeroPeriodInvariant = "sampling invariant violated: FastForward+Warmup+Sample == 0 (empty period, sampler cannot advance)"

type samplePhase int

const (
	phaseFastForward samplePhase = iota
	phaseWarmup
	phaseSample
)

// sampler tracks the machine's position in the sampling period.
type sampler struct {
	cfg        Sampling
	phase      samplePhase
	phaseInsts uint64

	startCycles   int64
	sampledCycles int64
	sampledInsts  uint64
	sampledUops   uint64
	startUops     uint64
}

// timingOn reports whether the timing model should be fed.
func (s *sampler) timingOn() bool { return s.phase != phaseFastForward }

// quota returns the current phase's instruction budget.
func (s *sampler) quota() uint64 {
	switch s.phase {
	case phaseFastForward:
		return s.cfg.FastForward
	case phaseWarmup:
		return s.cfg.Warmup
	}
	return s.cfg.Sample
}

// sampleTick advances the phase machine by one macro instruction. The
// machine calls it at the top of step, before the timing decision for
// the instruction, so the tick first retires any phase that has
// already received its full quota (skipping zero-length phases
// entirely) and then buckets the current instruction in the phase
// that results. Transition bookkeeping therefore happens between
// instructions: the cycle snapshot taken on entering the sample phase
// excludes the last warmup instruction and includes the first sample
// instruction, and the fold on leaving it counts exactly the sample's
// own instructions — the boundary instruction lands in one bucket,
// never two, never zero.
func (m *Machine) sampleTick() {
	s := m.sampler
	for s.phaseInsts >= s.quota() {
		s.advancePhase(m.model)
	}
	s.phaseInsts++
}

// advancePhase moves to the next phase, folding or snapshotting the
// model's cycle counter at the two measurement edges.
func (s *sampler) advancePhase(model *pipeline.Model) {
	switch s.phase {
	case phaseFastForward:
		s.phase = phaseWarmup
	case phaseWarmup:
		s.phase = phaseSample
		if model != nil {
			s.startCycles = model.Cycles()
			s.startUops = model.Uops()
		}
	case phaseSample:
		if model != nil {
			s.sampledCycles += model.Cycles() - s.startCycles
			s.sampledUops += model.Uops() - s.startUops
		}
		s.sampledInsts += s.phaseInsts
		s.phase = phaseFastForward
	}
	s.phaseInsts = 0
}

// closeSampling folds a partially measured sample at program end.
func (m *Machine) closeSampling() {
	s := m.sampler
	if s == nil {
		return
	}
	if s.phase == phaseSample && s.phaseInsts > 0 && m.model != nil {
		s.sampledCycles += m.model.Cycles() - s.startCycles
		s.sampledUops += m.model.Uops() - s.startUops
		s.sampledInsts += s.phaseInsts
		s.phaseInsts = 0
		s.phase = phaseFastForward
	}
	m.res.SampledCycles = s.sampledCycles
	m.res.SampledInsts = s.sampledInsts
	m.res.SampledUops = s.sampledUops
}

// SetSampling enables periodic sampling; call before Run. It panics if
// the period is empty (see zeroPeriodInvariant) — such a sampler could
// never bucket an instruction and the run would spin forever.
func (m *Machine) SetSampling(cfg Sampling) {
	if cfg.Period() == 0 {
		panic("machine.SetSampling: " + zeroPeriodInvariant)
	}
	// Offset start: the first period opens at its warmup so short
	// programs still reach a sample window (see the Sampling comment).
	m.sampler = &sampler{cfg: cfg, phase: phaseWarmup}
}

// EstimatedCycles extrapolates whole-program cycles from the sampled
// windows (CPI of the samples applied to the full instruction count).
// Full coverage short-circuits: a 100%-sampled run returns the
// measured count exactly, with no float round-trip.
func (r *Result) EstimatedCycles() int64 {
	if r.SampledInsts == 0 {
		return r.Timing.Cycles
	}
	if r.SampledInsts >= r.Insts {
		return r.SampledCycles
	}
	cpi := float64(r.SampledCycles) / float64(r.SampledInsts)
	return int64(math.Round(cpi * float64(r.Insts)))
}
