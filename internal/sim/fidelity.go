package sim

import (
	"fmt"
	"strings"

	"watchdog/internal/machine"
)

// Fidelity selects the timing methodology of a run. It is a first-
// class simulation dimension: results of different fidelities are
// labeled as such in reports and are never compared against each
// other silently.
//
//   - exact: every µop is fed to the pipeline model (the default; all
//     golden figures are produced at this fidelity).
//   - sampled: the paper's Section 9.1 periodic sampling — functional
//     fast-forward with cache/predictor warming, timing warmup, then a
//     measured sample window; whole-program cycles are extrapolated
//     from the samples' CPI.
//
// Fidelity only affects timing. Functional execution — and therefore
// violation detection — is identical at every fidelity.
type Fidelity string

const (
	FidelityExact   Fidelity = "exact"
	FidelitySampled Fidelity = "sampled"
)

// Fidelities lists the valid values, exact (the reference the
// fidelity-drift experiment measures against) first. CLI help strings
// and the unknown-fidelity error are built from it (FidelityNames).
var Fidelities = []Fidelity{FidelityExact, FidelitySampled}

// FidelityNames joins the valid fidelities with sep: "|" for a flag's
// help string, ", " for prose.
func FidelityNames(sep string) string {
	names := make([]string, len(Fidelities))
	for i, f := range Fidelities {
		names[i] = string(f)
	}
	return strings.Join(names, sep)
}

// ParseFidelity parses a CLI/wire fidelity string. The empty string is
// exact, so old clients and zero values keep their meaning.
func ParseFidelity(s string) (Fidelity, error) {
	if s == "" {
		return FidelityExact, nil
	}
	for _, f := range Fidelities {
		if Fidelity(s) == f {
			return f, nil
		}
	}
	return "", fmt.Errorf("sim: unknown fidelity %q (want one of: %s)", s, FidelityNames(", "))
}

// OrExact normalizes the zero value to FidelityExact.
func (f Fidelity) OrExact() Fidelity {
	if f == "" {
		return FidelityExact
	}
	return f
}

// DefaultSampling is the sampling configuration used when a sampled
// run does not specify one: the paper's 480M/10M/10M parameters scaled
// 10000x down (48k fast-forward, 1k warmup, 1k sample). The synthetic
// kernels run ~10^5 fewer instructions than SPEC reference inputs, so
// the deep scale-down is what preserves the paper's statistical
// regime of many windows per run: at a 50k-instruction period a
// bench-scale workload still crosses dozens of sample windows, where
// the naive 1000x (500k period) left one or two — and a measured
// geomean-overhead drift of several points instead of under one.
func DefaultSampling() machine.Sampling { return machine.PaperSampling(10000) }

// SamplingOverride builds a sampled run's parameter override from CLI
// flags: unset (zero) values keep the paper defaults, a nil result
// means no override at all, and any override on a non-sampled fidelity
// is rejected rather than silently ignored.
func SamplingOverride(fid Fidelity, ff, warmup, sample uint64) (*machine.Sampling, error) {
	if ff == 0 && warmup == 0 && sample == 0 {
		return nil, nil
	}
	if fid.OrExact() != FidelitySampled {
		return nil, fmt.Errorf("sampling overrides only apply to the sampled fidelity (got %s)", fid.OrExact())
	}
	s := DefaultSampling()
	if ff != 0 {
		s.FastForward = ff
	}
	if warmup != 0 {
		s.Warmup = warmup
	}
	if sample != 0 {
		s.Sample = sample
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// applyFidelity validates the fidelity/sampling combination and arms
// the machine. Fidelity alone selects the method: a Sampling config at
// any fidelity but sampled is an error, as SamplingOverride treats it.
// Functional-only runs (no timing model) skip the arming: there is no
// timing to approximate, and the functional semantics are identical at
// every fidelity by construction.
func applyFidelity(m *machine.Machine, cfg *Config) error {
	f, err := ParseFidelity(string(cfg.Fidelity))
	if err != nil {
		return err
	}
	if f != FidelitySampled {
		if cfg.Sampling != nil {
			return fmt.Errorf("sim: a Sampling config only applies to the %s fidelity (got %s)", FidelitySampled, f)
		}
		return nil
	}
	if !cfg.Timing {
		return nil
	}
	s := DefaultSampling()
	if cfg.Sampling != nil {
		s = *cfg.Sampling
	}
	if err := s.Validate(); err != nil {
		return fmt.Errorf("sim: fidelity %s: %w", f, err)
	}
	m.SetSampling(s)
	return nil
}
