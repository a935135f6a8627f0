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

// DefaultSampling is the sampled fidelity's one period: the paper's
// 480M fast-forward, 10M warmup and 10M sample instructions (Section
// 9.1), each divided by 10,000. The synthetic kernels run ~10^5 fewer
// instructions than SPEC reference inputs, so the deep scale-down is
// what preserves the paper's statistical regime of many windows per
// run: at a 50k-instruction period a bench-scale workload still
// crosses dozens of sample windows, where the naive 1000x (500k
// period) left one or two — and a measured geomean-overhead drift of
// several points instead of under one. No run can choose another
// period, so a sampled cell is a function of its (workload,
// configuration, scale, fidelity) key alone.
func DefaultSampling() machine.Sampling {
	return machine.Sampling{FastForward: 48_000, Warmup: 1_000, Sample: 1_000}
}

// applyFidelity validates the fidelity and, at the sampled fidelity,
// arms the machine's sampler with period. Functional-only runs (no
// timing model) skip the arming: there is no timing to approximate,
// and the functional semantics are identical at every fidelity by
// construction.
func applyFidelity(m *machine.Machine, cfg *Config, period machine.Sampling) error {
	f, err := ParseFidelity(string(cfg.Fidelity))
	if err != nil {
		return err
	}
	if f == FidelitySampled && cfg.Timing {
		m.SetSampling(period)
	}
	return nil
}
