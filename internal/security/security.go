// Package security generates and runs the use-after-free security
// suite modeled after the NIST Juliet test cases the paper evaluates
// (Section 9.2: 291 test cases for CWE-416 use-after-free and CWE-562
// return of stack variable address, all detected with no false
// positives).
//
// Each case is an independent WD64 program following Juliet's
// structure: a "bad" function containing the vulnerability reached
// through one of several control-flow variants, paired with a "good"
// twin performing the same computation safely (the false-positive
// check). The CWE-416 cases combine dereference kinds with allocation
// contexts — including reallocation of the freed block, the case
// location-based checkers fundamentally miss — and the CWE-562 cases
// combine pointer-publication kinds (return value, global, heap slot)
// with dereference kinds and flows.
package security

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"watchdog/internal/asm"
	"watchdog/internal/core"
	"watchdog/internal/machine"
	"watchdog/internal/report"
	"watchdog/internal/rt"
	"watchdog/internal/sim"
	"watchdog/internal/stats"
	"watchdog/internal/trace"
)

// Case is one generated test program.
type Case struct {
	ID      string
	CWE     int
	Variant string
	// Bad marks the vulnerable twin (detection expected).
	Bad bool
	// Build emits the body of main plus any helper functions.
	Build func(b *asm.Builder, uid string)
	// Expect, when non-nil, overrides the built-in per-policy
	// expectation for this case: policy name -> whether that policy is
	// expected to detect the violation. Annotation-driven .wdasm cases
	// carry their expectations here; generated cases rely on the
	// ExpectedDetected matrix.
	Expect map[string]bool
}

// Suite returns all cases: exactly 291 bad cases (matching the
// paper's count) plus their good twins. The cases are built once per
// process; each call returns a copy the caller may change.
func Suite() []Case { return slices.Clone(suiteCases()) }

// suite is the case table Suite copies, built on first use rather than
// at package init, so a process that never runs the suite never pays
// for it.
var suite struct {
	once  sync.Once
	cases []Case
}

// suiteCases returns the shared case table; callers must not modify
// it.
func suiteCases() []Case {
	suite.once.Do(func() { suite.cases = buildSuite() })
	return suite.cases
}

// suiteSize is the number of cases the CWE-416 and CWE-562 tables
// generate (TestSuiteCount).
const suiteSize = 2 * (192 + 99)

// buildSuite constructs the suite's cases.
func buildSuite() []Case {
	return append562(append416(make([]Case, 0, suiteSize)))
}

// Outcome is the result of running one case.
type Outcome struct {
	Case     Case
	Detected bool
	Kind     core.ErrorKind
	// Clean reports the program completed without any violation or
	// runtime abort.
	Clean bool
	// Err is a machine-level failure (a bug in the case itself).
	Err error
}

// Pass reports whether the outcome matches the expectation: bad cases
// must be detected, good cases must run clean.
func (o Outcome) Pass() bool {
	if o.Err != nil {
		return false
	}
	if o.Case.Bad {
		return o.Detected
	}
	return o.Clean
}

// RunCaseCtx executes one case functionally under the given
// configuration. The simulated machine polls ctx mid-run, so a
// deadline or signal interrupts even a single long case.
func RunCaseCtx(ctx context.Context, c Case, cfg core.Config, opts rt.Options) Outcome {
	return runCaseSink(ctx, c, cfg, opts, nil)
}

// RunCaseTraced executes one case, without cancellation, with a trace
// sink attached (flight recorder and/or timeline per tc); the sink
// that observed the run is returned alongside the outcome so callers
// can dump or export it.
func RunCaseTraced(c Case, cfg core.Config, opts rt.Options, tc trace.Config) (Outcome, *trace.Sink) {
	sink := trace.New(tc)
	return runCaseSink(context.Background(), c, cfg, opts, sink), sink
}

func runCaseSink(ctx context.Context, c Case, cfg core.Config, opts rt.Options, sink *trace.Sink) Outcome {
	r := rt.NewBuild(opts)
	r.B.Label("main")
	c.Build(r.B, c.ID)
	prog, err := r.Finish()
	if err != nil {
		return Outcome{Case: c, Err: fmt.Errorf("assemble: %w", err)}
	}
	res, err := sim.RunCtx(ctx, prog, sim.Config{Core: cfg, RuntimeEnd: r.RuntimeEnd(), InstLimit: 2_000_000, Sink: sink})
	if err != nil {
		return Outcome{Case: c, Err: err}
	}
	return outcomeOf(c, res)
}

// policies is watchdog-juliet's -policy vocabulary, which the
// experiments' comparator configurations and the benchmark's referee
// share, in presentation order: each name and the engine configuration
// it runs under.
var policies = []struct {
	name string
	cfg  core.Config
}{
	{"watchdog", core.DefaultConfig()},
	{"conservative", withPtrPolicy(core.DefaultConfig(), core.PtrConservative)},
	{"location", core.Config{Policy: core.PolicyLocation}},
	{"software", core.Config{Policy: core.PolicySoftware, PtrPolicy: core.PtrConservative}},
	{"xtag", core.Config{Policy: core.PolicyXTag, PtrPolicy: core.PtrConservative, TagBits: core.DefaultTagBits}},
	{"dangkiller", core.Config{Policy: core.PolicyDangKiller, PtrPolicy: core.PtrConservative}},
}

func withPtrPolicy(cfg core.Config, p core.PtrPolicy) core.Config {
	cfg.PtrPolicy = p
	return cfg
}

// PolicyConfig maps a policy name to the engine configuration and
// runtime options it runs under. The runtime follows from the engine
// configuration (rt.For).
func PolicyConfig(name string) (core.Config, rt.Options, error) {
	for _, p := range policies {
		if p.name == name {
			return p.cfg, rt.For(p.cfg), nil
		}
	}
	return core.Config{}, rt.Options{}, fmt.Errorf("unknown policy %q (known: %s)", name, strings.Join(Policies(), ", "))
}

// SetTagBits applies a requested xTag tag width to cfg: 0 keeps
// PolicyConfig's default (core.DefaultTagBits), 1..8 replaces it, and
// any other width, or any width on a policy other than xtag, is an
// error. Afterwards cfg.TagBits is the width that runs (0 off xtag),
// so requests that differ only by an explicit default agree on it.
func SetTagBits(cfg *core.Config, bits int) error {
	switch {
	case bits == 0:
		return nil
	case bits < 1 || bits > 8:
		return fmt.Errorf("tag width %d out of range 1..8", bits)
	case cfg.Policy != core.PolicyXTag:
		return fmt.Errorf("a tag width only applies to the xtag policy")
	}
	cfg.TagBits = bits
	return nil
}

// Policies lists the -policy vocabulary in presentation order.
func Policies() []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.name
	}
	return names
}

// ExpectedDetected reports whether the named policy is expected to
// flag the bad case c — the comparative ground truth of the policy
// family. Watchdog, its conservative variant, the software scheme and
// dangkiller share the full lock-and-key oracle and detect everything.
// The location-based checker misses a use-after-free once the freed
// block has been reallocated (realloc-same-size, and realloc-twice
// whose first reallocation claims the block) and cannot see stack
// lifetimes at all. xTag tags the heap only, so it misses CWE-562; the
// Juliet allocation sequences never alias modulo the default 8-bit
// tag, so its CWE-416 coverage is complete here. Case annotations
// (Case.Expect) override the matrix.
func ExpectedDetected(policy string, c Case) bool {
	if v, ok := c.Expect[policy]; ok {
		return v
	}
	switch policy {
	case "location":
		if c.CWE == 562 {
			return false
		}
		if c.CWE == 416 && (strings.Contains(c.Variant, "realloc-same-size") ||
			strings.Contains(c.Variant, "realloc-twice")) {
			return false
		}
		return true
	case "xtag":
		return c.CWE != 562
	}
	return true
}

// Mismatch is one deviation from the per-policy expectations.
type Mismatch struct {
	Outcome Outcome
	// Expected reports whether detection was expected.
	Expected bool
}

// Mismatches compares outcomes (indexed like cases) against the
// per-policy expectations: good cases must run clean under every
// policy, bad cases must be detected exactly when the policy's
// expectation says so. Cases that never ran (interrupted fan-out) are
// skipped. This — not the ideal-coverage Failures list — is what gates
// the watchdog-juliet exit code for every policy.
func Mismatches(policy string, cases []Case, outs []Outcome) []Mismatch {
	var ms []Mismatch
	for i, c := range cases {
		o := outs[i]
		if !ran(o) {
			continue
		}
		want := c.Bad && ExpectedDetected(policy, c)
		if o.Err != nil || o.Detected != want {
			ms = append(ms, Mismatch{Outcome: o, Expected: want})
		}
	}
	return ms
}

// ran reports whether an outcome slot holds a run to completion: a
// canceled fan-out leaves the slots of cases it never claimed zero,
// and those of cases it interrupted mid-simulation carrying the
// context's error.
func ran(o Outcome) bool {
	return o.Case.ID != "" && !sim.Canceled(o.Err)
}

func outcomeOf(c Case, res *machine.Result) Outcome {
	o := Outcome{Case: c}
	if res.MemErr != nil {
		o.Detected = true
		o.Kind = res.MemErr.Kind
		return o
	}
	if res.Aborted {
		// A runtime abort (e.g. double free caught by free()) counts
		// as detection for bad cases and as a failure for good ones.
		o.Detected = true
		return o
	}
	o.Clean = true
	return o
}

// Summary aggregates a suite run.
type Summary struct {
	BadTotal      int
	BadDetected   int
	GoodTotal     int
	GoodClean     int
	Failures      []Outcome
	ByCWEDetected map[int]int
	ByCWETotal    map[int]int
}

// RunCasesCtx executes every case over jobs workers (<= 0 means
// GOMAXPROCS) and returns the outcomes indexed like cases, so the
// order — and a Summarize over them, Failures list included — is the
// same at any jobs. Each case is an independent program on its own
// simulated machine. A non-nil t records each executed case as one
// simulation (the harness -stats counters); a non-nil onDone is
// invoked once per completed case, from whichever worker finished it,
// so it must be safe for concurrent use. Workers stop claiming new
// cases once ctx fires (and the case already simulating is
// interrupted mid-run); slots for cases that never ran are left zero
// (Case.ID empty) so callers can summarize the completed subset — see
// SummarizeRan. The returned error is ctx.Err() when the run was cut
// short, nil otherwise.
func RunCasesCtx(ctx context.Context, cases []Case, cfg core.Config, opts rt.Options, jobs int, t *stats.Timing, onDone func()) ([]Outcome, error) {
	outs := make([]Outcome, len(cases))
	err := stats.ParallelDo(ctx, jobs, len(cases), func(i int) error {
		var start time.Time
		if t != nil {
			start = time.Now()
		}
		outs[i] = RunCaseCtx(ctx, cases[i], cfg, opts)
		if t != nil {
			t.AddSim(time.Since(start))
		}
		if onDone != nil {
			onDone()
		}
		return nil
	})
	return outs, err
}

// ReportRecord converts the summary to the report-schema security
// record (the `juliet` block of a -json document).
func (s Summary) ReportRecord(policy string) report.Juliet {
	return report.Juliet{
		Policy:        policy,
		BadTotal:      s.BadTotal,
		BadDetected:   s.BadDetected,
		GoodTotal:     s.GoodTotal,
		GoodClean:     s.GoodClean,
		ByCWEDetected: s.ByCWEDetected,
		ByCWETotal:    s.ByCWETotal,
	}
}

// SummarizeRan aggregates like Summarize but skips cases that never
// ran or were interrupted mid-simulation (a canceled fan-out leaves
// their outcome slot zero or carrying a context error) — the partial
// summary an interrupted run flushes covers exactly the cases that
// finished, instead of misreporting unclaimed cases as failures.
func SummarizeRan(cases []Case, outs []Outcome) Summary {
	ranCases := make([]Case, 0, len(cases))
	ranOuts := make([]Outcome, 0, len(outs))
	for i, c := range cases {
		if ran(outs[i]) {
			ranCases = append(ranCases, c)
			ranOuts = append(ranOuts, outs[i])
		}
	}
	return Summarize(ranCases, ranOuts)
}

// Summarize aggregates outcomes (indexed like cases) into a Summary.
func Summarize(cases []Case, outs []Outcome) Summary {
	s := Summary{ByCWEDetected: map[int]int{}, ByCWETotal: map[int]int{}}
	for i, c := range cases {
		o := outs[i]
		if c.Bad {
			s.BadTotal++
			s.ByCWETotal[c.CWE]++
			if o.Detected {
				s.BadDetected++
				s.ByCWEDetected[c.CWE]++
			}
		} else {
			s.GoodTotal++
			if o.Clean {
				s.GoodClean++
			}
		}
		if !o.Pass() {
			s.Failures = append(s.Failures, o)
		}
	}
	return s
}

// Table lists the counts String prints, one row per case set: its
// cases, and how many of them were flagged (detected for bad cases,
// false positives for good ones).
func (s Summary) Table() *stats.Table {
	t := stats.NewTable("Section 9.2: security evaluation", "cases", "total", "flagged")
	t.Row("bad", s.BadTotal, s.BadDetected)
	t.Row("bad CWE-416", s.ByCWETotal[416], s.ByCWEDetected[416])
	t.Row("bad CWE-562", s.ByCWETotal[562], s.ByCWEDetected[562])
	t.Row("good", s.GoodTotal, s.GoodTotal-s.GoodClean)
	return t
}

// String renders the summary in the shape of the paper's Section 9.2
// claim.
func (s Summary) String() string {
	return fmt.Sprintf(
		"use-after-free suite: detected %d/%d bad cases (CWE-416: %d/%d, CWE-562: %d/%d); "+
			"false positives: %d/%d good cases",
		s.BadDetected, s.BadTotal,
		s.ByCWEDetected[416], s.ByCWETotal[416],
		s.ByCWEDetected[562], s.ByCWETotal[562],
		s.GoodTotal-s.GoodClean, s.GoodTotal)
}
