package security

import (
	"context"
	"testing"

	"watchdog/internal/core"
	"watchdog/internal/rt"
	"watchdog/internal/stats"
)

// runCases runs every case through RunCasesCtx, uncancelled and
// untimed.
func runCases(t *testing.T, cases []Case, cfg core.Config, opts rt.Options, jobs int) []Outcome {
	t.Helper()
	outs, err := RunCasesCtx(context.Background(), cases, cfg, opts, jobs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// runSuite is runCases summarized.
func runSuite(t *testing.T, cases []Case, cfg core.Config, opts rt.Options, jobs int) Summary {
	t.Helper()
	return Summarize(cases, runCases(t, cases, cfg, opts, jobs))
}

// TestRunCasesCtxTiming: each executed case records exactly one sim
// into the timing counters, serially and in parallel, and a nil Timing
// is accepted.
func TestRunCasesCtxTiming(t *testing.T) {
	cases := Suite()[:8]
	cfg := core.DefaultConfig()
	opts := rt.Options{Policy: core.PolicyWatchdog}
	for _, jobs := range []int{1, 4} {
		var tm stats.Timing
		outs, err := RunCasesCtx(context.Background(), cases, cfg, opts, jobs, &tm, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != len(cases) {
			t.Fatalf("jobs=%d: %d outcomes, want %d", jobs, len(outs), len(cases))
		}
		if got := tm.Sims(); got != uint64(len(cases)) {
			t.Fatalf("jobs=%d: Sims() = %d, want %d", jobs, got, len(cases))
		}
		if tm.BusyTime() <= 0 {
			t.Fatalf("jobs=%d: no busy time recorded", jobs)
		}
	}
	if outs := runCases(t, cases, cfg, opts, 2); len(outs) != len(cases) {
		t.Fatal("nil timing must be accepted")
	}
}

// TestReportRecord: the summary converts to the JSON-schema record.
func TestReportRecord(t *testing.T) {
	s := Summary{BadTotal: 291, BadDetected: 290, GoodTotal: 291, GoodClean: 291,
		ByCWEDetected: map[int]int{416: 191}, ByCWETotal: map[int]int{416: 192}}
	j := s.ReportRecord("watchdog")
	if j.Policy != "watchdog" || j.BadTotal != 291 || j.BadDetected != 290 ||
		j.GoodClean != 291 || j.ByCWEDetected[416] != 191 || j.ByCWETotal[416] != 192 {
		t.Fatalf("record mismatch: %+v", j)
	}
}

// sameSummary compares every field except the Outcome.Case closures
// (func values are not comparable).
func sameSummary(t *testing.T, serial, parallel Summary) {
	t.Helper()
	if serial.BadTotal != parallel.BadTotal || serial.BadDetected != parallel.BadDetected ||
		serial.GoodTotal != parallel.GoodTotal || serial.GoodClean != parallel.GoodClean {
		t.Fatalf("counts differ: serial %+v vs parallel %+v", serial, parallel)
	}
	for _, cwe := range []int{416, 562} {
		if serial.ByCWEDetected[cwe] != parallel.ByCWEDetected[cwe] ||
			serial.ByCWETotal[cwe] != parallel.ByCWETotal[cwe] {
			t.Fatalf("CWE-%d counts differ: serial %d/%d vs parallel %d/%d", cwe,
				serial.ByCWEDetected[cwe], serial.ByCWETotal[cwe],
				parallel.ByCWEDetected[cwe], parallel.ByCWETotal[cwe])
		}
	}
	if len(serial.Failures) != len(parallel.Failures) {
		t.Fatalf("failure counts differ: %d vs %d", len(serial.Failures), len(parallel.Failures))
	}
	for i := range serial.Failures {
		if serial.Failures[i].Case.ID != parallel.Failures[i].Case.ID {
			t.Fatalf("failure %d differs: %s vs %s (order must be case order, not completion order)",
				i, serial.Failures[i].Case.ID, parallel.Failures[i].Case.ID)
		}
	}
	if serial.String() != parallel.String() {
		t.Fatalf("summaries render differently:\n%s\n%s", serial, parallel)
	}
}

// TestParallelSuiteMatchesSerial: the parallel suite must aggregate to
// the exact serial summary under Watchdog (no failures)...
func TestParallelSuiteMatchesSerial(t *testing.T) {
	cases := Suite()
	cfg := core.DefaultConfig()
	opts := rt.Options{Policy: core.PolicyWatchdog}
	sameSummary(t, runSuite(t, cases, cfg, opts, 1), runSuite(t, cases, cfg, opts, 8))
}

// ...and under the location policy, which fails many cases — proving
// the Failures list keeps deterministic case order regardless of
// which worker finishes first.
func TestParallelFailureOrderDeterministic(t *testing.T) {
	cases := Suite()
	cfg := core.Config{Policy: core.PolicyLocation}
	opts := rt.Options{Policy: core.PolicyLocation}
	serial := runSuite(t, cases, cfg, opts, 1)
	if len(serial.Failures) == 0 {
		t.Fatal("location policy should fail some cases; the ordering test needs failures")
	}
	sameSummary(t, serial, runSuite(t, cases, cfg, opts, 8))
	sameSummary(t, serial, runSuite(t, cases, cfg, opts, 3))
}
