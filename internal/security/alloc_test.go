package security

import (
	"context"
	"testing"
)

// Allocation ceilings for building and running the suite, beside
// machine.TestStepZeroAlloc. Rerun the numbers behind them with
//
//	go test ./internal/security -run '^$' -bench 'Suite|JulietCase' -benchmem

var casesSink []Case

// TestSuiteAllocs: constructing the suite stays within 2,000
// allocations, and Suite after the first call makes one (its copy).
// AllocsPerRun discards its first run, so the constructor is called
// directly rather than through Suite's first call.
func TestSuiteAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(5, func() { casesSink = buildSuite() }); n > 2000 {
		t.Errorf("building the suite makes %.0f allocations, want at most 2000", n)
	}
	if n := testing.AllocsPerRun(5, func() { casesSink = Suite() }); n > 1 {
		t.Errorf("Suite() makes %.0f allocations after the first call, want at most 1", n)
	}
}

// TestJulietCaseAllocs: building and running a watchdog case, round
// robin over the suite, averages at most 50 allocations.
func TestJulietCaseAllocs(t *testing.T) {
	cases := Suite()
	cfg, opts, err := PolicyConfig("watchdog")
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	n := testing.AllocsPerRun(len(cases), func() {
		if o := RunCaseCtx(context.Background(), cases[i%len(cases)], cfg, opts); !o.Pass() {
			t.Fatalf("%s: detected=%v clean=%v err=%v", o.Case.ID, o.Detected, o.Clean, o.Err)
		}
		i++
	})
	if n > 50 {
		t.Errorf("a Juliet case makes %.1f allocations, want at most 50", n)
	}
}

// BenchmarkSuite measures the suite's constructor (build) and Suite
// once the table exists (copy).
func BenchmarkSuite(b *testing.B) {
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			casesSink = buildSuite()
		}
	})
	b.Run("copy", func(b *testing.B) {
		Suite()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			casesSink = Suite()
		}
	})
}

// BenchmarkJulietCase builds and runs one watchdog case per operation,
// round robin over the suite.
func BenchmarkJulietCase(b *testing.B) {
	cases := Suite()
	cfg, opts, err := PolicyConfig("watchdog")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	RunCaseCtx(ctx, cases[0], cfg, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if o := RunCaseCtx(ctx, cases[i%len(cases)], cfg, opts); !o.Pass() {
			b.Fatalf("%s: detected=%v clean=%v err=%v", o.Case.ID, o.Detected, o.Clean, o.Err)
		}
	}
}
