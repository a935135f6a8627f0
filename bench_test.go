package watchdog

import "testing"

// The benchmarks below regenerate every table and figure of the
// paper's evaluation over all twenty workloads and report the headline
// number of each as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole of Section 9. Expect a few seconds per figure.

// benchScale enlarges the kernels beyond the unit-test sizes.
const benchScale = 2

func newBenchRunner(b *testing.B) *BenchRunner {
	b.Helper()
	r, err := NewBenchRunner(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// sweepPair reports the geomean overhead of two configurations as
// metrics on the benchmark.
func sweepMetrics(b *testing.B, r *BenchRunner, names ...ConfigName) {
	b.Helper()
	for _, n := range names {
		_, geo, err := r.Sweep(n)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(geo, string(n)+"-%ovh")
	}
}

// BenchmarkTable1 regenerates Table 1: the scheme comparison (location
// vs software identifier-based vs Watchdog).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newBenchRunner(b)
		if _, err := r.Table1(); err != nil {
			b.Fatal(err)
		}
		sweepMetrics(b, r, CfgLocation, CfgSoftware, CfgConservative)
	}
}

// BenchmarkFig5 regenerates Figure 5: fraction of memory accesses
// classified as pointer operations.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newBenchRunner(b)
		tab, err := r.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		_ = tab.String()
	}
}

// BenchmarkFig7 regenerates Figure 7: runtime overhead, conservative
// vs ISA-assisted identification (paper: 25% / 15%).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newBenchRunner(b)
		if _, err := r.Fig7(); err != nil {
			b.Fatal(err)
		}
		sweepMetrics(b, r, CfgConservative, CfgISA)
	}
}

// BenchmarkFig8 regenerates Figure 8: the µop overhead breakdown
// (paper: 44% extra µops on average, checks dominating).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newBenchRunner(b)
		if _, err := r.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9 regenerates Figure 9: the lock location cache
// (paper: 15% with it, 24% without).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newBenchRunner(b)
		if _, err := r.Fig9(); err != nil {
			b.Fatal(err)
		}
		sweepMetrics(b, r, CfgISA, CfgISANoLock)
	}
}

// BenchmarkFig10 regenerates Figure 10: memory overhead in words and
// pages (paper: 32% / 56%).
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newBenchRunner(b)
		if _, err := r.Fig10(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11 regenerates Figure 11: full memory safety via bounds
// checking, fused vs separate µop (paper: 18% / 24%).
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newBenchRunner(b)
		if _, err := r.Fig11(); err != nil {
			b.Fatal(err)
		}
		sweepMetrics(b, r, CfgISA, CfgBounds1, CfgBounds2)
	}
}

// BenchmarkIdealShadow regenerates the Section 9.3 study: idealized
// shadow accesses isolate the cache-pressure component (paper:
// 15% -> 11%).
func BenchmarkIdealShadow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newBenchRunner(b)
		if _, err := r.Ideal(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations measures the design-choice studies: rename copy
// elimination and monolithic vs decoupled register metadata.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newBenchRunner(b)
		if _, err := r.Ablations(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJuliet runs the Section 9.2 security suite (291 bad cases
// plus good twins) and reports the detection rate.
func BenchmarkJuliet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := RunSecuritySuite()
		if s.BadDetected != s.BadTotal || s.GoodClean != s.GoodTotal {
			b.Fatalf("suite regression: %s", s)
		}
		b.ReportMetric(float64(s.BadDetected), "detected")
		b.ReportMetric(float64(s.GoodTotal-s.GoodClean), "false-pos")
	}
}

// BenchmarkSimThroughput measures raw simulator speed (µops simulated
// per second) on the mcf pointer chaser — a harness health metric, not
// a paper figure.
func BenchmarkSimThroughput(b *testing.B) {
	var uops uint64
	for i := 0; i < b.N; i++ {
		r, err := NewBenchRunner(benchScale, "mcf")
		if err != nil {
			b.Fatal(err)
		}
		res, err := r.Run(r.Workloads[0], CfgISA)
		if err != nil {
			b.Fatal(err)
		}
		uops += res.Timing.Uops
	}
	b.ReportMetric(float64(uops)/b.Elapsed().Seconds(), "µops/s")
}
