package stats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPromGolden pins the exposition document byte-for-byte: metric
// ordering follows first use, HELP/TYPE headers appear exactly once
// per family, and histogram series carry cumulative le buckets with a
// trailing +Inf.
func TestPromGolden(t *testing.T) {
	h := NewHistogram(0.001, 0.01, 0.1)
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(2 * time.Second)

	var p PromWriter
	p.Counter("watchdog_requests_total", "Requests served.", []Label{{"endpoint", "sim"}}, 42)
	p.Counter("watchdog_requests_total", "Requests served.", []Label{{"endpoint", "juliet"}}, 7)
	p.Gauge("watchdog_inflight", "Computations executing now.", nil, 3)
	p.Histogram("watchdog_request_duration_seconds", "Request latency.",
		[]Label{{"endpoint", "sim"}}, h.Snapshot())

	const want = `# HELP watchdog_requests_total Requests served.
# TYPE watchdog_requests_total counter
watchdog_requests_total{endpoint="sim"} 42
watchdog_requests_total{endpoint="juliet"} 7
# HELP watchdog_inflight Computations executing now.
# TYPE watchdog_inflight gauge
watchdog_inflight 3
# HELP watchdog_request_duration_seconds Request latency.
# TYPE watchdog_request_duration_seconds histogram
watchdog_request_duration_seconds_bucket{endpoint="sim",le="0.001"} 1
watchdog_request_duration_seconds_bucket{endpoint="sim",le="0.01"} 3
watchdog_request_duration_seconds_bucket{endpoint="sim",le="0.1"} 3
watchdog_request_duration_seconds_bucket{endpoint="sim",le="+Inf"} 4
watchdog_request_duration_seconds_sum{endpoint="sim"} 2.0105
watchdog_request_duration_seconds_count{endpoint="sim"} 4
`
	if got := p.String(); got != want {
		t.Errorf("prom document mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPromDeterministic: rendering the same state twice produces
// byte-identical documents (the stable-ordering contract a golden
// scrape test in CI relies on).
func TestPromDeterministic(t *testing.T) {
	render := func() string {
		var p PromWriter
		p.Gauge("a", "a.", nil, 1)
		p.Counter("b", "b.", []Label{{"x", "1"}, {"y", "2"}}, 2)
		p.Counter("b", "b.", []Label{{"x", "3"}, {"y", "4"}}, 3)
		return p.String()
	}
	if a, b := render(), render(); a != b {
		t.Errorf("nondeterministic render:\n%s\nvs\n%s", a, b)
	}
}

// TestPromEscaping: label values and help strings escape backslash,
// quote and newline so a scraper never sees a malformed line.
func TestPromEscaping(t *testing.T) {
	var p PromWriter
	p.Gauge("m", "line one\nline two with \\slash", []Label{
		{"path", `C:\dir`},
		{"quoted", `say "hi"`},
		{"multi", "a\nb"},
	}, 1)
	got := p.String()
	for _, want := range []string{
		`# HELP m line one\nline two with \\slash`,
		`path="C:\\dir"`,
		`quoted="say \"hi\""`,
		`multi="a\nb"`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("document missing %q:\n%s", want, got)
		}
	}
	if strings.Count(got, "\n") != 3 { // HELP + TYPE + one sample, no raw newlines leaked
		t.Errorf("raw newline leaked into the document:\n%q", got)
	}
}

// TestPromValueFormatting pins the special float renderings.
func TestPromValueFormatting(t *testing.T) {
	for v, want := range map[float64]string{
		0:      "0",
		1.5:    "1.5",
		0.0005: "0.0005",
		1e9:    "1e+09",
	} {
		if got := formatPromValue(v); got != want {
			t.Errorf("formatPromValue(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestHistogramBuckets pins the le boundary semantics: an observation
// exactly on a bound lands in that bound's bucket (le is inclusive).
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0.001, 0.01)
	h.Observe(time.Millisecond) // exactly le="0.001"
	s := h.Snapshot()
	if s.Cumulative[0] != 1 || s.Cumulative[1] != 1 || s.Count != 1 {
		t.Errorf("boundary observation bucketed wrong: %+v", s)
	}
	h.Observe(time.Minute) // past every bound: +Inf only
	s = h.Snapshot()
	if s.Cumulative[1] != 1 || s.Count != 2 {
		t.Errorf("overflow observation bucketed wrong: %+v", s)
	}
}

// TestHistogramConcurrent exercises the histogram under the race
// detector.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
				_ = h.Snapshot()
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 4000 {
		t.Errorf("histogram count = %d, want 4000", s.Count)
	}
}
