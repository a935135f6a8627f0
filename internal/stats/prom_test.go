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

// TestPromFamiliesGrouped: interleaved calls on two families still
// render each family as one contiguous group, as text format 0.0.4
// requires, with families in first-use order.
func TestPromFamiliesGrouped(t *testing.T) {
	var p PromWriter
	p.Counter("a_total", "A.", []Label{{"k", "1"}}, 1)
	p.Counter("b_total", "B.", []Label{{"k", "1"}}, 2)
	p.Counter("a_total", "A.", []Label{{"k", "2"}}, 3)
	p.Counter("b_total", "B.", []Label{{"k", "2"}}, 4)

	const want = `# HELP a_total A.
# TYPE a_total counter
a_total{k="1"} 1
a_total{k="2"} 3
# HELP b_total B.
# TYPE b_total counter
b_total{k="1"} 2
b_total{k="2"} 4
`
	if got := p.String(); got != want {
		t.Errorf("families not grouped:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPromStruct pins the tag grammar: constant labels and divisors,
// bools, map keys and string fields as labels (outer labels first),
// untagged structs and slices walked, untagged leaves left JSON-only.
func TestPromStruct(t *testing.T) {
	type row struct {
		Addr string  `json:"addr" prom:"worker,label"`
		Up   bool    `json:"up" prom:"t_up,gauge" help:"Up."`
		P50  float64 `json:"p50_ms" prom:"t_latency_seconds,gauge,quantile=0.5,/1e3" help:"Latency."`
		P99  float64 `json:"p99_ms" prom:"t_latency_seconds,gauge,quantile=0.99,/1e3"`
	}
	type count struct {
		N int64 `json:"n" prom:"t_n_total,counter" help:"N."`
	}
	doc := struct {
		Schema string           `json:"schema"`
		Max    int              `json:"max"`
		Nanos  int64            `json:"nanos" prom:"t_uptime_seconds,gauge,/1e9" help:"Uptime."`
		Hits   uint64           `json:"hits" prom:"t_hits_total,counter" help:"Hits."`
		ByKey  map[string]count `json:"by_key" prom:"key,label"`
		Rows   []row            `json:"rows"`
	}{
		Schema: "s", Max: 9, Nanos: 1_500_000_000, Hits: 7,
		ByKey: map[string]count{"y": {2}, "x": {1}},
		Rows:  []row{{"a", true, 4, 20}, {"b", false, 100, 900}},
	}
	var p PromWriter
	p.Struct(&doc)

	const want = `# HELP t_uptime_seconds Uptime.
# TYPE t_uptime_seconds gauge
t_uptime_seconds 1.5
# HELP t_hits_total Hits.
# TYPE t_hits_total counter
t_hits_total 7
# HELP t_n_total N.
# TYPE t_n_total counter
t_n_total{key="x"} 1
t_n_total{key="y"} 2
# HELP t_up Up.
# TYPE t_up gauge
t_up{worker="a"} 1
t_up{worker="b"} 0
# HELP t_latency_seconds Latency.
# TYPE t_latency_seconds gauge
t_latency_seconds{worker="a",quantile="0.5"} 0.004
t_latency_seconds{worker="a",quantile="0.99"} 0.02
t_latency_seconds{worker="b",quantile="0.5"} 0.1
t_latency_seconds{worker="b",quantile="0.99"} 0.9
`
	if got := p.String(); got != want {
		t.Errorf("struct render mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
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
