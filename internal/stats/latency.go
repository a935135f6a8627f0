package stats

import (
	"sort"
	"sync"
	"time"
)

// latencyRing is the bounded window behind LatencyWindow's
// percentiles. A fixed ring keeps Observe allocation-free in steady
// state and bounds the memory of a long-lived process; the
// percentiles describe the most recent latencyRing observations.
const latencyRing = 512

// LatencyWindow accumulates request counters and a bounded ring of
// recent latencies. It backs the serve endpoints' /metrics document
// and the sweep fabric's per-worker accounting: Observe is called
// once per request, Snapshot whenever the counters are reported.
// Safe for concurrent use.
type LatencyWindow struct {
	mu     sync.Mutex
	count  int64
	errs   int64
	lat    [latencyRing]int64 // nanoseconds, ring-indexed by count
	window int                // valid entries in lat (saturates at latencyRing)
	next   int                // ring cursor
}

// Observe records one request's latency and whether it failed.
func (e *LatencyWindow) Observe(d time.Duration, failed bool) {
	e.mu.Lock()
	e.count++
	if failed {
		e.errs++
	}
	e.lat[e.next] = int64(d)
	e.next = (e.next + 1) % latencyRing
	if e.window < latencyRing {
		e.window++
	}
	e.mu.Unlock()
}

// LatencySnapshot is one window's counters and percentiles.
//
// Bounded-ring semantics: Requests and Errors count every observation
// ever made, but the percentiles describe only the most recent
// Window observations (at most the ring size, 512) — older samples
// have been overwritten. A consumer must read the percentiles against
// Window, not Requests: zero percentiles with Window == 0 mean "no
// data yet", while zero (or near-zero) percentiles with Window > 0
// mean the recent requests really were that fast (sub-millisecond
// latencies round toward 0.0 in the millisecond-denominated fields).
type LatencySnapshot struct {
	Requests int64
	// Errors counts observations flagged as failed (for an HTTP
	// endpoint: requests answered with a 4xx/5xx status).
	Errors int64
	// Window is how many observations the percentile fields actually
	// cover (0 until the first request; saturates at the ring size).
	Window   int
	P50Milli float64
	P90Milli float64
	P99Milli float64
}

// Snapshot reads the counters and computes the window percentiles.
func (e *LatencyWindow) Snapshot() LatencySnapshot {
	e.mu.Lock()
	m := LatencySnapshot{Requests: e.count, Errors: e.errs, Window: e.window}
	window := make([]int64, e.window)
	copy(window, e.lat[:e.window])
	e.mu.Unlock()
	if len(window) == 0 {
		return m
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	m.P50Milli = percentileMilli(window, 50)
	m.P90Milli = percentileMilli(window, 90)
	m.P99Milli = percentileMilli(window, 99)
	return m
}

// percentileMilli reads the p-th percentile from a sorted window of
// nanosecond latencies, in milliseconds (nearest-rank).
func percentileMilli(sorted []int64, p int) float64 {
	idx := (p*len(sorted) + 99) / 100 // ceil(p/100 * n)
	if idx > 0 {
		idx--
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}
