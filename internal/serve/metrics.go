package serve

import (
	"watchdog/internal/stats"
)

// EndpointMetrics is one endpoint's slice of the /metrics document,
// converted from the endpoint's stats.LatencySnapshot. Percentiles
// cover the most recent requests (a bounded window — the `window`
// field says how many observations they describe; see
// stats.LatencySnapshot for the ring semantics) and are zero until
// the endpoint has served at least one.
type EndpointMetrics struct {
	Requests int64   `json:"requests" prom:"watchdog_serve_requests_total,counter" help:"Requests served, by endpoint."`
	Errors   int64   `json:"errors" prom:"watchdog_serve_request_errors_total,counter" help:"Requests answered with a 4xx/5xx status, by endpoint."`
	Window   int     `json:"window" prom:"watchdog_serve_latency_window,gauge" help:"Observations covered by the window percentile gauges (bounded ring)."`
	P50Milli float64 `json:"p50_ms" prom:"watchdog_serve_latency_window_seconds,gauge,quantile=0.5,/1e3" help:"Exact latency percentiles over the bounded recent-request window."`
	P90Milli float64 `json:"p90_ms" prom:"watchdog_serve_latency_window_seconds,gauge,quantile=0.9,/1e3"`
	P99Milli float64 `json:"p99_ms" prom:"watchdog_serve_latency_window_seconds,gauge,quantile=0.99,/1e3"`
}

// endpointTrack is one endpoint's full accounting: the percentile
// window for the JSON document plus a fixed-bucket histogram for the
// Prometheus exposition (bucket counts merge across processes, which
// window percentiles cannot). Observe is called once per request from
// the handler wrapper; Snapshot is called by /metrics.
type endpointTrack struct {
	win  stats.LatencyWindow
	hist *stats.Histogram
	// compute observes only actual computations (flight creators, wall
	// time of the compute callback) — never replays or coalesced waits,
	// whose sub-millisecond latencies would drag the percentiles toward
	// zero. Its p50 drives the backpressure 429's Retry-After hint.
	compute stats.LatencyWindow
}
