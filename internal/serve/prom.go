package serve

import (
	"net/http"
	"strings"
	"time"

	"watchdog/internal/stats"
)

// wantsProm decides the /metrics representation from the Accept
// header: an explicit ask for text/plain (or an OpenMetrics type) gets
// the Prometheus exposition. Everything else — including an absent
// header and curl's default */* — keeps the JSON document, so every
// pre-existing client sees byte-compatible output.
func wantsProm(accept string) bool {
	accept = strings.ToLower(accept)
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "openmetrics")
}

// writeProm renders the server state as a Prometheus text-exposition
// document, returning the status written. The same state always
// renders byte-identically: endpoints are walked in a fixed order,
// tenants in sorted order, and PromWriter emits families in first-use
// order.
func (s *Server) writeProm(w http.ResponseWriter) int {
	var p stats.PromWriter

	p.Gauge("watchdog_serve_uptime_seconds",
		"Seconds since the server started.",
		nil, time.Since(s.start).Seconds())
	p.Gauge("watchdog_serve_draining",
		"1 while the server is draining (refusing new work), else 0.",
		nil, stats.BoolGauge(s.draining.Load()))
	p.Gauge("watchdog_serve_inflight",
		"Computations currently executing (coalesced waiters excluded).",
		nil, float64(s.inflight.Load()))
	p.Counter("watchdog_serve_coalesced_total",
		"Requests that joined an existing flight instead of computing.",
		nil, float64(s.coalesced.Load()))
	p.Counter("watchdog_serve_rejected_total",
		"Requests refused before reaching a flight, by reason.",
		[]stats.Label{{Name: "reason", Value: "busy"}}, float64(s.rejectedBusy.Load()))
	p.Counter("watchdog_serve_rejected_total",
		"Requests refused before reaching a flight, by reason.",
		[]stats.Label{{Name: "reason", Value: "draining"}}, float64(s.rejectedDraining.Load()))
	p.Counter("watchdog_serve_rejected_total",
		"Requests refused before reaching a flight, by reason.",
		[]stats.Label{{Name: "reason", Value: "unauthorized"}}, float64(s.rejectedUnauthorized.Load()))
	p.Counter("watchdog_serve_rejected_total",
		"Requests refused before reaching a flight, by reason.",
		[]stats.Label{{Name: "reason", Value: "limited"}}, float64(s.rejectedLimited.Load()))
	p.Counter("watchdog_serve_timeouts_total",
		"Requests answered 504 (deadline expired mid-computation).",
		nil, float64(s.timedOut.Load()))

	// Endpoints render in a fixed order so the document is stable.
	for _, ep := range []struct {
		name string
		met  *endpointTrack
	}{
		{"sim", &s.simMet},
		{"juliet", &s.julietMet},
	} {
		labels := []stats.Label{{Name: "endpoint", Value: ep.name}}
		snap := ep.met.win.Snapshot()
		p.Counter("watchdog_serve_requests_total",
			"Requests served, by endpoint.",
			labels, float64(snap.Requests))
		p.Counter("watchdog_serve_request_errors_total",
			"Requests answered with a 4xx/5xx status, by endpoint.",
			labels, float64(snap.Errors))
		// The window percentiles are exact but describe only the most
		// recent observations (watchdog_serve_latency_window of them);
		// the histogram below is the mergeable view.
		p.Gauge("watchdog_serve_latency_window",
			"Observations covered by the window percentile gauges (bounded ring).",
			labels, float64(snap.Window))
		for _, q := range []struct {
			quantile string
			milli    float64
		}{
			{"0.5", snap.P50Milli},
			{"0.9", snap.P90Milli},
			{"0.99", snap.P99Milli},
		} {
			p.Gauge("watchdog_serve_latency_window_seconds",
				"Exact latency percentiles over the bounded recent-request window.",
				append(append([]stats.Label{}, labels...),
					stats.Label{Name: "quantile", Value: q.quantile}),
				q.milli/1e3)
		}
		p.Histogram("watchdog_serve_request_duration_seconds",
			"Request latency distribution, by endpoint.",
			labels, ep.met.hist.Snapshot())
	}

	// Tenant rows render in sorted-name order (none on an idle server,
	// so back-to-back idle scrapes stay byte-identical).
	tenants := s.limiter.snapshot()
	for _, name := range tenantNames(tenants) {
		tm := tenants[name]
		labels := []stats.Label{{Name: "tenant", Value: name}}
		p.Counter("watchdog_serve_tenant_requests_total",
			"Admission attempts on /v1/* endpoints, by tenant (refusals included).",
			labels, float64(tm.Requests))
		p.Counter("watchdog_serve_tenant_limited_total",
			"Token-bucket refusals (429), by tenant.",
			labels, float64(tm.Limited))
		p.Counter("watchdog_serve_tenant_quota_denied_total",
			"Daily-quota refusals (429), by tenant.",
			labels, float64(tm.QuotaDenied))
	}

	// Result store: the bodies kept in memory and the optional disk
	// layer.
	sm := s.storeMetrics()
	p.Gauge("watchdog_serve_result_cache_entries",
		"Completed flight bodies retained in the in-memory LRU.",
		nil, float64(sm.CacheEntries))
	p.Counter("watchdog_serve_result_cache_hits_total",
		"Replays answered from the in-memory LRU.",
		nil, float64(sm.CacheHits))
	p.Counter("watchdog_serve_result_cache_evictions_total",
		"LRU entries dropped past the configured bound.",
		nil, float64(sm.CacheEvictions))
	p.Counter("watchdog_serve_store_hits_total",
		"Replays answered from the disk store (checksum-verified).",
		nil, float64(sm.DiskHits))
	p.Counter("watchdog_serve_store_writes_total",
		"Completed bodies persisted to the disk store.",
		nil, float64(sm.DiskWrites))
	p.Gauge("watchdog_serve_store_bytes",
		"Bytes of entries in the disk store.",
		nil, float64(sm.DiskBytes))
	p.Counter("watchdog_serve_store_evictions_total",
		"Disk entries evicted by the size budget.",
		nil, float64(sm.DiskEvictions))
	p.Counter("watchdog_serve_store_corrupt_evicted_total",
		"Disk entries that failed verification and were evicted, not served.",
		nil, float64(sm.CorruptEvicted))

	// Harness counters: the same aggregation the JSON document reports.
	h := s.harnessMetrics()
	p.Counter("watchdog_harness_sims_total",
		"Timed simulations executed by the shared runners.",
		nil, float64(h.Sims))
	p.Counter("watchdog_harness_profiles_total",
		"Profiling passes executed by the shared runners.",
		nil, float64(h.Profiles))
	p.Counter("watchdog_harness_cache_hits_total",
		"Simulations answered from the runners' once-caches.",
		nil, float64(h.CacheHits))
	p.Counter("watchdog_harness_busy_seconds_total",
		"Cumulative wall time spent inside simulations.",
		nil, time.Duration(h.BusyNanos).Seconds())
	p.Gauge("watchdog_harness_cache_hit_ratio",
		"Cache hits / (hits + sims) since start.",
		nil, h.CacheHitRatio)

	w.Header().Set("Content-Type", stats.PromContentType)
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(p.String()))
	return http.StatusOK
}
