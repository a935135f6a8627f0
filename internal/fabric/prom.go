package fabric

import (
	"net/http"

	"watchdog/internal/report"
	"watchdog/internal/stats"
)

// WritePromStats renders one FabricStats snapshot as Prometheus
// metric families onto p: the coordinator counters plus the
// per-worker gauges (alive, requests, errors, window percentiles),
// each worker labeled by its normalized address. Workers render in
// snapshot (registration) order, so the document is byte-stable for a
// stable fleet.
func WritePromStats(p *stats.PromWriter, fs report.FabricStats) {
	p.Counter("watchdog_fabric_cells_sent_total",
		"Cell requests issued to workers, hedges and retries included.",
		nil, float64(fs.CellsSent))
	p.Counter("watchdog_fabric_hedges_total",
		"Cells that got a second racing request after the hedge delay.",
		nil, float64(fs.Hedged))
	p.Counter("watchdog_fabric_retries_total",
		"Cell re-issues after a failed placement round.",
		nil, float64(fs.Retried))
	p.Counter("watchdog_fabric_ejections_total",
		"Workers marked dead (live-to-dead edges only).",
		nil, float64(fs.Ejections))
	for _, w := range fs.Workers {
		labels := []stats.Label{{Name: "worker", Value: w.Addr}}
		p.Gauge("watchdog_fabric_worker_alive",
			"1 while the worker is routable, 0 while ejected.",
			labels, stats.BoolGauge(w.Alive))
		p.Counter("watchdog_fabric_worker_requests_total",
			"Cell requests this worker received.",
			labels, float64(w.Requests))
		p.Counter("watchdog_fabric_worker_errors_total",
			"Cell requests this worker failed (transport or non-200).",
			labels, float64(w.Errors))
		p.Gauge("watchdog_fabric_worker_latency_window",
			"Observations covered by the worker's percentile gauges.",
			labels, float64(w.Window))
		for _, q := range []struct {
			quantile string
			milli    float64
		}{
			{"0.5", w.P50Milli},
			{"0.99", w.P99Milli},
		} {
			p.Gauge("watchdog_fabric_worker_latency_window_seconds",
				"Exact latency percentiles over the worker's bounded recent-request window.",
				append(append([]stats.Label{}, labels...),
					stats.Label{Name: "quantile", Value: q.quantile}),
				q.milli/1e3)
		}
	}
}

// PromHandler returns an http.Handler serving the coordinator's live
// fabric counters as a Prometheus exposition — mount it on the
// coordinator process (watchdog-bench's -metrics-addr does) so a
// scraper can watch a distributed sweep from the outside.
func (c *Coordinator) PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var p stats.PromWriter
		WritePromStats(&p, c.Stats())
		w.Header().Set("Content-Type", stats.PromContentType)
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(p.String()))
	})
}
