package fabric

import (
	"net/http"

	"watchdog/internal/stats"
)

// PromHandler returns an http.Handler serving the coordinator's live
// fabric counters as a Prometheus exposition, rendered from the
// report.FabricStats field tags — mount it on the coordinator process
// (watchdog-bench's -metrics-addr does) so a scraper can watch a
// distributed sweep from the outside.
func (c *Coordinator) PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var p stats.PromWriter
		p.Struct(c.Stats())
		w.Header().Set("Content-Type", stats.PromContentType)
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(p.String()))
	})
}
