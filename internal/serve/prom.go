package serve

import (
	"net/http"
	"strings"

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

// writeProm renders m, the snapshot the JSON document encodes, as a
// Prometheus text-exposition document from its field tags, plus the
// per-endpoint latency histograms, which have no JSON form. It
// returns the status written. The same state always renders
// byte-identically: map keys render sorted and the histograms in a
// fixed order.
func (s *Server) writeProm(w http.ResponseWriter, m *Metrics) int {
	var p stats.PromWriter
	p.Struct(m)
	for _, ep := range []struct {
		name string
		met  *endpointTrack
	}{
		{"sim", &s.simMet},
		{"juliet", &s.julietMet},
	} {
		p.Histogram("watchdog_serve_request_duration_seconds", "Request latency distribution, by endpoint.",
			[]stats.Label{{Name: "endpoint", Value: ep.name}}, ep.met.hist.Snapshot())
	}
	w.Header().Set("Content-Type", stats.PromContentType)
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(p.String()))
	return http.StatusOK
}
