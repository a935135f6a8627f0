package serve

import (
	"sync"
)

// FlightRecord is one completed request in the server's request
// flight recorder: the correlation id, the flight it rode, and how it
// ended. The recorder is the request-level sibling of the simulator's
// trace flight recorder — a bounded ring of the most recent requests,
// dumpable after the fact, so "which cell was slow and who asked for
// it" is answerable without always-on verbose logging.
type FlightRecord struct {
	RequestID string `json:"request_id"`
	Method    string `json:"method"`
	Path      string `json:"path"`
	// FlightKey is the normalized computation identity the request
	// coalesced onto (empty when the request never reached a flight —
	// validation failures, backpressure rejections).
	FlightKey string `json:"flight_key,omitempty"`
	Status    int    `json:"status"`
	// Coalesced marks a request that joined an existing flight (or
	// replayed a completed one) instead of computing.
	Coalesced    bool    `json:"coalesced,omitempty"`
	LatencyMilli float64 `json:"latency_ms"`
	// UnixNanos is the request's completion time.
	UnixNanos int64 `json:"unix_nanos"`
}

// flightLog is the bounded ring behind GET /debug/flights.
type flightLog struct {
	mu   sync.Mutex
	ring []FlightRecord
	pos  int
	full bool
}

func newFlightLog(n int) *flightLog {
	return &flightLog{ring: make([]FlightRecord, n)}
}

func (f *flightLog) add(rec FlightRecord) {
	f.mu.Lock()
	f.ring[f.pos] = rec
	f.pos++
	if f.pos == len(f.ring) {
		f.pos = 0
		f.full = true
	}
	f.mu.Unlock()
}

// records returns the retained requests, oldest first.
func (f *flightLog) records() []FlightRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.full {
		out := make([]FlightRecord, f.pos)
		copy(out, f.ring[:f.pos])
		return out
	}
	out := make([]FlightRecord, 0, len(f.ring))
	out = append(out, f.ring[f.pos:]...)
	out = append(out, f.ring[:f.pos]...)
	return out
}

// FlightDump is the GET /debug/flights document.
type FlightDump struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	// Flights holds the most recent requests, oldest first (a bounded
	// ring of flightLogN records).
	Flights []FlightRecord `json:"flights"`
}
