package serve

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
)

// RequestIDHeader carries the request correlation id: the server
// honors an incoming value (the distributed-sweep coordinator mints
// one per cell and stamps it on every worker request, retries
// included) and echoes the resolved id on every response, so
// one slow cell can be traced coordinator log → worker log → worker
// flight-recorder dump across process boundaries.
const RequestIDHeader = "X-Request-ID"

// maxRequestIDLen bounds an accepted inbound id so a hostile client
// cannot bloat logs and flight records.
const maxRequestIDLen = 64

// idCounter disambiguates ids minted within one process even if the
// random source ever repeated.
var idCounter atomic.Uint64

// NewRequestID mints a fresh correlation id: 16 random hex characters
// plus a process-local sequence number.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// The random source failing is effectively impossible; the
		// counter alone still yields unique-per-process ids.
		return fmt.Sprintf("req-%d", idCounter.Add(1))
	}
	return fmt.Sprintf("%s-%d", hex.EncodeToString(b[:]), idCounter.Add(1))
}

// acceptRequestID validates an inbound correlation id; ids that are
// empty, oversized, or carry characters unsafe for log lines are
// rejected (the caller mints a fresh one).
func acceptRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// resolveRequestID returns the id to use for a request: the inbound
// header when acceptable, a freshly minted one otherwise.
func resolveRequestID(inbound string) string {
	if acceptRequestID(inbound) {
		return inbound
	}
	return NewRequestID()
}
