package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"watchdog/internal/report"
)

// -update rewrites the recorded /metrics JSON golden instead of
// comparing against it: go test ./internal/serve -run MetricsJSONGolden -update
var updateGolden = flag.Bool("update", false, "rewrite the /metrics JSON golden")

// fullMetrics is a /metrics document with every field non-zero: the
// /v1/sim endpoint and a disk store.
func fullMetrics() Metrics {
	return Metrics{
		Schema:           Schema,
		Version:          Version,
		UptimeNanos:      12_345_678_901,
		Draining:         true,
		Inflight:         3,
		RejectedBusy:     4,
		RejectedDraining: 5,
		Coalesced:        6,
		TimedOut:         7,
		Endpoints: map[string]EndpointMetrics{
			"sim": {Requests: 40, Errors: 2, Window: 38, P50Milli: 1.25, P90Milli: 7.5, P99Milli: 120.125},
		},
		Store: StoreMetrics{
			CacheEntries:   10,
			CacheHits:      12,
			DiskHits:       14,
			DiskMisses:     15,
			DiskWrites:     16,
			DiskBytes:      17_000,
			DiskEvictions:  18,
			CorruptEvicted: 19,
		},
		Harness: report.Harness{
			Sims:          160,
			Profiles:      20,
			CacheHits:     140,
			BusyNanos:     9_876_543_210,
			CacheHitRatio: 0.4666666666666667,
		},
	}
}

// TestMetricsJSONGolden pins the /metrics JSON bytes of a fully
// populated document — field names, field order and omitempty rules —
// so that scrapers, the load harness and the bench decoders keep
// reading the same document.
func TestMetricsJSONGolden(t *testing.T) {
	m := fullMetrics()
	got, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "metrics.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Errorf("/metrics JSON drifted:\n got %s\nwant %s", got, want)
	}
}
