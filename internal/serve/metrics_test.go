package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update rewrites the recorded /metrics JSON golden instead of
// comparing against it: go test ./internal/serve -run MetricsJSONGolden -update
var updateGolden = flag.Bool("update", false, "rewrite the /metrics JSON golden")

// fullMetrics is a /metrics document with every field non-zero: two
// endpoints, two tenants with quota rows, and a disk store.
func fullMetrics() Metrics {
	return Metrics{
		Schema:               Schema,
		Version:              Version,
		UptimeNanos:          12_345_678_901,
		Draining:             true,
		Inflight:             3,
		RejectedBusy:         4,
		RejectedDraining:     5,
		Coalesced:            6,
		TimedOut:             7,
		RejectedUnauthorized: 8,
		RejectedLimited:      9,
		Endpoints: map[string]EndpointMetrics{
			"sim":    {Requests: 40, Errors: 2, Window: 38, P50Milli: 1.25, P90Milli: 7.5, P99Milli: 120.125},
			"juliet": {Requests: 11, Errors: 1, Window: 11, P50Milli: 310.5, P90Milli: 402.25, P99Milli: 998},
		},
		Tenants: map[string]TenantMetrics{
			"alpha": {Requests: 30, Limited: 3, QuotaDenied: 2, QuotaUsed: 25, QuotaRemaining: 75},
			"beta":  {Requests: 21, Limited: 1, QuotaDenied: 4, QuotaUsed: 17, QuotaRemaining: 83},
		},
		Store: StoreMetrics{
			CacheEntries:   10,
			CacheMax:       512,
			CacheHits:      12,
			CacheEvictions: 13,
			DiskHits:       14,
			DiskMisses:     15,
			DiskWrites:     16,
			DiskBytes:      17_000,
			DiskEvictions:  18,
			CorruptEvicted: 19,
		},
		Harness: HarnessMetrics{
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
