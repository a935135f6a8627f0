package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"watchdog/internal/experiments"
	"watchdog/internal/workload"
)

// TestFlightsMapBounded pins what the flights Group can keep: one body
// per distinct flight key, and parseSim admits MaxScale × 20 workloads
// × 2 fidelities × 25 (configuration, overhead) keys, since the empty
// fidelity is exact, scale 0 is scale 1 and a baseline cell drops
// overhead. At the default MaxScale 4 that is 4,000 bodies, beside the
// 2,080 cells (13 configurations, no overhead dimension) the runners
// keep behind them (DESIGN.md §15).
func TestFlightsMapBounded(t *testing.T) {
	maxScale := Config{}.withDefaults().MaxScale
	keys := make(map[string]bool)
	for _, wl := range workload.Names() {
		for _, cfg := range experiments.ConfigNames() {
			for scale := 0; scale <= maxScale; scale++ {
				for _, fid := range []string{"", "exact", "sampled"} {
					for _, overhead := range []bool{false, true} {
						body, err := json.Marshal(SimRequest{Workload: wl, Config: cfg, Scale: scale, Fidelity: fid, Overhead: overhead})
						if err != nil {
							t.Fatal(err)
						}
						req, _, err := parseSim(bytes.NewReader(body), maxScale)
						if err != nil {
							t.Fatalf("%s: %v", body, err)
						}
						keys[SimFlightKey(req.Workload, req.Config, req.Scale, req.fid, req.Overhead)] = true
					}
				}
			}
		}
	}
	if want := maxScale * 20 * 2 * 25; len(keys) != want || want != 4000 {
		t.Errorf("parseSim admits %d flight keys at MaxScale %d, want %d (4,000 at the default 4)", len(keys), maxScale, want)
	}
}

// TestStoreRoundTrip exercises the disk layer directly: write, verified
// read, corrupt-entry eviction, stale-schema eviction.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"hello":"world"}`)
	st.Write("sim/x/y/1/exact/false", body)
	got, ok := st.Read("sim/x/y/1/exact/false")
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("round trip = %q/%v, want original body", got, ok)
	}
	if _, ok := st.Read("sim/other"); ok {
		t.Error("read of unwritten key hit")
	}

	// Flip a byte mid-file: the checksum must catch it, the entry must
	// be evicted, and the key must read as a miss thereafter.
	p := st.path("sim/x/y/1/exact/false")
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Read("sim/x/y/1/exact/false"); ok {
		t.Fatal("corrupt entry served")
	}
	if st.corrupt.Load() != 1 {
		t.Errorf("corrupt counter = %d, want 1", st.corrupt.Load())
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Error("corrupt entry left on disk")
	}
}

// TestStoreBudgetEviction: entries past the byte budget are evicted
// oldest-touched first, never the one just written.
func TestStoreBudgetEviction(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 1) // 1 MiB budget
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 400<<10) // ~533KiB base64-encoded per entry
	st.Write("k1", big)
	time.Sleep(10 * time.Millisecond) // distinct mtimes for LRU order
	st.Write("k2", big)
	time.Sleep(10 * time.Millisecond)
	st.Write("k3", big)
	if _, ok := st.Read("k3"); !ok {
		t.Error("just-written entry evicted")
	}
	if _, ok := st.Read("k1"); ok {
		t.Error("oldest entry survived a blown budget")
	}
	if st.evictions.Load() == 0 {
		t.Error("no evictions counted despite blown budget")
	}
}

// TestRestartReplaysByteIdentical is the acceptance criterion: a new
// server over the same store directory answers a previously computed
// cell byte-for-byte without running a simulation.
func TestRestartReplaysByteIdentical(t *testing.T) {
	dir := t.TempDir()
	st1, err := OpenStore(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := testServer(t, Config{MaxWorkers: 2, Store: st1})
	req := SimRequest{Workload: "mcf", Config: "conservative"}
	resp, want := postJSON(t, ts1.URL+"/v1/sim", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first compute: %d (%s)", resp.StatusCode, want)
	}
	s1.Flush() // let the write-behind land before the "restart"

	st2, err := OpenStore(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := testServer(t, Config{MaxWorkers: 2, Store: st2})
	resp, got := postJSON(t, ts2.URL+"/v1/sim", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: %d (%s)", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("replay differs:\n  pre-restart %s\n  replayed    %s", want, got)
	}
	m := getMetrics(t, ts2.URL)
	if m.Harness.Sims != 0 {
		t.Errorf("restarted server ran %d sims answering a stored cell, want 0", m.Harness.Sims)
	}
	if m.Store.DiskHits != 1 {
		t.Errorf("disk hits = %d, want 1", m.Store.DiskHits)
	}
	if m.Coalesced != 1 {
		t.Errorf("coalesced = %d, want 1 (replays count)", m.Coalesced)
	}
}

// TestCorruptStoreEntryRecomputed: a server finding a damaged entry
// evicts it and recomputes — the corrupt bytes are never served, and
// determinism makes the recomputation byte-identical to the original.
func TestCorruptStoreEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	st1, err := OpenStore(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := testServer(t, Config{MaxWorkers: 2, Store: st1})
	req := SimRequest{Workload: "mcf", Config: "conservative"}
	resp, want := postJSON(t, ts1.URL+"/v1/sim", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first compute: %d (%s)", resp.StatusCode, want)
	}
	s1.Flush()

	// Damage the single stored entry.
	matches, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("store files %v (err %v), want exactly one", matches, err)
	}
	if err := os.WriteFile(matches[0], []byte("{ not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := testServer(t, Config{MaxWorkers: 2, Store: st2})
	resp, got := postJSON(t, ts2.URL+"/v1/sim", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recompute: %d (%s)", resp.StatusCode, got)
	}
	// The recomputed cell is deterministic; only wall_nanos (the fresh
	// computation's own timing) may differ from the original response.
	var a, b SimResponse
	if err := json.Unmarshal(want, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Cell, b.Cell) {
		t.Fatalf("recomputed cell differs from original:\n  %+v\n  %+v", a.Cell, b.Cell)
	}
	if st2.corrupt.Load() != 1 {
		t.Errorf("corrupt counter = %d, want 1", st2.corrupt.Load())
	}
	m := getMetrics(t, ts2.URL)
	if m.Harness.Sims == 0 {
		t.Error("corrupt entry answered without recomputing")
	}
	s2.Flush()
	// The recomputed body is re-persisted and verifies. The store holds
	// the raw flight body; the HTTP framing appends a trailing newline.
	want = bytes.TrimSuffix(got, []byte("\n"))
	if body, ok := st2.Read(SimFlightKey("mcf", "conservative", 1, "", false)); !ok || !bytes.Equal(body, want) {
		t.Errorf("store after recompute = %q/%v, want the repaired entry", body, ok)
	}
}
