package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// authedPost is postJSON with an API key on the Authorization header.
func authedPost(t *testing.T, url, key string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// TestNegativeTimeoutRejected: a negative timeout_ms used to be
// silently treated as "server default"; it must be a 400 naming the
// field, on both endpoints.
func TestNegativeTimeoutRejected(t *testing.T) {
	_, ts := testServer(t, Config{MaxWorkers: 2})
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/sim", SimRequest{Workload: "mcf", Config: "conservative", TimeoutMS: -5}},
		{"/v1/juliet", JulietRequest{Policy: "watchdog", TimeoutMS: -1}},
	} {
		resp, body := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with negative timeout_ms answered %d (%s), want 400", tc.path, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "timeout_ms") {
			t.Errorf("%s error %s does not name timeout_ms", tc.path, body)
		}
	}
}

// TestProbeEndpointsEchoRequestID: /healthz, /metrics, and
// /debug/flights used to bypass the timed wrapper and never echo a
// correlation id; now they resolve and echo one like every other
// endpoint.
func TestProbeEndpointsEchoRequestID(t *testing.T) {
	_, ts := testServer(t, Config{MaxWorkers: 1})
	for _, path := range []string{"/healthz", "/metrics", "/debug/flights"} {
		// A supplied id is echoed verbatim.
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(RequestIDHeader, "probe-42")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get(RequestIDHeader); got != "probe-42" {
			t.Errorf("%s echoed %q, want the supplied id", path, got)
		}
		// An absent id is minted, not left empty.
		resp, err = http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.Header.Get(RequestIDHeader) == "" {
			t.Errorf("%s answered without a generated %s", path, RequestIDHeader)
		}
	}
}

// TestAuthGateway: with a key set configured, /v1/* requires a known
// key (Bearer or X-API-Key); without one, everything is the anonymous
// tenant and stray keys are ignored.
func TestAuthGateway(t *testing.T) {
	s, ts := testServer(t, Config{
		MaxWorkers: 2,
		Keys:       map[string]string{"sk-alpha": "alpha"},
	})
	req := SimRequest{Workload: "mcf", Config: "conservative"}

	resp, body := postJSON(t, ts.URL+"/v1/sim", req)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("keyless request answered %d (%s), want 401", resp.StatusCode, body)
	}
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Error("401 without WWW-Authenticate")
	}
	if resp, body = authedPost(t, ts.URL+"/v1/sim", "sk-wrong", req); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown key answered %d (%s), want 401", resp.StatusCode, body)
	}
	if got := s.rejectedUnauthorized.Load(); got != 2 {
		t.Errorf("rejectedUnauthorized = %d, want 2", got)
	}

	if resp, body = authedPost(t, ts.URL+"/v1/sim", "sk-alpha", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("Bearer auth answered %d (%s), want 200", resp.StatusCode, body)
	}
	// The X-API-Key spelling resolves to the same tenant.
	b, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sim", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set(APIKeyHeader, "sk-alpha")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("X-API-Key auth answered %d, want 200", hresp.StatusCode)
	}

	m := getMetrics(t, ts.URL)
	if m.Tenants["alpha"].Requests != 2 {
		t.Errorf("tenant alpha requests = %d, want 2 (tenants: %v)", m.Tenants["alpha"].Requests, m.Tenants)
	}

	// Auth disabled: no key needed, stray keys ignored, tenant is anon.
	s2, ts2 := testServer(t, Config{MaxWorkers: 2})
	if resp, body = authedPost(t, ts2.URL+"/v1/sim", "sk-anything", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("unauthenticated server refused keyed request: %d (%s)", resp.StatusCode, body)
	}
	if got := s2.limiter.snapshot()[AnonymousTenant].Requests; got != 1 {
		t.Errorf("anonymous tenant requests = %d, want 1", got)
	}
}

// TestTenantBucketIsolation: one tenant draining its bucket dry never
// costs another tenant a token, and the 429 carries an honest
// Retry-After derived from the refill time.
func TestTenantBucketIsolation(t *testing.T) {
	s, ts := testServer(t, Config{
		MaxWorkers: 2,
		Keys:       map[string]string{"sk-a": "a", "sk-b": "b"},
		Rate:       0.001, // one token per ~17 minutes: no refill mid-test
	})
	req := SimRequest{Workload: "mcf", Config: "conservative"}

	if resp, body := authedPost(t, ts.URL+"/v1/sim", "sk-a", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant a first request: %d (%s), want 200", resp.StatusCode, body)
	}
	resp, body := authedPost(t, ts.URL+"/v1/sim", "sk-a", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("tenant a past burst: %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("rate 429 without Retry-After")
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.RetryAfterSec < 1 {
		t.Errorf("rate 429 body %s (err %v), want retry_after_sec >= 1", body, err)
	}

	// Tenant b is untouched by a's exhaustion.
	if resp, body := authedPost(t, ts.URL+"/v1/sim", "sk-b", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant b refused after a's exhaustion: %d (%s)", resp.StatusCode, body)
	}

	snap := s.limiter.snapshot()
	if snap["a"].Limited != 1 || snap["b"].Limited != 0 {
		t.Errorf("limited counts a=%d b=%d, want 1/0", snap["a"].Limited, snap["b"].Limited)
	}
	if s.rejectedLimited.Load() != 1 {
		t.Errorf("rejectedLimited = %d, want 1", s.rejectedLimited.Load())
	}
}

// TestDailyQuota: past the daily cap every request is a quota 429
// whose Retry-After points at the UTC day rollover.
func TestDailyQuota(t *testing.T) {
	_, ts := testServer(t, Config{MaxWorkers: 2, Quota: 2})
	req := SimRequest{Workload: "mcf", Config: "conservative"}
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/sim", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d under quota: %d (%s), want 200", i, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/sim", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request past quota: %d (%s), want 429", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "quota") {
		t.Errorf("quota 429 body %s does not say quota", body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.RetryAfterSec < 1 {
		t.Errorf("quota 429 body %s (err %v), want retry_after_sec >= 1", body, err)
	}
}

// TestQuotaRollover drives the limiter directly with a fake clock: a
// new UTC day resets the window.
func TestQuotaRollover(t *testing.T) {
	now := time.Date(2026, 3, 1, 23, 59, 0, 0, time.UTC)
	l := newTenantLimiter(0, 1)
	l.now = func() time.Time { return now }

	if v := l.allow("t"); !v.ok {
		t.Fatalf("first request refused: %+v", v)
	}
	v := l.allow("t")
	if v.ok || v.reason != "quota" {
		t.Fatalf("second request verdict %+v, want quota refusal", v)
	}
	if want := time.Minute; v.retryAfter != want {
		t.Errorf("retryAfter %v, want %v (time to UTC midnight)", v.retryAfter, want)
	}
	now = now.Add(2 * time.Minute) // cross midnight
	if v := l.allow("t"); !v.ok {
		t.Fatalf("request after rollover refused: %+v", v)
	}
}

// TestBusyRetrySecondsTracksCompute: the backpressure Retry-After hint
// is the clamped p50 of actual computation latencies — 1s floor on an
// empty window, 60s ceiling.
func TestBusyRetrySecondsTracksCompute(t *testing.T) {
	var met endpointTrack
	if got := busyRetrySeconds(nil); got != 1 {
		t.Errorf("nil track: %d, want 1", got)
	}
	if got := busyRetrySeconds(&met); got != 1 {
		t.Errorf("empty window: %d, want 1", got)
	}
	for i := 0; i < 8; i++ {
		met.compute.Observe(2500*time.Millisecond, false)
	}
	if got := busyRetrySeconds(&met); got != 3 {
		t.Errorf("p50=2.5s: %d, want 3", got)
	}
	var slow endpointTrack
	for i := 0; i < 8; i++ {
		slow.compute.Observe(10*time.Minute, false)
	}
	if got := busyRetrySeconds(&slow); got != 60 {
		t.Errorf("p50=10m: %d, want the 60s clamp", got)
	}
}

// TestBackpressureRetryAfterFromWindow: a saturated server's 429
// quotes the observed compute p50, not the old hardcoded "1".
func TestBackpressureRetryAfterFromWindow(t *testing.T) {
	s, ts := testServer(t, Config{MaxWorkers: 1})
	for i := 0; i < 8; i++ {
		s.simMet.compute.Observe(5*time.Second, false)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	s.computeStarted = func() {
		started <- struct{}{}
		<-release
	}
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		postJSON(t, ts.URL+"/v1/sim", SimRequest{Workload: "mcf", Config: "conservative"})
	}()
	<-started // the only worker slot is now held

	resp, body := postJSON(t, ts.URL+"/v1/sim", SimRequest{Workload: "lbm", Config: "conservative"})
	close(release)
	<-slowDone
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d (%s), want 429", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Errorf("Retry-After = %q, want \"5\" (compute p50)", got)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.RetryAfterSec != 5 {
		t.Errorf("429 body %s (err %v), want retry_after_sec 5", body, err)
	}
}

// TestFlightsMapBounded is the retention bugfix's contract: a flood of
// distinct cells leaves the flights Group at its configured bound,
// instead of the old one-entry-per-unique-cell growth.
func TestFlightsMapBounded(t *testing.T) {
	s, ts := testServer(t, Config{MaxWorkers: 2, CacheEntries: 2})
	cells := []SimRequest{
		{Workload: "lbm", Config: "baseline"},
		{Workload: "mcf", Config: "baseline"},
		{Workload: "compress", Config: "baseline"},
		{Workload: "lbm", Config: "baseline", Scale: 2},
		{Workload: "mcf", Config: "baseline", Scale: 2},
	}
	for i, req := range cells {
		if resp, body := postJSON(t, ts.URL+"/v1/sim", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("cell %d: %d (%s)", i, resp.StatusCode, body)
		}
	}
	fs := s.flights.Stats()
	if fs.Kept != 2 {
		t.Errorf("flights keep %d bodies, want the configured bound 2", fs.Kept)
	}
	if fs.Evictions != 3 {
		t.Errorf("flight evictions = %d, want 3", fs.Evictions)
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

// TestParseKeys covers the key-file grammar.
func TestParseKeys(t *testing.T) {
	keys, err := ParseKeys(strings.NewReader(
		"# comment\n\nsk-a alpha\nsk-b\tbeta\nsk-a2 alpha\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || keys["sk-a"] != "alpha" || keys["sk-b"] != "beta" || keys["sk-a2"] != "alpha" {
		t.Errorf("parsed %v", keys)
	}
	for _, bad := range []string{
		"",                     // no mappings
		"# only comments\n",    // no mappings
		"sk-a\n",               // missing tenant
		"sk-a alpha extra\n",   // too many fields
		"sk-a alpha\nsk-a b\n", // duplicate key
	} {
		if _, err := ParseKeys(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseKeys(%q) accepted", bad)
		}
	}
}
