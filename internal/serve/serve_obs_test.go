package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// getProm fetches /metrics with an Accept header asking for the
// Prometheus exposition.
func getProm(t *testing.T, base string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.String()
}

// promValue extracts one sample's value from an exposition document.
func promValue(t *testing.T, doc, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, sample+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, sample+" "), 64)
			if err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("sample %q not in document:\n%s", sample, doc)
	return 0
}

// TestMetricsContentNegotiation: Accept: text/plain gets a Prometheus
// exposition; the default (curl's */*) keeps the JSON document with
// the schema stamp, so old clients are byte-compatible.
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := testServer(t, Config{})
	postJSON(t, ts.URL+"/v1/sim", SimRequest{Workload: "lbm", Config: "baseline"})
	postJSON(t, ts.URL+"/v1/sim", SimRequest{Workload: "nope", Config: "baseline"}) // a 400

	resp, doc := getProm(t, ts.URL)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("prom content type %q", ct)
	}
	for _, want := range []string{
		"# HELP watchdog_serve_requests_total ",
		"# TYPE watchdog_serve_requests_total counter",
		"# TYPE watchdog_serve_request_duration_seconds histogram",
		`watchdog_serve_request_duration_seconds_bucket{endpoint="sim",le="+Inf"} 2`,
		`watchdog_serve_request_duration_seconds_count{endpoint="sim"} 2`,
		"# TYPE watchdog_harness_sims_total counter",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("exposition missing %q:\n%s", want, doc)
		}
	}
	if got := promValue(t, doc, `watchdog_serve_requests_total{endpoint="sim"}`); got != 2 {
		t.Errorf("sim requests_total = %v, want 2", got)
	}
	if got := promValue(t, doc, `watchdog_serve_request_errors_total{endpoint="sim"}`); got != 1 {
		t.Errorf("sim request_errors_total = %v, want 1", got)
	}
	if got := promValue(t, doc, "watchdog_harness_sims_total"); got != 1 {
		t.Errorf("harness sims_total = %v, want 1", got)
	}
	// Headers appear exactly once even though two reasons share the
	// rejected family.
	if n := strings.Count(doc, "# TYPE watchdog_serve_rejected_total counter"); n != 1 {
		t.Errorf("rejected_total TYPE emitted %d times", n)
	}
	if n := strings.Count(doc, "# TYPE watchdog_serve_requests_total counter"); n != 1 {
		t.Errorf("requests_total TYPE emitted %d times", n)
	}

	// Rendering twice with no traffic in between is byte-identical.
	_, doc2 := getProm(t, ts.URL)
	stripUptime := func(d string) string {
		var keep []string
		for _, l := range strings.Split(d, "\n") {
			if strings.HasPrefix(l, "watchdog_serve_uptime_seconds ") {
				continue
			}
			keep = append(keep, l)
		}
		return strings.Join(keep, "\n")
	}
	if stripUptime(doc) != stripUptime(doc2) {
		t.Error("two idle scrapes produced different documents")
	}

	// The JSON document is still the default, with the window field
	// describing the percentile ring.
	m := getMetrics(t, ts.URL)
	if m.Schema != Schema {
		t.Fatalf("JSON default lost: schema %q", m.Schema)
	}
	if got := m.Endpoints["sim"].Window; got != 2 {
		t.Errorf("sim endpoint window = %d, want 2", got)
	}

	// Both encodings report one harness aggregation. The overhead cell
	// reruns the kept lbm baseline, so the runner's hit counter moves.
	postJSON(t, ts.URL+"/v1/sim", SimRequest{Workload: "lbm", Config: "conservative", Overhead: true})
	m = getMetrics(t, ts.URL)
	_, doc = getProm(t, ts.URL)
	if m.Harness.CacheHits == 0 {
		t.Error("overhead cell did not hit the kept baseline")
	}
	if got := promValue(t, doc, "watchdog_harness_sims_total"); got != float64(m.Harness.Sims) {
		t.Errorf("prom harness sims %v, JSON %d", got, m.Harness.Sims)
	}
	if got := promValue(t, doc, "watchdog_harness_cache_hits_total"); got != float64(m.Harness.CacheHits) {
		t.Errorf("prom harness cache hits %v, JSON %d", got, m.Harness.CacheHits)
	}
}

// TestRequestIDEcho: a valid inbound X-Request-ID is honored and
// echoed; an invalid one is replaced by a freshly minted id; absent
// means minted. Every /v1/* response carries the header.
func TestRequestIDEcho(t *testing.T) {
	_, ts := testServer(t, Config{})
	body := []byte(`{"workload":"lbm","config":"baseline"}`)

	do := func(inbound string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sim", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if inbound != "" {
			req.Header.Set(RequestIDHeader, inbound)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if got := do("sweep-42.cell-7").Header.Get(RequestIDHeader); got != "sweep-42.cell-7" {
		t.Errorf("valid inbound id not echoed: got %q", got)
	}
	if got := do("bad id {spaces}").Header.Get(RequestIDHeader); got == "" || strings.ContainsAny(got, " {}") {
		t.Errorf("invalid inbound id handled badly: got %q", got)
	}
	if got := do(strings.Repeat("x", maxRequestIDLen+1)).Header.Get(RequestIDHeader); len(got) == 0 || len(got) > maxRequestIDLen {
		t.Errorf("oversized inbound id handled badly: got %q", got)
	}
	if got := do("").Header.Get(RequestIDHeader); got == "" {
		t.Error("no inbound id: response carries no minted id")
	}
}

// TestFlightRecorder: completed requests land in GET /debug/flights
// with their correlation id, flight key, status, and coalesced flag.
func TestFlightRecorder(t *testing.T) {
	_, ts := testServer(t, Config{})
	body := []byte(`{"workload":"lbm","config":"baseline"}`)
	for i, id := range []string{"corr-a", "corr-b"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sim", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(RequestIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/debug/flights")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump FlightDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Schema != Schema || dump.Version != Version {
		t.Fatalf("dump stamp %q v%d", dump.Schema, dump.Version)
	}
	if len(dump.Flights) != 2 {
		t.Fatalf("recorded %d flights, want 2: %+v", len(dump.Flights), dump.Flights)
	}
	wantKey := "sim/lbm/baseline/1/exact/false"
	first, second := dump.Flights[0], dump.Flights[1]
	if first.RequestID != "corr-a" || second.RequestID != "corr-b" {
		t.Errorf("recorder order/ids wrong: %+v", dump.Flights)
	}
	if first.FlightKey != wantKey || second.FlightKey != wantKey {
		t.Errorf("flight keys: %q / %q, want %q", first.FlightKey, second.FlightKey, wantKey)
	}
	if first.Coalesced {
		t.Error("creator marked coalesced")
	}
	if !second.Coalesced {
		t.Error("replay not marked coalesced")
	}
	if first.Status != 200 || first.LatencyMilli <= 0 || first.UnixNanos <= 0 {
		t.Errorf("first record incomplete: %+v", first)
	}
}

// TestFlightRecorderRingWrap: the recorder is a bounded ring — with
// capacity 2, the third request evicts the first and records() stays
// oldest-first.
func TestFlightRecorderRingWrap(t *testing.T) {
	fl := newFlightLog(2)
	for _, id := range []string{"a", "b", "c"} {
		fl.add(FlightRecord{RequestID: id})
	}
	recs := fl.records()
	if len(recs) != 2 || recs[0].RequestID != "b" || recs[1].RequestID != "c" {
		t.Fatalf("ring after wrap: %+v", recs)
	}
}

// TestStructuredRequestLog: the server emits one slog JSON record per
// request with the correlation fields.
func TestStructuredRequestLog(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	_, ts := testServer(t, Config{Logger: logger})

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sim",
		strings.NewReader(`{"workload":"lbm","config":"baseline"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, "log-probe-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	var rec struct {
		Msg       string  `json:"msg"`
		Method    string  `json:"method"`
		Path      string  `json:"path"`
		RequestID string  `json:"request_id"`
		Flight    string  `json:"flight"`
		Coalesced bool    `json:"coalesced"`
		Status    int     `json:"status"`
		LatencyMS float64 `json:"latency_ms"`
	}
	line, _, _ := strings.Cut(out, "\n")
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("unparseable log line %q: %v", line, err)
	}
	if rec.Msg != "request" || rec.Method != "POST" || rec.Path != "/v1/sim" {
		t.Errorf("log record: %+v", rec)
	}
	if rec.RequestID != "log-probe-1" {
		t.Errorf("log request_id = %q", rec.RequestID)
	}
	if rec.Flight != "sim/lbm/baseline/1/exact/false" || rec.Status != 200 || rec.LatencyMS <= 0 {
		t.Errorf("log record incomplete: %+v", rec)
	}
}

// lockedWriter serializes handler writes so the test can read the
// buffer without racing the server goroutines.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
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

// TestDefaultLoggerDisabled: a server given no Logger logs through a
// handler enabled at no level, so a request builds no log record.
func TestDefaultLoggerDisabled(t *testing.T) {
	s := New(Config{})
	for _, l := range []slog.Level{slog.LevelDebug - 4, slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError, slog.LevelError + 4} {
		if s.log.Enabled(context.Background(), l) {
			t.Errorf("default logger enabled at %v", l)
		}
	}
}
