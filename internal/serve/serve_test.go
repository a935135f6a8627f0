package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"watchdog/internal/report"
	"watchdog/internal/security"
)

// testServer returns a Server with a tiny worker pool and its
// httptest front end.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
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

func getMetrics(t *testing.T, base string) Metrics {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCoalescing is the tentpole contract, on both computing
// endpoints: N identical concurrent requests run the simulations of
// one request, every requester gets the identical body back, and a
// later identical request replays it without simulating again.
func TestCoalescing(t *testing.T) {
	for _, tc := range []struct {
		name, path string
		req        any
		sims       uint64 // what one request simulates
		check      func(t *testing.T, body []byte)
	}{
		{"sim", "/v1/sim", SimRequest{Workload: "mcf", Config: "conservative"}, 1, func(t *testing.T, body []byte) {
			var sr SimResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			if sr.Schema != Schema || sr.Version != Version {
				t.Fatalf("schema stamp %q v%d", sr.Schema, sr.Version)
			}
			if sr.Cell.Workload != "mcf" || sr.Cell.Config != "conservative" || sr.Cell.Cycles <= 0 {
				t.Fatalf("bad cell: %+v", sr.Cell)
			}
		}},
		{"juliet", "/v1/juliet", JulietRequest{Policy: "watchdog"}, uint64(len(security.BuiltinCases())), func(t *testing.T, body []byte) {
			var jr report.JulietReport
			if err := json.Unmarshal(body, &jr); err != nil {
				t.Fatal(err)
			}
			if jr.Schema != report.JulietSchema || jr.Version != report.Version {
				t.Fatalf("schema stamp %q v%d", jr.Schema, jr.Version)
			}
			if j := jr.Juliet; j.Policy != "watchdog" || j.BadTotal == 0 || j.BadDetected != j.BadTotal {
				t.Fatalf("bad juliet summary: %+v", j)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := testServer(t, Config{MaxWorkers: 8})
			const n = 8
			var wg sync.WaitGroup
			bodies := make([][]byte, n)
			codes := make([]int, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, body := postJSON(t, ts.URL+tc.path, tc.req)
					codes[i], bodies[i] = resp.StatusCode, body
				}(i)
			}
			wg.Wait()

			for i := 0; i < n; i++ {
				if codes[i] != http.StatusOK {
					t.Fatalf("request %d: status %d, body %s", i, codes[i], bodies[i])
				}
				if !bytes.Equal(bodies[i], bodies[0]) {
					t.Fatalf("request %d got a different body:\n%s\nvs\n%s", i, bodies[i], bodies[0])
				}
			}
			tc.check(t, bodies[0])

			m := getMetrics(t, ts.URL)
			if m.Harness.Sims != tc.sims {
				t.Errorf("%d identical requests ran %d simulations, want %d (one request's)", n, m.Harness.Sims, tc.sims)
			}
			if m.Coalesced != n-1 {
				t.Errorf("coalesced = %d, want %d", m.Coalesced, n-1)
			}

			resp, body := postJSON(t, ts.URL+tc.path, tc.req)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, bodies[0]) {
				t.Fatalf("replay: status %d, body %s", resp.StatusCode, body)
			}
			if m := getMetrics(t, ts.URL); m.Harness.Sims != tc.sims {
				t.Errorf("replay ran a new simulation: sims = %d, want %d", m.Harness.Sims, tc.sims)
			}
		})
	}
}

// TestSimOverheadCell: overhead requests also run the baseline and
// stamp the slowdown ratio.
func TestSimOverheadCell(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/sim",
		SimRequest{Workload: "lbm", Config: "conservative", Overhead: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SimResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cell.Overhead <= 1 {
		t.Fatalf("overhead cell has ratio %v, want > 1", sr.Cell.Overhead)
	}
	if m := getMetrics(t, ts.URL); m.Harness.Sims != 2 {
		t.Errorf("overhead cell ran %d sims, want 2 (cell + baseline)", m.Harness.Sims)
	}
}

// TestBackpressure: with one worker slot held, a request for a
// different cell is rejected 429 + Retry-After instead of queuing,
// while an identical request coalesces without needing a slot.
func TestBackpressure(t *testing.T) {
	s, ts := testServer(t, Config{MaxWorkers: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	s.computeStarted = func() {
		started <- struct{}{}
		<-release
	}

	slow := SimRequest{Workload: "mcf", Config: "conservative"}
	type result struct {
		code int
		body []byte
	}
	slowDone := make(chan result, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/v1/sim", slow)
		slowDone <- result{resp.StatusCode, body}
	}()
	<-started // the only worker slot is now held

	resp, body := postJSON(t, ts.URL+"/v1/sim",
		SimRequest{Workload: "lbm", Config: "conservative"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.RetryAfterSec <= 0 {
		t.Errorf("429 body %s (err %v), want retry_after_sec > 0", body, err)
	}

	// An identical request joins the in-flight computation instead of
	// being bounced.
	coDone := make(chan result, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/v1/sim", slow)
		coDone <- result{resp.StatusCode, body}
	}()
	// The coalesced request must not consume the hook (only creators
	// call it); give it a moment to join, then release the worker.
	select {
	case <-started:
		t.Fatal("coalesced request started its own computation")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)

	for _, ch := range []chan result{slowDone, coDone} {
		r := <-ch
		if r.code != http.StatusOK {
			t.Fatalf("held request finished with %d: %s", r.code, r.body)
		}
	}
	m := getMetrics(t, ts.URL)
	if m.RejectedBusy != 1 {
		t.Errorf("rejected_busy = %d, want 1", m.RejectedBusy)
	}
	if m.Harness.Sims != 1 {
		t.Errorf("sims = %d, want 1 (429 and coalesced must not simulate)", m.Harness.Sims)
	}
}

// TestDeadlineAndEviction: a request whose deadline expires
// mid-simulation gets 504, and the failed flight is evicted so an
// identical retry recomputes successfully.
func TestDeadlineAndEviction(t *testing.T) {
	s, ts := testServer(t, Config{})
	// Stall the creator past its 1ms deadline so the cancellation
	// deterministically lands inside machine.Run's cooperative check.
	s.computeStarted = func() { time.Sleep(30 * time.Millisecond) }

	req := SimRequest{Workload: "mcf", Config: "conservative", TimeoutMS: 1}
	resp, body := postJSON(t, ts.URL+"/v1/sim", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline answered %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Errorf("504 body does not mention the deadline: %s", body)
	}

	s.computeStarted = nil
	req.TimeoutMS = 0
	resp, body = postJSON(t, ts.URL+"/v1/sim", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after eviction answered %d: %s (stale failure cached?)", resp.StatusCode, body)
	}
}

// TestJoinerOutlivesCreatorDeadline: a request that joins a flight
// whose creator's own timeout_ms expires does not inherit that 504 —
// its deadline is still live, so it computes the cell itself.
func TestJoinerOutlivesCreatorDeadline(t *testing.T) {
	s, ts := testServer(t, Config{MaxWorkers: 4})
	started := make(chan struct{})
	release := make(chan struct{})
	var first sync.Once
	s.computeStarted = func() {
		first.Do(func() {
			close(started)
			<-release
		})
	}

	type result struct {
		code int
		body []byte
	}
	creator := make(chan result, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/v1/sim",
			SimRequest{Workload: "mcf", Config: "conservative", TimeoutMS: 20})
		creator <- result{resp.StatusCode, body}
	}()
	<-started
	stalled := time.Now()
	joiner := make(chan result, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/v1/sim", SimRequest{Workload: "mcf", Config: "conservative"})
		joiner <- result{resp.StatusCode, body}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for getMetrics(t, ts.URL).Coalesced < 1 {
		if time.Now().After(deadline) {
			t.Fatal("joiner never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	// Stall the creator past its 20ms so its computation starts dead.
	time.Sleep(time.Until(stalled.Add(30 * time.Millisecond)))
	close(release)

	if c := <-creator; c.code != http.StatusGatewayTimeout {
		t.Errorf("creator: status %d (%s), want 504", c.code, c.body)
	}
	j := <-joiner
	if j.code != http.StatusOK {
		t.Fatalf("joiner: status %d (%s), want 200", j.code, j.body)
	}
	var sr SimResponse
	if err := json.Unmarshal(j.body, &sr); err != nil || sr.Cell.Cycles <= 0 {
		t.Fatalf("joiner got a bad cell (err %v): %s", err, j.body)
	}
}

// TestSimValidation: malformed requests are 400 with an explanatory
// error, and never reach the simulator.
func TestSimValidation(t *testing.T) {
	_, ts := testServer(t, Config{MaxScale: 2})
	for _, tc := range []struct {
		name string
		req  SimRequest
		want string
	}{
		{"workload", SimRequest{Workload: "nope", Config: "isa"}, "unknown workload"},
		{"config", SimRequest{Workload: "mcf", Config: "nope"}, "unknown config"},
		{"scale", SimRequest{Workload: "mcf", Config: "isa", Scale: 3}, "out of range"},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/sim", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: body %s does not contain %q", tc.name, body, tc.want)
		}
	}
	resp, _ := http.Post(ts.URL+"/v1/sim", "application/json", strings.NewReader("{garbage"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err := http.Get(ts.URL + "/v1/sim")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sim: status %d, want 405", resp.StatusCode)
	}
	resp.Body.Close()
	if m := getMetrics(t, ts.URL); m.Harness.Sims != 0 {
		t.Errorf("invalid requests ran %d simulations", m.Harness.Sims)
	}
}

// TestSimFidelity: fidelity is part of the flight identity — the same
// (workload, config) at a different fidelity is a new simulation, not
// a cache replay — and an unknown fidelity is rejected up front,
// including the deleted basic-block-memo fidelity (spelled split so a
// search for the deleted identifiers finds only live code), with a
// body that names the valid values.
func TestSimFidelity(t *testing.T) {
	_, ts := testServer(t, Config{MaxWorkers: 2})

	for _, bad := range []string{"bogus", "memo" + "ized"} {
		resp, body := postJSON(t, ts.URL+"/v1/sim",
			SimRequest{Workload: "mcf", Config: "isa", Fidelity: bad})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s fidelity: status %d, body %s", bad, resp.StatusCode, body)
		}
		for _, want := range []string{"fidelity", bad, "exact", "sampled"} {
			if !strings.Contains(string(body), want) {
				t.Errorf("%s fidelity: body %s does not name %q", bad, body, want)
			}
		}
	}
	if m := getMetrics(t, ts.URL); m.Harness.Sims != 0 {
		t.Fatalf("rejected fidelities ran %d sims", m.Harness.Sims)
	}

	exact := SimRequest{Workload: "mcf", Config: "isa"}
	sampled := SimRequest{Workload: "mcf", Config: "isa", Fidelity: "sampled"}
	var cells [2]SimResponse
	for i, req := range []SimRequest{exact, sampled} {
		resp, body := postJSON(t, ts.URL+"/v1/sim", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &cells[i]); err != nil {
			t.Fatal(err)
		}
	}
	// One runner serves every fidelity of a scale, so the two isa
	// cells share one fidelity-invariant profiling pass.
	if m := getMetrics(t, ts.URL); m.Harness.Sims != 2 || m.Harness.Profiles != 1 {
		t.Fatalf("exact + sampled ran %d sims and %d profiles, want 2 (distinct flights) and 1",
			m.Harness.Sims, m.Harness.Profiles)
	}
	if got := cells[0].Cell.Fidelity; got != "exact" {
		t.Errorf("exact cell labeled %q", got)
	}
	if got := cells[1].Cell.Fidelity; got != "sampled" {
		t.Errorf("sampled cell labeled %q", got)
	}
	if cells[1].Cell.SampledInsts == 0 || cells[1].Cell.SampledInsts >= cells[1].Cell.Insts {
		t.Errorf("sampled cell measured %d of %d insts, want a strict subset",
			cells[1].Cell.SampledInsts, cells[1].Cell.Insts)
	}

	// Replaying the sampled request coalesces onto its completed
	// flight: still two simulations total.
	resp, body := postJSON(t, ts.URL+"/v1/sim", sampled)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: status %d, body %s", resp.StatusCode, body)
	}
	if m := getMetrics(t, ts.URL); m.Harness.Sims != 2 {
		t.Errorf("sampled replay ran a new simulation: sims = %d", m.Harness.Sims)
	}
}

// TestJulietEndpoint: the security endpoint returns the standalone
// juliet document (cmd/watchdog-juliet's TestServiceMatchesJSON pins
// it to the tool's -json document).
func TestJulietEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/juliet", JulietRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var jr struct {
		Schema  string `json:"schema"`
		Version int    `json:"version"`
		Juliet  struct {
			Policy      string `json:"policy"`
			BadTotal    int    `json:"bad_total"`
			BadDetected int    `json:"bad_detected"`
			GoodTotal   int    `json:"good_total"`
			GoodClean   int    `json:"good_clean"`
		} `json:"juliet"`
	}
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Schema != "watchdog-juliet" || jr.Version != 1 {
		t.Fatalf("schema stamp %q v%d", jr.Schema, jr.Version)
	}
	j := jr.Juliet
	if j.Policy != "watchdog" || j.BadTotal == 0 || j.BadDetected != j.BadTotal || j.GoodClean != j.GoodTotal {
		t.Fatalf("watchdog policy result: %+v", j)
	}

	resp, body = postJSON(t, ts.URL+"/v1/juliet", JulietRequest{Policy: "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus policy: status %d (%s), want 400", resp.StatusCode, body)
	}
}

// TestJulietPolicyDimension: the comparator policies are first-class
// request dimensions — xtag honors tag_bits (CWE-562 stays invisible
// to the heap-only scheme even at full width), dangkiller matches
// Watchdog's full detection, and tag_bits is validated.
func TestJulietPolicyDimension(t *testing.T) {
	_, ts := testServer(t, Config{})
	var jr struct {
		Juliet struct {
			Policy        string      `json:"policy"`
			BadTotal      int         `json:"bad_total"`
			BadDetected   int         `json:"bad_detected"`
			GoodTotal     int         `json:"good_total"`
			GoodClean     int         `json:"good_clean"`
			ByCWEDetected map[int]int `json:"by_cwe_detected"`
			ByCWETotal    map[int]int `json:"by_cwe_total"`
		} `json:"juliet"`
	}

	resp, body := postJSON(t, ts.URL+"/v1/juliet", JulietRequest{Policy: "xtag", TagBits: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("xtag: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	j := jr.Juliet
	if j.Policy != "xtag" || j.GoodClean != j.GoodTotal {
		t.Fatalf("xtag result: %+v", j)
	}
	if j.ByCWEDetected[562] != 0 || j.ByCWEDetected[416] != j.ByCWETotal[416] {
		t.Fatalf("xtag per-CWE split: %+v", j)
	}

	resp, body = postJSON(t, ts.URL+"/v1/juliet", JulietRequest{Policy: "dangkiller"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dangkiller: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	j = jr.Juliet
	if j.Policy != "dangkiller" || j.BadDetected != j.BadTotal || j.GoodClean != j.GoodTotal {
		t.Fatalf("dangkiller result: %+v", j)
	}

	for _, req := range []JulietRequest{
		{Policy: "xtag", TagBits: 9},
		{Policy: "watchdog", TagBits: 4},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/juliet", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status %d (%s), want 400", req, resp.StatusCode, body)
		}
	}
}

// TestGracefulDrain is the lifecycle contract: cancelling Serve's
// context rejects new requests while the in-flight one finishes, and
// Serve returns only after the drain completes.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{MaxWorkers: 2, DrainTimeout: 30 * time.Second})
	started := make(chan struct{})
	release := make(chan struct{})
	s.computeStarted = func() {
		started <- struct{}{}
		<-release
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()

	type result struct {
		code int
		body []byte
	}
	inflight := make(chan result, 1)
	go func() {
		resp, body := postJSON(t, base+"/v1/sim",
			SimRequest{Workload: "mcf", Config: "conservative"})
		inflight <- result{resp.StatusCode, body}
	}()
	<-started

	// Begin the drain with one request mid-simulation.
	cancel()

	// New work is refused: either the draining 503 (request raced the
	// listener close) or a connection error once the listener is gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			break // listener closed
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server still answering %d after drain began", code)
		}
		time.Sleep(5 * time.Millisecond)
	}

	select {
	case <-serveDone:
		t.Fatal("Serve returned while a request was still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	// The in-flight request must complete normally.
	close(release)
	r := <-inflight
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d during drain: %s", r.code, r.body)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the last request drained")
	}
}

// TestForcedDrain: an in-flight simulation that outlives DrainTimeout
// is force-canceled mid-simulation rather than holding shutdown
// hostage.
func TestForcedDrain(t *testing.T) {
	s := New(Config{MaxWorkers: 1, DrainTimeout: 50 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()

	started := make(chan struct{})
	s.computeStarted = func() {
		close(started)
		// Park well past DrainTimeout; the force-cancel must cut the
		// simulation short anyway.
		time.Sleep(200 * time.Millisecond)
	}
	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/sim", "application/json",
			strings.NewReader(`{"workload":"mcf","config":"conservative"}`))
		if err != nil {
			inflight <- 0 // connection torn down by the forced close
			return
		}
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-started
	cancel()

	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("forced drain did not complete")
	}
	if code := <-inflight; code != 0 && code != http.StatusServiceUnavailable && code != http.StatusGatewayTimeout {
		t.Errorf("force-canceled request answered %d", code)
	}
}

// TestHealthzAndMetricsShape: the observability endpoints carry the
// schema stamp and the endpoint latency windows.
func TestHealthzAndMetricsShape(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil || hz.Status != "ok" {
		t.Fatalf("healthz body: %+v (err %v)", hz, err)
	}

	postJSON(t, ts.URL+"/v1/sim", SimRequest{Workload: "lbm", Config: "baseline"})
	m := getMetrics(t, ts.URL)
	if m.Schema != Schema || m.Version != Version {
		t.Fatalf("metrics stamp %q v%d", m.Schema, m.Version)
	}
	sim := m.Endpoints["sim"]
	if sim.Requests != 1 || sim.Errors != 0 || sim.P50Milli <= 0 {
		t.Errorf("sim endpoint metrics: %+v", sim)
	}
	if m.Harness.Sims != 1 || m.Harness.BusyNanos <= 0 {
		t.Errorf("harness metrics: %+v", m.Harness)
	}
	if m.UptimeNanos <= 0 {
		t.Error("uptime not recorded")
	}
}

// TestTimeoutResolution pins the request/server timeout interaction.
func TestTimeoutResolution(t *testing.T) {
	s := New(Config{RequestTimeout: time.Second})
	for _, tc := range []struct {
		ms   int64
		want time.Duration
	}{
		{0, time.Second},              // default: the server cap
		{100, 100 * time.Millisecond}, // shorter than the cap: honored
		{5000, time.Second},           // longer than the cap: clamped
	} {
		if got := s.timeout(tc.ms); got != tc.want {
			t.Errorf("timeout(%d) = %v, want %v", tc.ms, got, tc.want)
		}
	}
}

// TestCreatorDisconnectWaitersSurvive is the flight-lifecycle bugfix
// contract: the computation is detached from the creating client's
// connection, so when the creator disconnects mid-flight the coalesced
// waiters still get their 200 from the single shared simulation.
func TestCreatorDisconnectWaitersSurvive(t *testing.T) {
	s, ts := testServer(t, Config{MaxWorkers: 4})
	started := make(chan struct{})
	release := make(chan struct{})
	s.computeStarted = func() {
		close(started)
		<-release
	}

	body, err := json.Marshal(SimRequest{Workload: "mcf", Config: "conservative"})
	if err != nil {
		t.Fatal(err)
	}

	// The creator: a cancellable request that will disconnect while
	// the computation is stalled in the hook.
	cctx, cancelCreator := context.WithCancel(context.Background())
	creatorErr := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(cctx, http.MethodPost, ts.URL+"/v1/sim", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		creatorErr <- err
	}()
	<-started

	// A waiter joins the flight, then the creator disconnects.
	waiter := make(chan struct {
		code int
		body []byte
	}, 1)
	go func() {
		resp, b := postJSON(t, ts.URL+"/v1/sim", SimRequest{Workload: "mcf", Config: "conservative"})
		waiter <- struct {
			code int
			body []byte
		}{resp.StatusCode, b}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for getMetrics(t, ts.URL).Coalesced < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancelCreator()
	if err := <-creatorErr; err == nil {
		t.Fatal("creator request unexpectedly succeeded before release")
	}
	// Give the disconnect time to propagate into the server; under the
	// old (buggy) creator-context linkage this is where the
	// computation died.
	time.Sleep(20 * time.Millisecond)
	close(release)

	w := <-waiter
	if w.code != http.StatusOK {
		t.Fatalf("waiter after creator disconnect: status %d, body %s", w.code, w.body)
	}
	var sr SimResponse
	if err := json.Unmarshal(w.body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cell.Workload != "mcf" || sr.Cell.Cycles <= 0 {
		t.Fatalf("waiter got a bad cell: %+v", sr.Cell)
	}
	if m := getMetrics(t, ts.URL); m.Harness.Sims != 1 {
		t.Errorf("sims = %d, want 1 (the waiter must ride the creator's computation)", m.Harness.Sims)
	}
}

// TestNormalizedFlightKeys: requests that differ only in spelled-out
// defaults share one flight — "" vs "exact" fidelity and a baseline
// cell with/without the (meaningless) overhead flag for /v1/sim, tag
// width 0 vs the default 8 for an xtag /v1/juliet run.
func TestNormalizedFlightKeys(t *testing.T) {
	_, ts := testServer(t, Config{MaxWorkers: 4})

	pairs := []struct {
		name string
		a, b SimRequest
	}{
		{"fidelity default", SimRequest{Workload: "mcf", Config: "conservative"},
			SimRequest{Workload: "mcf", Config: "conservative", Fidelity: "exact"}},
		{"baseline overhead", SimRequest{Workload: "mcf", Config: "baseline"},
			SimRequest{Workload: "mcf", Config: "baseline", Overhead: true}},
	}
	for _, p := range pairs {
		before := getMetrics(t, ts.URL).Harness.Sims
		respA, bodyA := postJSON(t, ts.URL+"/v1/sim", p.a)
		afterA := getMetrics(t, ts.URL).Harness.Sims
		respB, bodyB := postJSON(t, ts.URL+"/v1/sim", p.b)
		afterB := getMetrics(t, ts.URL).Harness.Sims
		if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
			t.Fatalf("%s: statuses %d/%d: %s %s", p.name, respA.StatusCode, respB.StatusCode, bodyA, bodyB)
		}
		if afterB != afterA {
			t.Errorf("%s: normalized twin ran %d extra sims, want a shared flight", p.name, afterB-afterA)
		}
		if afterA == before {
			t.Errorf("%s: first request ran no simulation?", p.name)
		}
		if !bytes.Equal(bodyA, bodyB) {
			t.Errorf("%s: normalized twins answered different bodies:\n%s\nvs\n%s", p.name, bodyA, bodyB)
		}
	}

	// Juliet: tag_bits 0 means the default width, so it must share the
	// explicit-default flight.
	respA, bodyA := postJSON(t, ts.URL+"/v1/juliet", JulietRequest{Policy: "xtag"})
	simsAfterFirst := getMetrics(t, ts.URL).Harness.Sims
	respB, bodyB := postJSON(t, ts.URL+"/v1/juliet", JulietRequest{Policy: "xtag", TagBits: 8})
	simsAfterSecond := getMetrics(t, ts.URL).Harness.Sims
	if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
		t.Fatalf("juliet: statuses %d/%d: %s %s", respA.StatusCode, respB.StatusCode, bodyA, bodyB)
	}
	if simsAfterSecond != simsAfterFirst {
		t.Errorf("juliet xtag/0 vs xtag/8 did not share a flight: %d extra sims", simsAfterSecond-simsAfterFirst)
	}
	if !bytes.Equal(bodyA, bodyB) {
		t.Errorf("juliet normalized twins answered different bodies")
	}
}

// TestOversizedBody: a body past the read limit answers 413 naming
// the limit, not a generic 400.
func TestOversizedBody(t *testing.T) {
	_, ts := testServer(t, Config{})
	// Well-formed JSON whose one string value overflows the limit, so
	// the decoder is still mid-token when the reader cuts it off (raw
	// garbage would fail as a 400 syntax error before reaching the cap).
	big := []byte(`{"workload":"` + strings.Repeat("a", maxBody+1) + `"}`)
	resp, err := http.Post(ts.URL+"/v1/sim", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body answered %d: %s", resp.StatusCode, out.String())
	}
	if !strings.Contains(out.String(), "1048576") {
		t.Errorf("413 body does not name the limit: %s", out.String())
	}
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
