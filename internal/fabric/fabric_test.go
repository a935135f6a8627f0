package fabric

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"watchdog/internal/experiments"
	"watchdog/internal/report"
	"watchdog/internal/serve"
	"watchdog/internal/sim"
)

// testSet mirrors the experiments package's test subset: small enough
// to sweep quickly, large enough that cells spread across workers.
var testSet = []string{"lbm", "mcf"}

// newWorker boots one watchdog-serve instance on an httptest server.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(serve.New(serve.Config{MaxWorkers: 4}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newFabric builds a coordinator over the given workers with
// test-friendly probe cadence.
func newFabric(t *testing.T, opts Options, addrs ...string) *Coordinator {
	t.Helper()
	c, err := New(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func newRunner(t *testing.T, remote experiments.RemoteCellRunner) *experiments.Runner {
	t.Helper()
	r, err := experiments.NewRunner(1, testSet...)
	if err != nil {
		t.Fatal(err)
	}
	r.Jobs = 4
	r.Remote = remote
	return r
}

func TestNormalizeAddr(t *testing.T) {
	for _, tc := range []struct {
		in, want string
		wantErr  bool
	}{
		{in: "localhost:8081", want: "http://localhost:8081"},
		{in: "  host:1 ", want: "http://host:1"},
		{in: "http://h:2/", want: "http://h:2"},
		{in: "https://h:3", want: "https://h:3"},
		{in: "ftp://h:4", wantErr: true},
		{in: "", wantErr: true},
		{in: "http://", wantErr: true},
	} {
		got, err := NormalizeAddr(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("NormalizeAddr(%q) = %q, want error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("NormalizeAddr(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("New with no workers did not fail")
	}
	if _, err := New([]string{"h:1", "http://h:1/"}, Options{}); err == nil {
		t.Error("duplicate workers (after normalization) not rejected")
	}
}

// TestDistributedMatchesLocal is the tentpole contract: a sweep
// sharded across two workers produces byte-identical figure tables
// and report documents to a purely local run.
func TestDistributedMatchesLocal(t *testing.T) {
	w1, w2 := newWorker(t), newWorker(t)
	fab := newFabric(t, Options{}, w1.URL, w2.URL)

	remote := newRunner(t, fab)
	local := newRunner(t, nil)

	rt, err := remote.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	lt, err := local.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if rt.String() != lt.String() {
		t.Errorf("distributed Fig7 differs from local:\n%s\nvs\n%s", rt, lt)
	}

	rrep, err := remote.Report([]string{"fig7"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lrep, err := local.Report([]string{"fig7"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := json.MarshalIndent(rrep, "", "  ")
	lb, _ := json.MarshalIndent(lrep, "", "  ")
	if string(rb) != string(lb) {
		t.Errorf("distributed report differs from local:\n%s\nvs\n%s", rb, lb)
	}

	fs := fab.Stats()
	// fig7 over 2 workloads = 2 baselines + 2×4 swept configs = 10
	// distinct cells, each fetched exactly once (the runner's cache
	// absorbs re-reads).
	if fs.CellsSent < 10 {
		t.Errorf("CellsSent = %d, want >= 10", fs.CellsSent)
	}
	if fs.Ejections != 0 {
		t.Errorf("Ejections = %d on healthy workers", fs.Ejections)
	}
	var reqs int64
	for _, w := range fs.Workers {
		reqs += w.Requests
		if !w.Alive {
			t.Errorf("worker %s marked dead", w.Addr)
		}
	}
	// Nothing is canceled mid-flight on a healthy fleet, so every
	// request sent completes at exactly one worker.
	if reqs != fs.CellsSent {
		t.Errorf("per-worker requests sum to %d, want cells_sent %d", reqs, fs.CellsSent)
	}
}

// TestWorkerDeathMidSweep: with one worker answering connection
// resets, every cell routed to it fails over (ejecting the worker)
// and the sweep still completes with output identical to local.
func TestWorkerDeathMidSweep(t *testing.T) {
	good := newWorker(t)
	// The dead worker: health says OK, but every cell request is
	// aborted at the transport level — the deterministic stand-in for
	// a worker that was SIGKILLed mid-sweep.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(dead.Close)

	fab := newFabric(t, Options{}, good.URL, dead.URL)
	remote := newRunner(t, fab)
	local := newRunner(t, nil)

	rt, err := remote.Fig7()
	if err != nil {
		t.Fatalf("sweep did not survive the dead worker: %v", err)
	}
	lt, err := local.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if rt.String() != lt.String() {
		t.Errorf("fig7 after failover differs from local:\n%s\nvs\n%s", rt, lt)
	}
	fs := fab.Stats()
	if fs.Ejections < 1 {
		t.Errorf("Ejections = %d, want >= 1 after connection failures", fs.Ejections)
	}
}

// TestPermanentErrorFailsFast: a definitive worker answer (400) is
// not retried — re-sending the same bytes cannot help.
func TestPermanentErrorFailsFast(t *testing.T) {
	w := newWorker(t)
	fab := newFabric(t, Options{}, w.URL)
	_, err := fab.RemoteCell(context.Background(), "no-such-workload", experiments.CfgBaseline, sim.FidelityExact, false)
	if err == nil {
		t.Fatal("unknown workload did not fail")
	}
	if !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("error does not carry the worker's explanation: %v", err)
	}
	if sent := fab.Stats().CellsSent; sent != 1 {
		t.Errorf("permanent failure sent %d requests, want 1", sent)
	}
}

// TestProbeEjectsAndReadmits: the health prober ejects a worker whose
// /healthz fails and readmits it when it recovers.
func TestProbeEjectsAndReadmits(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	w := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && healthy.Load() {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(w.Close)

	fab := newFabric(t, Options{ProbeEvery: 10 * time.Millisecond}, w.URL)
	waitAlive := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for fab.Stats().Workers[0].Alive != want {
			if time.Now().After(deadline) {
				t.Fatalf("worker never became alive=%v", want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	healthy.Store(false)
	waitAlive(false)
	if fab.Stats().Ejections < 1 {
		t.Error("probe ejection not counted")
	}
	healthy.Store(true)
	waitAlive(true)
}

// TestStatsShape: the counters round-trip through the report schema.
func TestStatsShape(t *testing.T) {
	w := newWorker(t)
	fab := newFabric(t, Options{}, w.URL)
	if _, err := fab.RemoteCell(context.Background(), "lbm", experiments.CfgBaseline, sim.FidelityExact, false); err != nil {
		t.Fatal(err)
	}
	fs := fab.Stats()
	b, err := json.Marshal(report.FabricStats(fs))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"cells_sent", "retried", "ejections", "workers", "addr", "alive", "p50_ms", "p99_ms"} {
		if !strings.Contains(string(b), field) {
			t.Errorf("fabric stats JSON missing %q: %s", field, b)
		}
	}
}
