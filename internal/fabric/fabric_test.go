package fabric

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"watchdog/internal/experiments"
	"watchdog/internal/report"
	"watchdog/internal/serve"
	"watchdog/internal/sim"
	"watchdog/internal/stats"
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

// distributable lists every experiment watchdog-bench runs with
// -workers, by its -exp name.
var distributable = []struct {
	name string
	fig  func(*experiments.Runner) (*stats.Table, error)
}{
	{"fig5", (*experiments.Runner).Fig5},
	{"fig7", (*experiments.Runner).Fig7},
	{"fig8", (*experiments.Runner).Fig8},
	{"fig9", (*experiments.Runner).Fig9},
	{"fig10", (*experiments.Runner).Fig10},
	{"fig11", (*experiments.Runner).Fig11},
	{"ideal", (*experiments.Runner).Ideal},
	{"ablations", (*experiments.Runner).Ablations},
}

// workerSims reads a worker's harness.sims from GET /metrics.
func workerSims(t *testing.T, url string) uint64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m.Harness.Sims
}

// TestDistributedMatchesLocal is the tentpole contract: every
// distributable experiment, sharded across two fresh workers, produces
// byte-identical tables and report documents to a purely local run, at
// every fidelity, and the fleet simulates exactly the cells the local
// run does. A sampled cell is a function of its key like an exact one:
// the sampling period is one constant, not a setting of the run.
func TestDistributedMatchesLocal(t *testing.T) {
	for _, fid := range sim.Fidelities {
		t.Run(string(fid), func(t *testing.T) {
			for _, e := range distributable {
				t.Run(e.name, func(t *testing.T) {
					w1, w2 := newWorker(t), newWorker(t)
					fab := newFabric(t, Options{}, w1.URL, w2.URL)

					remote := newRunner(t, fab)
					local := newRunner(t, nil)
					remote.Fidelity, local.Fidelity = fid, fid

					rt, err := e.fig(remote)
					if err != nil {
						t.Fatal(err)
					}
					lt, err := e.fig(local)
					if err != nil {
						t.Fatal(err)
					}
					if rt.String() != lt.String() {
						t.Errorf("distributed %s differs from local:\n%s\nvs\n%s", e.name, rt, lt)
					}

					var figures []string
					if slices.ContainsFunc(experiments.OverheadFigures, func(f experiments.OverheadFigure) bool { return f.Name == e.name }) {
						figures = []string{e.name}
					}
					rrep, err := remote.Report(figures, nil)
					if err != nil {
						t.Fatal(err)
					}
					lrep, err := local.Report(figures, nil)
					if err != nil {
						t.Fatal(err)
					}
					rb, _ := json.MarshalIndent(rrep, "", "  ")
					lb, _ := json.MarshalIndent(lrep, "", "  ")
					if string(rb) != string(lb) {
						t.Errorf("distributed report differs from local:\n%s\nvs\n%s", rb, lb)
					}

					// Each distinct cell is simulated once, fleet-wide: the
					// runner asks for each once, and no worker runs a cell
					// another one owns. Profiling passes are not compared:
					// two workers may each profile a workload whose ISA cells
					// they split.
					sims := local.Timing.Harness().Sims
					if got := workerSims(t, w1.URL) + workerSims(t, w2.URL); got != sims {
						t.Errorf("workers ran %d simulations, the local run %d", got, sims)
					}

					fs := fab.Stats()
					if uint64(fs.CellsSent) < sims {
						t.Errorf("CellsSent = %d, want >= %d cells", fs.CellsSent, sims)
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
					// Nothing is canceled mid-flight on a healthy fleet, so
					// every request sent completes at exactly one worker.
					if reqs != fs.CellsSent {
						t.Errorf("per-worker requests sum to %d, want cells_sent %d", reqs, fs.CellsSent)
					}
				})
			}
		})
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
	_, err := fab.RemoteCell(context.Background(), "no-such-workload", experiments.CfgBaseline, sim.FidelityExact)
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
	if _, err := fab.RemoteCell(context.Background(), "lbm", experiments.CfgBaseline, sim.FidelityExact); err != nil {
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
