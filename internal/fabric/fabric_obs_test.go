package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"watchdog/internal/report"
	"watchdog/internal/serve"
	"watchdog/internal/stats"
)

// syncBuffer is a slog sink the test can read without racing the
// handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logRecords decodes each JSON line of a slog buffer into a loose map.
func logRecords(t *testing.T, raw string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(raw), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// TestRequestCorrelation is the cross-process observability contract:
// one cell fetch's correlation id appears in the coordinator's event
// log, in the worker's request log, and in the worker's
// flight-recorder dump — so a slow cell is traceable end to end.
func TestRequestCorrelation(t *testing.T) {
	var workerLog, coordLog syncBuffer
	srv := serve.New(serve.Config{
		MaxWorkers: 4,
		Logger:     slog.New(slog.NewJSONHandler(&workerLog, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	fab := newFabric(t, Options{
		Logger: slog.New(slog.NewJSONHandler(&coordLog, nil)),
	}, ts.URL)

	cell, err := fab.RemoteCell(context.Background(), "lbm", "baseline", "")
	if err != nil {
		t.Fatal(err)
	}
	if cell.Workload != "lbm" {
		t.Fatalf("bad cell: %+v", cell)
	}

	// The coordinator logged the fetch with its minted id.
	var reqID, cellKey string
	for _, rec := range logRecords(t, coordLog.String()) {
		if rec["msg"] == "cell fetched" {
			reqID, _ = rec["request_id"].(string)
			cellKey, _ = rec["cell"].(string)
		}
	}
	if reqID == "" || cellKey == "" {
		t.Fatalf("coordinator log has no 'cell fetched' record: %s", coordLog.String())
	}

	// The same id landed in the worker's request log, against the same
	// flight key the coordinator's cell key wraps.
	var workerSaw bool
	for _, rec := range logRecords(t, workerLog.String()) {
		if rec["msg"] == "request" && rec["request_id"] == reqID {
			workerSaw = true
			if flight, _ := rec["flight"].(string); !strings.HasSuffix(cellKey, flight) {
				t.Errorf("worker flight %q is not the coordinator cell %q", flight, cellKey)
			}
		}
	}
	if !workerSaw {
		t.Fatalf("worker log has no record for request_id %q: %s", reqID, workerLog.String())
	}

	// And the worker's flight recorder retained it.
	resp, err := http.Get(ts.URL + "/debug/flights")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump serve.FlightDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	var recorded bool
	for _, f := range dump.Flights {
		if f.RequestID == reqID {
			recorded = true
			if !strings.HasSuffix(cellKey, f.FlightKey) {
				t.Errorf("flight-recorder key %q is not the coordinator cell %q", f.FlightKey, cellKey)
			}
		}
	}
	if !recorded {
		t.Fatalf("flight recorder has no record for request_id %q: %+v", reqID, dump.Flights)
	}

}

// TestFabricPromStats: the fabric exposition, rendered from the
// FabricStats field tags, carries the coordinator counters and
// per-worker series with worker labels.
func TestFabricPromStats(t *testing.T) {
	fs := report.FabricStats{
		CellsSent: 12, Retried: 1, Ejections: 1,
		Workers: []report.FabricWorker{
			{Addr: "http://a:1", Alive: true, Requests: 8, Errors: 0, Window: 8, P50Milli: 4, P99Milli: 20},
			{Addr: "http://b:2", Alive: false, Requests: 4, Errors: 4, Window: 4, P50Milli: 100, P99Milli: 900},
		},
	}
	var p stats.PromWriter
	p.Struct(fs)
	doc := p.String()
	for _, want := range []string{
		"# TYPE watchdog_fabric_cells_sent_total counter",
		"watchdog_fabric_cells_sent_total 12",
		`watchdog_fabric_worker_alive{worker="http://a:1"} 1`,
		`watchdog_fabric_worker_alive{worker="http://b:2"} 0`,
		`watchdog_fabric_worker_requests_total{worker="http://b:2"} 4`,
		`watchdog_fabric_worker_latency_window_seconds{worker="http://a:1",quantile="0.99"} 0.02`,
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("exposition missing %q:\n%s", want, doc)
		}
	}
	if n := strings.Count(doc, "# TYPE watchdog_fabric_worker_alive gauge"); n != 1 {
		t.Errorf("worker_alive TYPE emitted %d times", n)
	}

	// The live handler serves the same families.
	w := newWorker(t)
	fab := newFabric(t, Options{}, w.URL)
	rec := httptest.NewRecorder()
	fab.PromHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != stats.PromContentType {
		t.Errorf("handler content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "watchdog_fabric_cells_sent_total 0") {
		t.Errorf("handler exposition:\n%s", rec.Body.String())
	}
}

// TestDefaultLoggerDisabled: a coordinator given no Logger logs through
// the server's disabled handler, so a cell fetch builds no log record.
func TestDefaultLoggerDisabled(t *testing.T) {
	c := newFabric(t, Options{}, newWorker(t).URL)
	for _, l := range []slog.Level{slog.LevelDebug - 4, slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError, slog.LevelError + 4} {
		if c.log.Enabled(context.Background(), l) {
			t.Errorf("default logger enabled at %v", l)
		}
	}
}
