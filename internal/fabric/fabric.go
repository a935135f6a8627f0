// Package fabric is the distributed-sweep coordinator: it shards
// (workload, config, scale, fidelity) cells across a set of
// watchdog-serve workers over the /v1/sim wire format and hands the
// cells back to the experiments runner, whose deterministic
// workload-order merge then assembles figures exactly as a local run
// would — the output is byte-identical, because the workers run the
// same deterministic simulations and the coordinator returns their
// wire cells verbatim.
//
// The coordinator owns the distribution concerns and nothing else:
//
//   - a worker registry with periodic /healthz probing — a worker that
//     fails a probe (or a connection) is ejected from routing and
//     readmitted when a later probe succeeds;
//   - failover — a cell whose request fails at the transport level
//     moves to the next worker in the cell's ranking;
//   - per-worker latency/error accounting and fabric counters, folded
//     into the bench timing record (report.FabricStats).
//
// It keeps no cells: the runner it serves keeps each cell it fetched
// and asks for each once, and every worker keeps its own replies.
//
// Cell placement uses rendezvous hashing over the live worker set:
// each cell has a stable preferred worker, so every worker's serve
// cache warms on a distinct shard of the sweep instead of all workers
// computing all cells. A fetch ranks the workers once, and its
// failover walks that one fixed order.
package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"watchdog/internal/experiments"
	"watchdog/internal/report"
	"watchdog/internal/serve"
	"watchdog/internal/sim"
	"watchdog/internal/stats"
)

// Options tunes the coordinator. The zero value is usable: every
// field has a default chosen for real sweeps (tests shrink them).
type Options struct {
	// Scale is the workload scale factor stamped on every cell request
	// (0 means 1).
	Scale int
	// ProbeEvery is the health-probe period (default 2s).
	ProbeEvery time.Duration
	// Client overrides the HTTP client (default: a dedicated client
	// with no overall timeout — cell requests are bounded by their
	// context, probes by ProbeEvery).
	Client *http.Client
	// Logger receives the coordinator's structured event log: worker
	// ejected/readmitted and cell fetched, the latter tagged with the
	// cell's correlation id. Nil discards.
	Logger *slog.Logger
}

// worker is one registry slot.
type worker struct {
	addr  string // normalized base URL (http://host:port)
	alive atomic.Bool
	lat   stats.LatencyWindow
}

// Coordinator routes cells to workers. It implements
// experiments.RemoteCellRunner, so plugging it into Runner.Remote is
// the entire integration surface. Safe for concurrent use.
type Coordinator struct {
	workers []*worker
	opts    Options
	client  *http.Client
	log     *slog.Logger

	cellsSent atomic.Int64
	retried   atomic.Int64
	ejections atomic.Int64

	stopProbe context.CancelFunc
	probeDone chan struct{}
}

// Compile-time check: the coordinator is a RemoteCellRunner.
var _ experiments.RemoteCellRunner = (*Coordinator)(nil)

// NormalizeAddr canonicalizes one worker address: schemeless
// "host:port" gets http://, trailing slashes are dropped, and the
// result must parse to an absolute http(s) URL with a host.
func NormalizeAddr(addr string) (string, error) {
	a := strings.TrimSpace(addr)
	if a == "" {
		return "", fmt.Errorf("empty worker address")
	}
	if !strings.Contains(a, "://") {
		a = "http://" + a
	}
	u, err := url.Parse(a)
	if err != nil {
		return "", fmt.Errorf("worker address %q: %w", addr, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("worker address %q: scheme %q not supported (http/https only)", addr, u.Scheme)
	}
	if u.Host == "" {
		return "", fmt.Errorf("worker address %q: no host", addr)
	}
	u.Path = strings.TrimRight(u.Path, "/")
	u.RawQuery, u.Fragment = "", ""
	return u.String(), nil
}

// New builds a coordinator over the given worker addresses (order is
// preserved in Stats) and starts the health prober. Close stops it.
func New(addrs []string, opts Options) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("fabric: no workers")
	}
	if opts.Scale == 0 {
		opts.Scale = 1
	}
	if opts.ProbeEvery <= 0 {
		opts.ProbeEvery = 2 * time.Second
	}
	c := &Coordinator{
		opts:   opts,
		client: opts.Client,
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	c.log = opts.Logger
	if c.log == nil {
		c.log = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		n, err := NormalizeAddr(a)
		if err != nil {
			return nil, fmt.Errorf("fabric: %w", err)
		}
		if seen[n] {
			return nil, fmt.Errorf("fabric: duplicate worker %s", n)
		}
		seen[n] = true
		w := &worker{addr: n}
		w.alive.Store(true) // optimistic: the first probe or request corrects it
		c.workers = append(c.workers, w)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.stopProbe = cancel
	c.probeDone = make(chan struct{})
	go c.probeLoop(ctx)
	return c, nil
}

// Close stops the health prober. In-flight RemoteCell calls are
// unaffected (they are bounded by their own contexts).
func (c *Coordinator) Close() {
	c.stopProbe()
	<-c.probeDone
}

// Stats snapshots the fabric counters and the per-worker breakdown
// (workers in registration order).
func (c *Coordinator) Stats() report.FabricStats {
	fs := report.FabricStats{
		CellsSent: c.cellsSent.Load(),
		Retried:   c.retried.Load(),
		Ejections: c.ejections.Load(),
	}
	for _, w := range c.workers {
		s := w.lat.Snapshot()
		fs.Workers = append(fs.Workers, report.FabricWorker{
			Addr:     w.addr,
			Alive:    w.alive.Load(),
			Requests: s.Requests,
			Errors:   s.Errors,
			Window:   s.Window,
			P50Milli: s.P50Milli,
			P99Milli: s.P99Milli,
		})
	}
	return fs
}

// RemoteCell fetches one cell through placement rounds over the worker
// registry. It implements experiments.RemoteCellRunner.
func (c *Coordinator) RemoteCell(ctx context.Context, workload string, config experiments.ConfigName, fid sim.Fidelity, overhead bool) (report.Cell, error) {
	// The cell key is the serve flight key (every default normalized)
	// under the report schema version: it ranks the workers for the
	// cell and names it in the event log.
	key := fmt.Sprintf("v%d/%s", report.Version,
		serve.SimFlightKey(workload, string(config), c.opts.Scale, fid, overhead))
	// One correlation id per cell fetch, reused across every attempt
	// (retries included), so the same id ties together the
	// coordinator's event log, each worker's request log, and the
	// workers' flight-recorder dumps.
	reqID := serve.NewRequestID()
	body, err := json.Marshal(&serve.SimRequest{
		Workload: workload,
		Config:   string(config),
		Scale:    c.opts.Scale,
		Fidelity: string(fid.OrExact()),
		Overhead: overhead,
	})
	if err != nil {
		return report.Cell{}, err
	}
	return c.fetch(ctx, key, reqID, body)
}

// attemptOut is one worker request's outcome.
type attemptOut struct {
	cell      report.Cell
	err       error
	permanent bool          // a definitive worker answer: retrying cannot help
	backoff   time.Duration // >0 for 429/503: the worker asked us to wait
}

// maxBusyRetries bounds how often one cell re-places after a 429/503:
// a busy answer means the fleet is saturated (or draining), not
// broken, so it does not consume a placement round — but a fleet that
// answers busy forever must still fail the cell rather than spin.
const maxBusyRetries = 256

// fetch runs the placement rounds for one cell. It ranks the workers
// once, and round n goes to the n-th worker of that fixed order
// (wrapping), so a worker that failed the cell is asked again only
// after every other worker has had its turn. Transport failures
// consume a round, and the cell fails after one round per worker
// (minimum 2); busy answers (429/503) only consume the backoff the
// worker asked for, and permanent worker answers (other 4xx/5xx) fail
// the cell immediately.
func (c *Coordinator) fetch(ctx context.Context, key, reqID string, body []byte) (report.Cell, error) {
	order := c.ranking(key)
	var lastErr error
	rounds, busy := 0, 0
	for n := 0; ; n++ {
		w := order[n%len(order)]
		if n > 0 {
			c.retried.Add(1)
		}
		out := c.attempt(ctx, w, reqID, body)
		if out.err == nil {
			c.log.LogAttrs(ctx, slog.LevelInfo, "cell fetched",
				slog.String("cell", key),
				slog.String("request_id", reqID),
				slog.String("worker", w.addr),
				slog.Int("round", n+1))
			return out.cell, nil
		}
		if ctx.Err() != nil {
			return report.Cell{}, ctx.Err()
		}
		if out.permanent {
			return report.Cell{}, out.err
		}
		lastErr = out.err
		if out.backoff > 0 {
			if busy++; busy > maxBusyRetries {
				return report.Cell{}, fmt.Errorf("fabric: cell %s still rejected after %d busy retries: %w", key, maxBusyRetries, lastErr)
			}
			t := time.NewTimer(out.backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return report.Cell{}, ctx.Err()
			}
			continue
		}
		if rounds++; rounds >= max(2, len(c.workers)) {
			return report.Cell{}, fmt.Errorf("fabric: cell %s failed after %d rounds: %w", key, rounds, lastErr)
		}
	}
}

// attempt sends one /v1/sim request to one worker and classifies the
// outcome. A transport failure under a live context ejects the worker;
// a canceled context (the caller gave up) is reported without touching
// worker health.
func (c *Coordinator) attempt(ctx context.Context, w *worker, reqID string, body []byte) attemptOut {
	c.cellsSent.Add(1)
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.addr+"/v1/sim", bytes.NewReader(body))
	if err != nil {
		return attemptOut{err: err, permanent: true}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.RequestIDHeader, reqID)
	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return attemptOut{err: ctx.Err()}
		}
		w.lat.Observe(time.Since(start), true)
		c.eject(w)
		return attemptOut{err: fmt.Errorf("%s: %w", w.addr, err)}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		if ctx.Err() != nil {
			return attemptOut{err: ctx.Err()}
		}
		w.lat.Observe(time.Since(start), true)
		c.eject(w)
		return attemptOut{err: fmt.Errorf("%s: reading response: %w", w.addr, err)}
	}
	w.lat.Observe(time.Since(start), resp.StatusCode != http.StatusOK)

	switch resp.StatusCode {
	case http.StatusOK:
		var sr serve.SimResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			return attemptOut{err: fmt.Errorf("%s: bad cell response: %w", w.addr, err), permanent: true}
		}
		if sr.Version > report.Version {
			return attemptOut{err: fmt.Errorf("%s: worker speaks schema version %d, this build understands %d",
				w.addr, sr.Version, report.Version), permanent: true}
		}
		// A request answered is a worker alive, however it was routed.
		c.readmit(w)
		return attemptOut{cell: sr.Cell}
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		// Busy or draining: the worker is up but shedding load. Back
		// off for the hinted interval (bounded — a sweep should route
		// around a drain, not sleep through it).
		return attemptOut{
			err:     fmt.Errorf("%s: %s", w.addr, workerError(resp.StatusCode, data)),
			backoff: retryAfter(resp, data),
		}
	default:
		// 4xx/5xx with a definitive answer (bad request, unknown
		// workload, internal error): re-sending the same bytes cannot
		// produce a different result.
		return attemptOut{
			err:       fmt.Errorf("%s: %s", w.addr, workerError(resp.StatusCode, data)),
			permanent: true,
		}
	}
}

// eject transitions a worker to dead, counting (and logging) only
// live→dead edges (a worker can be ejected and readmitted repeatedly
// over one sweep).
func (c *Coordinator) eject(w *worker) {
	if w.alive.CompareAndSwap(true, false) {
		c.ejections.Add(1)
		c.log.LogAttrs(context.Background(), slog.LevelWarn, "worker ejected",
			slog.String("worker", w.addr))
	}
}

// readmit transitions a worker back to live, logging only dead→live
// edges.
func (c *Coordinator) readmit(w *worker) {
	if w.alive.CompareAndSwap(false, true) {
		c.log.LogAttrs(context.Background(), slog.LevelInfo, "worker readmitted",
			slog.String("worker", w.addr))
	}
}

// ranking orders the workers for one cell key: live workers first,
// each group by descending rendezvous score. The per-key shuffle
// spreads a sweep's cells evenly and deterministically across the
// fleet — each cell has a stable preferred worker, so serve-side
// flight caches warm on disjoint shards. Dead workers stay in the
// ranking (at the end): if every live worker fails the cell, a later
// round may still land on a recovered one before its next probe.
func (c *Coordinator) ranking(key string) []*worker {
	type scored struct {
		w     *worker
		alive bool
		score uint64
	}
	s := make([]scored, len(c.workers))
	for i, w := range c.workers {
		h := fnv.New64a()
		io.WriteString(h, key)
		io.WriteString(h, "|")
		io.WriteString(h, w.addr)
		s[i] = scored{w: w, alive: w.alive.Load(), score: h.Sum64()}
	}
	sort.Slice(s, func(i, j int) bool {
		if s[i].alive != s[j].alive {
			return s[i].alive
		}
		if s[i].score != s[j].score {
			return s[i].score > s[j].score
		}
		return s[i].w.addr < s[j].w.addr
	})
	out := make([]*worker, len(s))
	for i, e := range s {
		out[i] = e.w
	}
	return out
}

// probeLoop polls every worker's /healthz on the probe period,
// ejecting failures and readmitting recoveries.
func (c *Coordinator) probeLoop(ctx context.Context) {
	defer close(c.probeDone)
	t := time.NewTicker(c.opts.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			for _, w := range c.workers {
				c.probe(ctx, w)
			}
		}
	}
}

// probe checks one worker's health endpoint. 200 readmits; anything
// else (a drain 503, a refused connection) ejects.
func (c *Coordinator) probe(ctx context.Context, w *worker) {
	pctx, cancel := context.WithTimeout(ctx, min(c.opts.ProbeEvery, time.Second))
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, w.addr+"/healthz", nil)
	if err != nil {
		c.eject(w)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			c.eject(w)
		}
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		c.readmit(w)
	} else {
		c.eject(w)
	}
}

// workerError extracts the error string from a non-2xx worker body,
// falling back to the raw status.
func workerError(status int, data []byte) string {
	var er serve.ErrorResponse
	if err := json.Unmarshal(data, &er); err == nil && er.Error != "" {
		return fmt.Sprintf("HTTP %d: %s", status, er.Error)
	}
	return fmt.Sprintf("HTTP %d", status)
}

// retryAfter is the backoff a 429/503 asks for, bounded to keep a
// draining worker from stalling the whole sweep.
func retryAfter(resp *http.Response, data []byte) time.Duration {
	d := 100 * time.Millisecond
	var er serve.ErrorResponse
	if err := json.Unmarshal(data, &er); err == nil && er.RetryAfterSec > 0 {
		d = time.Duration(er.RetryAfterSec) * time.Second
	}
	return min(d, 2*time.Second)
}
