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
//   - hedged retries — a cell whose first request outlives the
//     worker's recent p99 (or a configured delay) is re-issued to a
//     second worker, first success wins and the loser is canceled;
//   - per-worker latency/error accounting and fabric counters, folded
//     into the bench timing record (report.FabricStats).
//
// It keeps no cells: the runner it serves keeps each cell it fetched
// and asks for each once, and every worker keeps its own replies.
//
// Cell placement uses rendezvous hashing over the live worker set:
// each cell has a stable preferred worker, so every worker's serve
// cache warms on a distinct shard of the sweep instead of all workers
// computing all cells.
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
	// HedgeAfter is the ceiling on how long a cell request runs before
	// a second worker is raced against it (default 3s). Once a worker
	// has enough observed latency history, the hedge fires at twice
	// its recent p99 instead, capped by this ceiling — slow-worker
	// detection adapts to the actual cell cost.
	HedgeAfter time.Duration
	// Rounds is how many failed placement rounds a cell survives before
	// the fabric gives up (default: one round per worker, minimum 2; a
	// round is one primary request plus its hedge). Only transport
	// failures consume a round: busy answers (429/503) just wait out
	// their backoff, and permanent worker answers (other 4xx/5xx) fail
	// the cell immediately.
	Rounds int
	// ProbeEvery is the health-probe period (default 2s).
	ProbeEvery time.Duration
	// CellTimeoutMS is stamped on each request's timeout_ms field
	// (0 = the worker's default timeout).
	CellTimeoutMS int64
	// APIKey, when set, rides every cell request as `Authorization:
	// Bearer` so sweeps work against an authed gateway fleet. A fleet
	// answering 401 fails the sweep fast (permanent, not retried).
	APIKey string
	// Client overrides the HTTP client (default: a dedicated client
	// with no overall timeout — cell requests are bounded by their
	// context, probes by ProbeEvery).
	Client *http.Client
	// Logger receives the coordinator's structured event log: worker
	// ejected/readmitted, cell fetched, hedge fired/won/lost — each
	// tagged with the cell's correlation id where one applies. Nil
	// discards.
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
	hedged    atomic.Int64
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
	if opts.HedgeAfter <= 0 {
		opts.HedgeAfter = 3 * time.Second
	}
	if opts.Rounds <= 0 {
		opts.Rounds = max(2, len(addrs))
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
		Hedged:    c.hedged.Load(),
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

// RemoteCell fetches one cell through hedged placement rounds over the
// worker registry. It implements experiments.RemoteCellRunner.
func (c *Coordinator) RemoteCell(ctx context.Context, workload string, config experiments.ConfigName, fid sim.Fidelity, overhead bool) (report.Cell, error) {
	// The cell key is the serve flight key (every default normalized)
	// under the report schema version: it ranks the workers for the
	// cell and names it in the event log.
	key := fmt.Sprintf("v%d/%s", report.Version,
		serve.SimFlightKey(workload, string(config), c.opts.Scale, fid, overhead))
	// One correlation id per cell fetch, reused across every attempt
	// (hedges and retries included), so the same id ties together the
	// coordinator's event log, each worker's request log, and the
	// workers' flight-recorder dumps.
	reqID := serve.NewRequestID()
	body, err := json.Marshal(&serve.SimRequest{
		Workload:  workload,
		Config:    string(config),
		Scale:     c.opts.Scale,
		Fidelity:  string(fid.OrExact()),
		Overhead:  overhead,
		TimeoutMS: c.opts.CellTimeoutMS,
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
	from      *worker       // who answered (nil for pre-send failures)
	permanent bool          // a definitive worker answer: retrying cannot help
	backoff   time.Duration // >0 for 429/503: the worker asked us to wait
}

// maxBusyRetries bounds how often one cell re-places after a 429/503:
// a busy answer means the fleet is saturated (or draining), not
// broken, so it does not consume a placement round — but a fleet that
// answers busy forever must still fail the cell rather than spin.
const maxBusyRetries = 256

// fetch runs the placement rounds for one cell. Each placement sends
// to the next worker in the cell's rendezvous ranking and hedges onto
// the following one if the primary outlives its hedge delay; the
// first success wins and cancels the other request. Transport
// failures consume a round; busy answers (429/503) only consume the
// backoff the worker asked for.
func (c *Coordinator) fetch(ctx context.Context, key, reqID string, body []byte) (report.Cell, error) {
	var lastErr error
	rounds, busy := 0, 0
	for n := 0; ; n++ {
		order := c.ranking(key)
		primary := order[n%len(order)]
		var hedge *worker
		if len(order) > 1 {
			hedge = order[(n+1)%len(order)]
		}
		if n > 0 {
			c.retried.Add(1)
		}
		cell, out, err := c.round(ctx, primary, hedge, reqID, body)
		if err == nil {
			c.log.LogAttrs(ctx, slog.LevelInfo, "cell fetched",
				slog.String("cell", key),
				slog.String("request_id", reqID),
				slog.String("worker", out.from.addr),
				slog.Int("round", n+1))
			return cell, nil
		}
		if ctx.Err() != nil {
			return report.Cell{}, ctx.Err()
		}
		if out.permanent {
			return report.Cell{}, err
		}
		lastErr = err
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
		if rounds++; rounds >= c.opts.Rounds {
			return report.Cell{}, fmt.Errorf("fabric: cell %s failed after %d rounds: %w", key, c.opts.Rounds, lastErr)
		}
	}
}

// round issues one primary request and, if it outlives the hedge
// delay, races a second worker against it. The returned attemptOut
// describes the decisive failure when err != nil.
func (c *Coordinator) round(ctx context.Context, primary, hedge *worker, reqID string, body []byte) (report.Cell, attemptOut, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan attemptOut, 2)
	go c.attempt(actx, primary, reqID, body, results)
	outstanding := 1

	timer := time.NewTimer(c.hedgeDelay(primary))
	defer timer.Stop()
	hedgeArmed := hedge != nil
	hedgeFired := false

	var decisive attemptOut
	var lastErr error
	for outstanding > 0 {
		select {
		case <-timer.C:
			if hedgeArmed {
				hedgeArmed = false
				hedgeFired = true
				c.hedged.Add(1)
				c.log.LogAttrs(ctx, slog.LevelInfo, "hedge fired",
					slog.String("request_id", reqID),
					slog.String("primary", primary.addr),
					slog.String("hedge", hedge.addr))
				go c.attempt(actx, hedge, reqID, body, results)
				outstanding++
			}
		case out := <-results:
			outstanding--
			if out.err == nil {
				if hedgeFired {
					// The race is decided: say who won (the loser's
					// request is canceled by the deferred cancel).
					verdict := "hedge lost"
					if out.from == hedge {
						verdict = "hedge won"
					}
					c.log.LogAttrs(ctx, slog.LevelInfo, verdict,
						slog.String("request_id", reqID),
						slog.String("winner", out.from.addr))
				}
				return out.cell, out, nil
			}
			lastErr = out.err
			// Keep the stronger verdict: a permanent answer or a
			// requested backoff beats a plain transport failure.
			if out.permanent || (out.backoff > 0 && decisive.backoff == 0) {
				decisive = out
			}
			if out.permanent {
				return report.Cell{}, out, out.err
			}
			// The primary failed before the hedge fired: promote the
			// hedge worker immediately rather than waiting out the
			// timer with nothing in flight.
			if outstanding == 0 && hedgeArmed {
				hedgeArmed = false
				go c.attempt(actx, hedge, reqID, body, results)
				outstanding++
			}
		case <-ctx.Done():
			return report.Cell{}, attemptOut{err: ctx.Err()}, ctx.Err()
		}
	}
	if decisive.err == nil {
		decisive = attemptOut{err: lastErr}
	}
	return report.Cell{}, decisive, lastErr
}

// attempt sends one /v1/sim request to one worker and classifies the
// outcome. A transport failure under a live parent context ejects the
// worker; a canceled context (the other racer won, or the caller gave
// up) is reported without touching worker health.
func (c *Coordinator) attempt(ctx context.Context, w *worker, reqID string, body []byte, results chan<- attemptOut) {
	c.cellsSent.Add(1)
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.addr+"/v1/sim", bytes.NewReader(body))
	if err != nil {
		results <- attemptOut{err: err, from: w, permanent: true}
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.RequestIDHeader, reqID)
	if c.opts.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.opts.APIKey)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			results <- attemptOut{err: ctx.Err(), from: w}
			return
		}
		w.lat.Observe(time.Since(start), true)
		c.eject(w)
		results <- attemptOut{err: fmt.Errorf("%s: %w", w.addr, err), from: w}
		return
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		if ctx.Err() != nil {
			results <- attemptOut{err: ctx.Err(), from: w}
			return
		}
		w.lat.Observe(time.Since(start), true)
		c.eject(w)
		results <- attemptOut{err: fmt.Errorf("%s: reading response: %w", w.addr, err), from: w}
		return
	}
	w.lat.Observe(time.Since(start), resp.StatusCode != http.StatusOK)

	switch resp.StatusCode {
	case http.StatusOK:
		var sr serve.SimResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			results <- attemptOut{err: fmt.Errorf("%s: bad cell response: %w", w.addr, err), from: w, permanent: true}
			return
		}
		if sr.Version > report.Version {
			results <- attemptOut{err: fmt.Errorf("%s: worker speaks schema version %d, this build understands %d",
				w.addr, sr.Version, report.Version), from: w, permanent: true}
			return
		}
		// A request answered is a worker alive, however it was routed.
		c.readmit(w)
		results <- attemptOut{cell: sr.Cell, from: w}
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		// Busy or draining: the worker is up but shedding load. Back
		// off for the hinted interval (bounded — a sweep should route
		// around a drain, not sleep through it).
		results <- attemptOut{
			err:     fmt.Errorf("%s: %s", w.addr, workerError(resp.StatusCode, data)),
			from:    w,
			backoff: retryAfter(resp, data),
		}
	default:
		// 4xx/5xx with a definitive answer (bad request, unknown
		// workload, internal error): re-sending the same bytes cannot
		// produce a different result.
		results <- attemptOut{
			err:       fmt.Errorf("%s: %s", w.addr, workerError(resp.StatusCode, data)),
			from:      w,
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

// hedgeDelay is when to race a second worker against w: twice w's
// recent p99 once enough history exists, capped by the configured
// ceiling (and floored so a fast worker is not hedged on noise).
func (c *Coordinator) hedgeDelay(w *worker) time.Duration {
	d := c.opts.HedgeAfter
	if s := w.lat.Snapshot(); s.Requests >= 8 && s.P99Milli > 0 {
		adaptive := time.Duration(2 * s.P99Milli * float64(time.Millisecond))
		adaptive = max(adaptive, 10*time.Millisecond)
		if adaptive < d {
			d = adaptive
		}
	}
	return d
}

// ranking orders the workers for one cell key: live workers first,
// each group by descending rendezvous score. The per-key shuffle
// spreads a sweep's cells evenly and deterministically across the
// fleet — each cell has a stable preferred worker, so serve-side
// flight caches warm on disjoint shards. Dead workers stay in the
// ranking (at the end): if every live worker fails a round, a retry
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
