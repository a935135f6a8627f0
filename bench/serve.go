package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"watchdog/internal/experiments"
	"watchdog/internal/fabric"
	"watchdog/internal/report"
	"watchdog/internal/serve"
	"watchdog/internal/sim"
	"watchdog/internal/stats"
)

// figureRuns are the invocations one serve-fabric batch replays, in
// order: the traffic of `watchdog-bench -exp fig7 -workers A`, then
// `-exp fig9`, then `-exp fig11`, against one watchdog-serve A — the
// repository's only /v1/sim client, run the way EXPERIMENTS.md runs it.
// Each invocation has a fresh coordinator whose cell cache starts
// empty, so Fig9 and Fig11 ask again for the baseline and isa cells Fig7
// already had computed, and the service answers those from its cache.
var figureRuns = []struct {
	name string
	fig  func(*experiments.Runner) (*stats.Table, error)
}{
	{"fig7", (*experiments.Runner).Fig7},
	{"fig9", (*experiments.Runner).Fig9},
	{"fig11", (*experiments.Runner).Fig11},
}

// exchange is one /v1/sim request the coordinator sent and its answer.
type exchange struct {
	req     serve.SimRequest
	id      string // X-Request-ID
	start   time.Time
	latency time.Duration // from sending the request to the end of its answer
	status  int
	body    []byte
	err     error
	resp    *serve.SimResponse // the decoded answer, once judged correct
}

// key is the cell the exchange asked for, as the service keys it.
func (e *exchange) key() string {
	return serve.SimFlightKey(e.req.Workload, e.req.Config, e.req.Scale, sim.Fidelity(e.req.Fidelity), e.req.Overhead)
}

// recorder is the coordinator's HTTP transport. It times each /v1/sim
// exchange and keeps its answer for checking; other requests (the
// coordinator's /healthz probes) pass through.
type recorder struct {
	next http.RoundTripper
	mu   sync.Mutex
	ex   []exchange
}

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/sim" {
		return r.next.RoundTrip(req)
	}
	e := exchange{id: req.Header.Get(serve.RequestIDHeader)}
	if err := readSimRequest(req, &e.req); err != nil {
		return nil, fmt.Errorf("record request: %w", err)
	}
	e.start = time.Now()
	resp, err := r.next.RoundTrip(req)
	if err == nil {
		e.status = resp.StatusCode
		e.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(e.body))
	}
	e.latency = time.Since(e.start)
	e.err = err
	r.mu.Lock()
	r.ex = append(r.ex, e)
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// readSimRequest decodes a /v1/sim request's body without consuming it.
func readSimRequest(req *http.Request, into *serve.SimRequest) error {
	if req.GetBody == nil {
		return errors.New("body cannot be read twice")
	}
	body, err := req.GetBody()
	if err != nil {
		return err
	}
	defer body.Close()
	return json.NewDecoder(body).Decode(into)
}

// checkSim decodes a /v1/sim answer and checks it: the schema and
// version, the cell echoed back, a complete run, and a CPI stack that
// sums to the cycle count.
func checkSim(body []byte, req serve.SimRequest) (*serve.SimResponse, error) {
	var r serve.SimResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	cell := &r.Cell
	switch {
	case r.Schema != serve.Schema || r.Version != serve.Version:
		return nil, fmt.Errorf("schema %q version %d", r.Schema, r.Version)
	case cell.Workload != req.Workload || cell.Config != req.Config:
		return nil, fmt.Errorf("answered %s/%s", cell.Workload, cell.Config)
	case cell.Partial:
		return nil, errors.New("partial cell")
	case cell.BaseCycles+cell.CheckCycles+cell.LockMissCycles+cell.MetaCycles != cell.Cycles:
		return nil, fmt.Errorf("CPI stack does not sum to %d cycles", cell.Cycles)
	}
	return &r, nil
}

// judge checks a batch's exchanges in the order they were sent and
// counts each as an operation. A transport error, a status other than
// 200 (429 and 5xx included), an answer checkSim rejects, or a replay
// that differs from the first answer for its cell fails it, and a
// failed exchange is never a latency sample. A correct answer is a miss
// (the first for its cell on this server) or a hit.
func judge(p *part, ex []exchange) (hits, misses []*exchange) {
	slices.SortFunc(ex, func(a, b exchange) int { return a.start.Compare(b.start) })
	first := make(map[string][]byte)
	p.Attempted += len(ex)
	for i := range ex {
		e := &ex[i]
		err := e.err
		if err == nil && e.status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", e.status, bytes.TrimSpace(e.body))
		}
		if err == nil {
			e.resp, err = checkSim(e.body, e.req)
		}
		want, replay := first[e.key()]
		if err == nil && replay && !bytes.Equal(e.body, want) {
			err = errors.New("replay differs from the first answer")
		}
		switch {
		case err != nil:
			p.fail(1, "request %s (%s/%s): %v", e.id, e.req.Workload, e.req.Config, err)
		case replay:
			hits = append(hits, e)
		default:
			first[e.key()] = e.body
			misses = append(misses, e)
		}
	}
	return hits, misses
}

// batchResult is one serve-fabric batch.
type batchResult struct {
	wall          time.Duration
	hits, misses  []*exchange
	sent, retried int64 // the coordinators' cells_sent and retried, summed
}

// serveBatch runs the figure invocations against the service at url
// over at most o.workers connections. An operation is one exchange, or
// one figure a coordinator assembles.
func serveBatch(ctx context.Context, o *options, url string, kernels []string, p *part) batchResult {
	rec := &recorder{next: &http.Transport{MaxConnsPerHost: o.workers, MaxIdleConnsPerHost: o.workers}}
	client := &http.Client{Transport: rec}
	defer client.CloseIdleConnections()
	var b batchResult
	start := time.Now()
	for _, f := range figureRuns {
		p.Attempted++
		if err := invoke(ctx, o, url, client, kernels, f.fig, &b); err != nil {
			p.fail(1, "%s: %v", f.name, err)
		}
	}
	b.wall = time.Since(start)
	b.hits, b.misses = judge(p, rec.ex)
	return b
}

// invoke assembles one figure the way `watchdog-bench -exp figN
// -workers url` does: a fresh runner whose cells come from a fresh
// fabric coordinator.
func invoke(ctx context.Context, o *options, url string, client *http.Client, kernels []string,
	fig func(*experiments.Runner) (*stats.Table, error), b *batchResult) error {
	coord, err := fabric.New([]string{url}, fabric.Options{Scale: o.size.serveScale, Client: client})
	if err != nil {
		return err
	}
	defer coord.Close()
	r, err := experiments.NewRunner(o.size.serveScale, kernels...)
	if err != nil {
		return err
	}
	r.Jobs = o.workers
	r.Remote = coord
	r.Ctx = ctx
	_, err = fig(r)
	st := coord.Stats()
	b.sent += st.CellsSent
	b.retried += st.Retried
	return err
}

// latencies returns the exchanges' latencies in ms.
func latencies(ex []*exchange) []float64 {
	out := make([]float64, len(ex))
	for i, e := range ex {
		out[i] = ms(e.latency)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// missInsts sums the simulated instructions of the cells the service
// computed.
func missInsts(misses []*exchange) uint64 {
	var n uint64
	for _, e := range misses {
		n += e.resp.Cell.Insts
	}
	return n
}

// serveEnv is the service under test on a loopback listener.
type serveEnv struct {
	http *http.Server
	done chan error
	url  string
}

// startServe starts serve.New(serve.Config{}) — the defaults
// watchdog-serve runs with — with the tracing middleware when tr is
// set.
func startServe(tr *tracer) (*serveEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := serve.New(serve.Config{}).Handler()
	if tr != nil {
		h = tr.middleware(h)
	}
	e := &serveEnv{http: &http.Server{Handler: h}, done: make(chan error, 1), url: "http://" + ln.Addr().String()}
	go func() { e.done <- e.http.Serve(ln) }()
	return e, nil
}

// stop shuts the listener down and waits for the server goroutine.
func (e *serveEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.http.Shutdown(ctx) // a drain that times out still closes the listener
	<-e.done
}

// metrics reads the service's GET /metrics document.
func (e *serveEnv) metrics(ctx context.Context) (*serve.Metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &m, nil
}

// middleware records a span around each request the service handles,
// keyed by its X-Request-ID.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := t.begin("serve.handler", 0, r.Header.Get(serve.RequestIDHeader))
		next.ServeHTTP(w, r)
		sp.end()
	})
}

// runServe is the serve-fabric workload. Set-up starts the service on a
// loopback listener; one batch is the figure invocations against it.
// The traced run follows the batch with a second one against a fresh
// service wrapped in the tracing middleware, for the handler spans.
func runServe(ctx context.Context, o *options, ready func() bool) (*part, error) {
	ws, err := kernelList(o.size.kernels)
	if err != nil {
		return nil, err
	}
	env, err := startServe(nil)
	if err != nil {
		return nil, err
	}
	defer env.stop()
	if !ready() {
		return nil, nil
	}
	p := newPart()
	b := serveBatch(ctx, o, env.url, kernelNames(ws), p)
	hit, hitPct, nHit := tail(latencies(b.hits))
	miss, missPct, nMiss := tail(latencies(b.misses))
	o.notef("%d requests over %d invocations, raw host time: wall_s %.3f, ops_per_s %.1f, sim_mips %.3f; "+
		"hits p50 %.3f ms, p%g %.3f ms (n=%d); misses p50 %.3f ms, p%g %.3f ms (n=%d)",
		nHit+nMiss, len(figureRuns), b.wall.Seconds(), float64(nHit+nMiss)/b.wall.Seconds(),
		float64(missInsts(b.misses))/1e6/b.wall.Seconds(),
		median(latencies(b.hits)), hitPct, hit, nHit, median(latencies(b.misses)), missPct, miss, nMiss)
	if o.tr == nil {
		p.RSS = append(p.RSS, peakRSSMB())
		return p, nil
	}
	p.set("wall_s", b.wall.Seconds())
	p.set("ops_per_s", float64(nHit+nMiss)/b.wall.Seconds())
	p.set("sim_mips", float64(missInsts(b.misses))/1e6/b.wall.Seconds())
	p.set("serve.hit_p50_ms", median(latencies(b.hits)))
	p.set("serve.hit_tail_ms", hit)
	p.set("serve.miss_p50_ms", median(latencies(b.misses)))
	p.set("serve.miss_tail_ms", miss)
	setWireModel(p, b.misses)

	tenv, err := startServe(o.tr)
	if err != nil {
		return nil, err
	}
	defer tenv.stop()
	tStart := time.Now()
	traced := serveBatch(ctx, o, tenv.url, kernelNames(ws), p)
	m, err := tenv.metrics(ctx)
	if err != nil {
		return nil, err
	}
	p.set("bench.trace_overhead_pct", o.tr.overheadPct(tStart, o.workers))
	serveLayers(o.tr, p, traced, m)
	return p, nil
}

// serveLayers computes the traced batch's service metrics. It adds a
// client span per exchange (from sending the request to the end of its
// answer), parents the middleware's handler span on it by request id,
// and places a compute span (the wall_nanos the service reports) at the
// end of each miss's handler span. The service is fresh, so its
// /metrics counters are the batch's.
func serveLayers(tr *tracer, p *part, b batchResult, m *serve.Metrics) {
	tr.mu.Lock()
	handler := make(map[string]int)
	for i, s := range tr.spans {
		if s.Name == "serve.handler" && s.Key != "" {
			handler[s.Key] = i
		}
	}
	var replayUs, transportUs, computeMs, waitMs []float64
	for _, e := range append(slices.Clone(b.hits), b.misses...) {
		start := tr.at(e.start)
		client := span{Name: "client", ID: tr.nextID.Add(1), Key: e.id, StartNs: start, EndNs: start + e.latency.Nanoseconds()}
		tr.spans = append(tr.spans, client)
		hi, ok := handler[e.id]
		if !ok {
			continue
		}
		tr.spans[hi].Parent = client.ID
		h := tr.spans[hi]
		if !slices.Contains(b.misses, e) {
			replayUs = append(replayUs, float64(h.dur())/1e3)
			transportUs = append(transportUs, float64(e.latency-h.dur())/1e3)
			continue
		}
		wall := e.resp.WallNanos
		tr.spans = append(tr.spans, span{Name: "serve.compute", ID: tr.nextID.Add(1), Parent: h.ID, Key: e.id,
			StartNs: h.EndNs - wall, EndNs: h.EndNs})
		computeMs = append(computeMs, float64(wall)/1e6)
		waitMs = append(waitMs, ms(h.dur()-time.Duration(wall)))
	}
	tr.mu.Unlock()

	p.set("serve.handler_replay_us", median(replayUs))
	p.set("serve.transport_us", median(transportUs))
	p.set("serve.compute_ms_p50", percentile(computeMs, 50))
	p.set("serve.compute_ms_p90", percentile(computeMs, 90))
	p.set("serve.wait_ms", median(waitMs))
	p.set("serve.sims", float64(m.Harness.Sims))
	p.set("serve.coalesced", float64(m.Coalesced))
	p.set("serve.rejected_busy", float64(m.RejectedBusy))
	p.set("serve.cache_hit_ratio", m.Harness.CacheHitRatio)
	p.set("fabric.cells_sent", float64(b.sent))
	p.set("fabric.retried", float64(b.retried))
}

// setWireModel reports the simulated statistics of the cells the
// service computed, summed, and their digest in a fixed order. The wire
// cell carries no misprediction count, so model.mispredicts stays 0.
func setWireModel(p *part, misses []*exchange) {
	cells := make([]report.Cell, len(misses))
	for i, e := range misses {
		cells[i] = e.resp.Cell
	}
	slices.SortFunc(cells, func(a, b report.Cell) int {
		return strings.Compare(a.Workload+"/"+a.Config, b.Workload+"/"+b.Config)
	})
	var insts, uops, cycles, checks, l1d, lock uint64
	d := newDigest()
	for _, c := range cells {
		insts += c.Insts
		uops += c.Uops
		cycles += uint64(c.Cycles)
		checks += c.UopsByMeta["check"]
		l1d += c.L1DMisses
		lock += c.LockCacheMisses
		d.str(c.Workload + "/" + c.Config)
		d.u64(c.Insts, c.Uops, uint64(c.Cycles), uint64(c.BaseCycles), uint64(c.CheckCycles),
			uint64(c.LockMissCycles), uint64(c.MetaCycles), c.L1DAccesses, c.L1DMisses,
			c.LockCacheAccesses, c.LockCacheMisses, c.L2Misses, c.L3Misses, c.Checks)
	}
	p.set("model.insts", float64(insts))
	p.set("model.uops", float64(uops))
	p.set("model.cycles", float64(cycles))
	p.set("model.check_uops", float64(checks))
	p.set("model.l1d_misses", float64(l1d))
	p.set("model.lock_misses", float64(lock))
	p.set("model.digest", d.value())
}
