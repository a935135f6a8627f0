// Package serve is the simulation service behind watchdog-serve: an
// HTTP/JSON front end over the experiments runner. Requests name a
// (workload, configuration, scale) cell or a security policy; the
// response is the same schema-v1 record the batch harness writes, so
// a client cannot tell (and need not care) whether a document came
// from `watchdog-bench -json` or from the service.
//
// The service layers three policies over the runner:
//
//   - Coalescing. Identical in-flight requests collapse onto one
//     computation (a per-key flight in a flight.Group of reply bodies,
//     riding the runner's own Groups underneath), and completed
//     flights are replayed from memory — the simulations are
//     deterministic, so a kept response is indistinguishable from a
//     fresh one.
//   - Backpressure. New computations pass through a bounded worker
//     semaphore; when it is saturated the request is rejected
//     immediately with 429 and a Retry-After hint instead of queuing
//     without bound. Coalesced waiters do not hold slots.
//   - Deadlines and drain. Every computation runs under a context
//     capped by the request's timeout_ms and the server-wide
//     RequestTimeout — and detached from its creator's connection, so
//     a disconnecting client (a canceled CLI or sweep) never kills a
//     flight that coalesced waiters are still blocked on. An expired
//     deadline is a 504 and the aborted computation is not kept, so a
//     retry recomputes. A waiter never inherits the creator's
//     deadline: while its own is live, it starts the computation
//     again. On shutdown the server stops admitting work (503), lets
//     in-flight requests finish within DrainTimeout, then
//     force-cancels whatever is still running — cancellation lands
//     mid-simulation via the machine's cooperative check.
//
// Completed results live in a two-layer store: the flight Group,
// bounded by CacheEntries, in front of an optional disk-backed
// content-addressed layer, so retention is capped and a restarted
// server replays prior results byte-identically without
// re-simulating.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"watchdog/internal/core"
	"watchdog/internal/experiments"
	"watchdog/internal/flight"
	"watchdog/internal/report"
	"watchdog/internal/rt"
	"watchdog/internal/security"
	"watchdog/internal/sim"
	"watchdog/internal/stats"
	"watchdog/internal/workload"
)

const (
	// Schema identifies the /metrics document.
	Schema = "watchdog-serve"
	// Version is the wire schema version (shared by all endpoints).
	Version = 1

	// maxBody bounds request bodies; the requests are tiny.
	maxBody = 1 << 20

	// flightLogN sizes the request flight-recorder ring behind
	// GET /debug/flights (most recent requests with their correlation
	// ids).
	flightLogN = 256
)

// Config sizes the service. Zero values select the defaults.
type Config struct {
	// MaxWorkers bounds concurrently executing computations (the
	// semaphore width). Default: GOMAXPROCS.
	MaxWorkers int
	// MaxScale rejects requests asking for a larger workload scale
	// (scale multiplies simulation cost superlinearly). Default: 4.
	MaxScale int
	// RequestTimeout caps every computation, including requests that
	// ask for a longer timeout_ms. Default: 120s.
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful-shutdown window; in-flight
	// requests still running when it expires are force-canceled.
	// Default: 30s.
	DrainTimeout time.Duration
	// Logger receives the structured request log: one record per
	// /v1/* request (method, path, flight key, status, latency,
	// request id, coalesced). Nil means a DiscardHandler logger — the
	// service never logs unless given a destination.
	Logger *slog.Logger
	// CacheEntries bounds the completed flight bodies kept in memory;
	// past it the least recently used is evicted. Default: 512.
	CacheEntries int
	// Store, when non-nil, persists completed bodies write-behind and
	// answers cold-cache replays, including across restarts.
	Store *Store
}

// DiscardHandler is the log/slog handler of every default logger, the
// server's and the fabric coordinator's: it is enabled at no level, so
// a log call on it builds and formats no record. (slog.DiscardHandler
// is the same from Go 1.24; go.mod says 1.22.)
type DiscardHandler struct{}

func (DiscardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (DiscardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h DiscardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h DiscardHandler) WithGroup(string) slog.Handler           { return h }

func (c Config) withDefaults() Config {
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxScale <= 0 {
		c.MaxScale = 4
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 120 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(DiscardHandler{})
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 512
	}
	return c
}

// SimRequest is the POST /v1/sim body.
type SimRequest struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	// Scale is the workload scale factor (default 1, capped by the
	// server's MaxScale).
	Scale int `json:"scale,omitempty"`
	// Fidelity selects the timing methodology (one of sim.Fidelities;
	// empty = exact, so old clients keep their meaning). It is a flight
	// and runner dimension: cells of different fidelities never share
	// a computation.
	Fidelity string `json:"fidelity,omitempty"`
	// Overhead additionally runs the workload's baseline cell so the
	// response carries the slowdown ratio.
	Overhead bool `json:"overhead,omitempty"`
	// TimeoutMS bounds this request; 0 means the server default. The
	// server-wide RequestTimeout still caps it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SimResponse is the POST /v1/sim success body: one report-schema
// cell plus the wall time of the computation that produced it (zero
// when the response replayed a completed flight).
type SimResponse struct {
	Schema  string      `json:"schema"`
	Version int         `json:"version"`
	Cell    report.Cell `json:"cell"`
	// WallNanos is how long the backing computation ran. Coalesced
	// and replayed requests see the original computation's time.
	WallNanos int64 `json:"wall_nanos"`
}

// JulietRequest is the POST /v1/juliet body. The response is the
// report.JulietReport `watchdog-juliet -json` writes for the same
// policy and tag width, over the same cases.
type JulietRequest struct {
	// Policy is the checking policy (any of security.Policies():
	// watchdog|conservative|location|software|xtag|dangkiller).
	// Default: watchdog.
	Policy string `json:"policy,omitempty"`
	// TagBits selects the tag width for the xtag policy (1..8; 0 = the
	// default 8). Rejected for other policies.
	TagBits   int   `json:"tag_bits,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterSec accompanies 429 (backpressure): the client should
	// back off at least this long.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

// Metrics is the GET /metrics document. A field tagged `prom`, here or
// in a nested row, is also a Prometheus series: stats.PromWriter.Struct
// renders the exposition from the tags, so the field is the series'
// only declaration.
type Metrics struct {
	Schema      string `json:"schema"`
	Version     int    `json:"version"`
	UptimeNanos int64  `json:"uptime_nanos" prom:"watchdog_serve_uptime_seconds,gauge,/1e9" help:"Seconds since the server started."`
	Draining    bool   `json:"draining" prom:"watchdog_serve_draining,gauge" help:"1 while the server is draining (refusing new work), else 0."`

	// Inflight counts computations currently executing (not coalesced
	// waiters).
	Inflight int64 `json:"inflight" prom:"watchdog_serve_inflight,gauge" help:"Computations currently executing (coalesced waiters excluded)."`
	// RejectedBusy / RejectedDraining count 429 and drain-503
	// rejections. Coalesced counts requests that joined an existing
	// flight instead of computing.
	RejectedBusy     int64 `json:"rejected_busy" prom:"watchdog_serve_rejected_total,counter,reason=busy" help:"Requests refused before reaching a flight, by reason."`
	RejectedDraining int64 `json:"rejected_draining" prom:"watchdog_serve_rejected_total,counter,reason=draining"`
	Coalesced        int64 `json:"coalesced" prom:"watchdog_serve_coalesced_total,counter" help:"Requests that joined an existing flight instead of computing."`
	// TimedOut counts 504 answers (a request's deadline expired
	// mid-computation). Added after PR 5; absent (zero) in older
	// documents.
	TimedOut int64 `json:"timed_out,omitempty" prom:"watchdog_serve_timeouts_total,counter" help:"Requests answered 504 (deadline expired mid-computation)."`

	Endpoints map[string]EndpointMetrics `json:"endpoints" prom:"endpoint,label"`
	// Store describes the result cache and disk store layers.
	Store StoreMetrics `json:"store"`
	// Harness sums the runners' counters across every scale the
	// server has simulated at, plus the security suite's.
	Harness report.Harness `json:"harness"`
}

// Server is the simulation service. Create with New, mount Handler on
// any mux or run Serve for the managed listen/drain lifecycle. A
// Server is single-use: once drained it does not restart.
type Server struct {
	cfg   Config
	start time.Time
	log   *slog.Logger

	sem      chan struct{}
	draining atomic.Bool

	inflight         atomic.Int64
	rejectedBusy     atomic.Int64
	rejectedDraining atomic.Int64
	coalesced        atomic.Int64
	timedOut         atomic.Int64

	// flights coalesces requests by flight key and keeps the completed
	// bodies, at most CacheEntries of them.
	flights flight.Group[[]byte]

	// storeWG tracks write-behind store persists so drain (and tests,
	// via Flush) can wait for them.
	storeWG sync.WaitGroup

	// flights (the request flight recorder) retains the most recent
	// requests with their correlation ids for GET /debug/flights.
	flightLog *flightLog

	// forceCtx is canceled when the drain window expires; every
	// computation context is linked to it so shutdown can abort
	// simulations that outlive DrainTimeout.
	forceCtx  context.Context
	forceStop context.CancelFunc

	mu      sync.Mutex
	runners map[int]*experiments.Runner // by scale

	simMet    endpointTrack
	julietMet endpointTrack

	// julietTiming records security-suite case timings (the runners
	// record their own).
	julietTiming stats.Timing

	// computeStarted, when non-nil, is called by each flight creator
	// after it claimed a worker slot and before it computes — a test
	// hook for deterministic backpressure, deadline and drain tests.
	computeStarted func()
}

// New builds a Server with cfg (zero fields take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		start:     time.Now(),
		log:       cfg.Logger,
		sem:       make(chan struct{}, cfg.MaxWorkers),
		runners:   make(map[int]*experiments.Runner),
		flightLog: newFlightLog(flightLogN),
	}
	s.flights.Max = cfg.CacheEntries
	s.simMet.hist = stats.NewHistogram()
	s.julietMet.hist = stats.NewHistogram()
	s.forceCtx, s.forceStop = context.WithCancel(context.Background())
	return s
}

// Handler returns the service's HTTP handler. The probe endpoints
// ride the timed wrapper with nil metrics: they resolve and echo
// X-Request-ID (so the fabric's probe loop and Prometheus scrapes are
// correlatable) without observing latency counters — a /metrics scrape
// must not perturb the document it reports.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.timed(nil, s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.timed(nil, s.handleMetrics))
	mux.HandleFunc("GET /debug/flights", s.timed(nil, s.handleFlights))
	mux.HandleFunc("POST /v1/sim", s.timed(&s.simMet, s.handleSim))
	mux.HandleFunc("POST /v1/juliet", s.timed(&s.julietMet, s.handleJuliet))
	return mux
}

// Serve accepts connections on ln until ctx is canceled, then drains:
// the listener closes, new requests are answered 503, in-flight
// requests get DrainTimeout to finish, and anything still running
// after that is force-canceled mid-simulation. Returns nil after a
// clean drain (including a forced one).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	// Refuse new work before Shutdown closes the listener, so a
	// request racing the drain gets a clean 503 instead of a reset.
	s.draining.Store(true)
	shCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(shCtx)
	if err != nil {
		// The drain window expired: abort the remaining simulations
		// (they observe forceCtx cooperatively) and close their
		// connections.
		s.forceStop()
		srv.Close()
	}
	<-errc // reap the Serve goroutine (http.ErrServerClosed)
	// Let pending write-behind persists land before reporting the drain
	// complete — a restart must find everything the old process served.
	s.storeWG.Wait()
	return nil
}

// Flush blocks until every pending write-behind store persist has
// completed (tests, and checkpoints before a planned restart).
func (s *Server) Flush() { s.storeWG.Wait() }

// reqInfo is the per-request correlation state: the resolved request
// id, plus the flight identity filled in by flightDo once the request
// reaches one. It rides the request context so the timed wrapper can
// log and flight-record the full story after the handler returns.
type reqInfo struct {
	id        string
	key       string
	coalesced bool
}

// reqInfoKey is the context key for *reqInfo.
type reqInfoKey struct{}

// requestInfo extracts the correlation state planted by timed (nil
// for handlers outside the wrapper).
func requestInfo(r *http.Request) *reqInfo {
	info, _ := r.Context().Value(reqInfoKey{}).(*reqInfo)
	return info
}

// timed wraps a handler with request-id resolution and echo, the
// structured request log, the request flight recorder, and — when met
// is non-nil — per-endpoint latency/error accounting. Probe endpoints
// pass nil: they get correlation without metering, so an idle /metrics
// scrape never perturbs the document it reports. Handlers return the
// status they wrote.
func (s *Server) timed(met *endpointTrack, fn func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		info := &reqInfo{id: resolveRequestID(r.Header.Get(RequestIDHeader))}
		// The echo header must be set before the handler writes the
		// status line; the id never changes afterwards.
		w.Header().Set(RequestIDHeader, info.id)
		r = r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, info))

		status := fn(w, r)

		elapsed := time.Since(start)
		if met != nil {
			met.win.Observe(elapsed, status >= 400)
			met.hist.Observe(elapsed)
			if status == http.StatusGatewayTimeout {
				s.timedOut.Add(1)
			}
		}
		latencyMilli := float64(elapsed) / float64(time.Millisecond)
		s.flightLog.add(FlightRecord{
			RequestID:    info.id,
			Method:       r.Method,
			Path:         r.URL.Path,
			FlightKey:    info.key,
			Status:       status,
			Coalesced:    info.coalesced,
			LatencyMilli: latencyMilli,
			UnixNanos:    time.Now().UnixNano(),
		})
		level := slog.LevelInfo
		switch {
		case status >= 500:
			level = slog.LevelWarn
		case met == nil:
			// Probes are high-frequency and boring; keep them out of the
			// default log volume.
			level = slog.LevelDebug
		}
		s.log.LogAttrs(r.Context(), level, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("request_id", info.id),
			slog.String("flight", info.key),
			slog.Bool("coalesced", info.coalesced),
			slog.Int("status", status),
			slog.Float64("latency_ms", latencyMilli),
		)
	}
}

// handleFlights serves GET /debug/flights: the request flight
// recorder, oldest first.
func (s *Server) handleFlights(w http.ResponseWriter, r *http.Request) int {
	return writeJSON(w, http.StatusOK, &FlightDump{
		Schema:  Schema,
		Version: Version,
		Flights: s.flightLog.records(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) int {
	status := http.StatusOK
	state := "ok"
	if s.draining.Load() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	return writeJSON(w, status, map[string]any{
		"status":       state,
		"uptime_nanos": time.Since(s.start).Nanoseconds(),
	})
}

// handleMetrics serves GET /metrics with content negotiation: an
// Accept header asking for text/plain (or OpenMetrics) gets the
// Prometheus text exposition; everything else — including curl's
// default */* — gets the JSON document, byte-compatible with the
// pre-Prometheus schema. Both encode the same snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	m := Metrics{
		Schema:      Schema,
		Version:     Version,
		UptimeNanos: time.Since(s.start).Nanoseconds(),
		Draining:    s.draining.Load(),

		Inflight:         s.inflight.Load(),
		RejectedBusy:     s.rejectedBusy.Load(),
		RejectedDraining: s.rejectedDraining.Load(),
		Coalesced:        s.coalesced.Load(),
		TimedOut:         s.timedOut.Load(),

		Endpoints: map[string]EndpointMetrics{
			"sim":    EndpointMetrics(s.simMet.win.Snapshot()),
			"juliet": EndpointMetrics(s.julietMet.win.Snapshot()),
		},
		Store:   s.storeMetrics(),
		Harness: s.harness(),
	}
	if wantsProm(r.Header.Get("Accept")) {
		return s.writeProm(w, &m)
	}
	return writeJSON(w, http.StatusOK, &m)
}

// harness sums the runners' harness records and the security
// suite's.
func (s *Server) harness() report.Harness {
	h := s.julietTiming.Harness()
	s.mu.Lock()
	for _, r := range s.runners {
		h.Add(r.Timing.Harness())
	}
	s.mu.Unlock()
	return h
}

// handleSim serves POST /v1/sim: validate, coalesce, compute one
// report cell.
func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) int {
	if s.draining.Load() {
		return s.refuseDraining(w)
	}
	req, st, err := parseSim(r.Body, s.cfg.MaxScale)
	if err != nil {
		return writeError(w, st, err.Error())
	}
	key := SimFlightKey(req.Workload, req.Config, req.Scale, req.fid, req.Overhead)
	return s.flightDo(w, r, &s.simMet, key, req.TimeoutMS, func(ctx context.Context) ([]byte, error) {
		rn, err := s.runner(req.Scale)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		cell, err := rn.CellCtx(ctx, req.fid, req.wl, experiments.ConfigName(req.Config), req.Overhead)
		if err != nil {
			return nil, err
		}
		return json.Marshal(&SimResponse{
			Schema:    Schema,
			Version:   Version,
			Cell:      cell,
			WallNanos: time.Since(start).Nanoseconds(),
		})
	})
}

// simCall is a /v1/sim request that passed parseSim: its defaults
// filled in and its workload and fidelity resolved.
type simCall struct {
	SimRequest
	wl  workload.Workload
	fid sim.Fidelity
}

// parseSim decodes and checks a /v1/sim body against the server's
// MaxScale. It returns the normalised request, or the status (400, or
// 413 for a body over maxBody) and error to refuse it with. It runs
// nothing, so FuzzSimRequest drives it with any body.
func parseSim(body io.Reader, maxScale int) (simCall, int, error) {
	var req SimRequest
	if st, err := decodeBody(body, &req); err != nil {
		return simCall{}, st, err
	}
	bad := func(format string, args ...any) (simCall, int, error) {
		return simCall{}, http.StatusBadRequest, fmt.Errorf(format, args...)
	}
	if req.TimeoutMS < 0 {
		return bad("timeout_ms must be >= 0, got %d", req.TimeoutMS)
	}
	wl, ok := workload.ByName(req.Workload)
	if !ok {
		return bad("unknown workload %q (known: %v)", req.Workload, workload.Names())
	}
	if !experiments.IsConfig(req.Config) {
		return bad("unknown config %q (known: %v)", req.Config, experiments.ConfigNames())
	}
	if req.Scale == 0 {
		req.Scale = 1
	}
	if req.Scale < 0 || req.Scale > maxScale {
		return bad("scale %d out of range [1, %d]", req.Scale, maxScale)
	}
	fid, err := sim.ParseFidelity(req.Fidelity)
	if err != nil {
		return simCall{}, http.StatusBadRequest, err
	}
	req.Fidelity = string(fid)
	// A baseline cell's overhead ratio is meaningless (it would be 1 by
	// definition) and the runner never computes it, so the flag is
	// normalized away: with and without it the request is the same
	// computation and must share one flight.
	if req.Config == string(experiments.CfgBaseline) {
		req.Overhead = false
	}
	return simCall{SimRequest: req, wl: wl, fid: fid}, 0, nil
}

// handleJuliet serves POST /v1/juliet: the full security suite under
// one policy. The suite fans out over the server's worker count
// internally but occupies a single admission slot — it is the
// heavyweight endpoint.
func (s *Server) handleJuliet(w http.ResponseWriter, r *http.Request) int {
	if s.draining.Load() {
		return s.refuseDraining(w)
	}
	req, st, err := parseJuliet(r.Body)
	if err != nil {
		return writeError(w, st, err.Error())
	}
	cases := julietCases()
	key := JulietFlightKey(req.Policy, req.TagBits, len(cases))
	return s.flightDo(w, r, &s.julietMet, key, req.TimeoutMS, func(ctx context.Context) ([]byte, error) {
		outs, err := security.RunCasesCtx(ctx, cases, req.cfg, req.opts, s.cfg.MaxWorkers, &s.julietTiming, nil)
		if err != nil {
			return nil, err
		}
		sum := security.SummarizeRan(cases, outs)
		return json.Marshal(&report.JulietReport{
			Schema:  report.JulietSchema,
			Version: report.Version,
			Juliet:  sum.ReportRecord(req.Policy),
		})
	})
}

// julietCases is the case list /v1/juliet runs, watchdog-juliet's
// own, built on first use. The runs only read it.
var julietCases = sync.OnceValue(security.BuiltinCases)

// julietCall is a /v1/juliet request that passed parseJuliet: its
// policy defaulted and resolved, and TagBits the width that runs.
type julietCall struct {
	JulietRequest
	cfg  core.Config
	opts rt.Options
}

// parseJuliet decodes and checks a /v1/juliet body. It returns the
// normalised request, or the status (400, or 413 for a body over
// maxBody) and error to refuse it with. It runs nothing, so
// FuzzJulietRequest drives it with any body.
func parseJuliet(body io.Reader) (julietCall, int, error) {
	var req JulietRequest
	if st, err := decodeBody(body, &req); err != nil {
		return julietCall{}, st, err
	}
	if req.TimeoutMS < 0 {
		return julietCall{}, http.StatusBadRequest,
			fmt.Errorf("timeout_ms must be >= 0, got %d", req.TimeoutMS)
	}
	if req.Policy == "" {
		req.Policy = "watchdog"
	}
	cfg, opts, err := security.PolicyConfig(req.Policy)
	if err != nil {
		return julietCall{}, http.StatusBadRequest, err
	}
	if err := security.SetTagBits(&cfg, req.TagBits); err != nil {
		return julietCall{}, http.StatusBadRequest, fmt.Errorf("tag_bits: %w", err)
	}
	// The key takes the width that runs: xtag at tag_bits 0 and 8 is
	// the same computation (the default width is 8) and must coalesce
	// onto one flight.
	req.TagBits = cfg.TagBits
	return julietCall{JulietRequest: req, cfg: cfg, opts: opts}, 0, nil
}

// refuseDraining answers a /v1/* request that arrived during drain.
// Every such request — even one a completed flight could answer — is
// refused, so the listener empties deterministically.
func (s *Server) refuseDraining(w http.ResponseWriter) int {
	s.rejectedDraining.Add(1)
	return writeError(w, http.StatusServiceUnavailable, "server is draining")
}

// errBusy refuses a new computation: every worker slot is taken.
var errBusy = errors.New("all workers busy")

// flightDo answers the request for key through the flights Group. A
// kept body replays from memory; otherwise the request joins the
// computation in flight for key or, if there is none, starts one. A
// started flight first asks the disk store, which needs no worker slot;
// only a real computation passes the worker semaphore, and when that is
// saturated the request is rejected with 429 + Retry-After instead of
// queuing. compute returns the body to keep and replay.
func (s *Server) flightDo(w http.ResponseWriter, r *http.Request, met *endpointTrack, key string, timeoutMS int64, compute func(context.Context) ([]byte, error)) int {
	info := requestInfo(r)
	if info == nil {
		info = &reqInfo{}
	}
	info.key = key
	// The deadline clock starts at admission and bounds everything the
	// request does: its wait on a shared flight, and any computation it
	// starts — including one it starts after the flight it joined died
	// of another request's deadline.
	deadline := time.Now().Add(s.timeout(timeoutMS))
	waitCtx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()
	// Replays and joins count as coalesced, once per request: the
	// request rode a computation it did not start.
	joined := func() {
		if !info.coalesced {
			info.coalesced = true
			s.coalesced.Add(1)
		}
	}
	body, err := s.flights.Do(waitCtx, key, joined, func() ([]byte, error) {
		if st := s.cfg.Store; st != nil {
			if body, ok := st.Read(key); ok {
				joined()
				return body, nil
			}
		}
		select {
		case s.sem <- struct{}{}:
		default:
			return nil, errBusy
		}
		defer func() { <-s.sem }()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		// The computation is detached from the creator's connection on
		// purpose: it runs under the server lifecycle (forceCtx, so the
		// drain deadline still force-cancels it) capped by the request's
		// deadline, never under r.Context(). A flight is shared — if the
		// creating client disconnects, the coalesced waiters still need
		// the result.
		ctx, cancel := context.WithDeadline(s.forceCtx, deadline)
		defer cancel()
		if s.computeStarted != nil {
			s.computeStarted()
		}
		computeStart := time.Now()
		body, err := compute(ctx)
		if met != nil {
			// The compute window feeds the backpressure Retry-After
			// hint; replays and coalesced waits would drag the p50
			// toward zero, so only real computations observe.
			met.compute.Observe(time.Since(computeStart), err != nil)
		}
		if store := s.cfg.Store; err == nil && store != nil {
			s.storeWG.Add(1)
			go func() {
				defer s.storeWG.Done()
				store.Write(key, body)
			}()
		}
		return body, err
	})
	switch {
	case err == nil:
		return writeRaw(w, http.StatusOK, body)
	case errors.Is(err, errBusy):
		s.rejectedBusy.Add(1)
		retry := busyRetrySeconds(met)
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		return writeJSON(w, http.StatusTooManyRequests,
			&ErrorResponse{Error: err.Error(), RetryAfterSec: retry})
	default:
		st, body := failureStatus(err)
		return writeRaw(w, st, body)
	}
}

// runner returns the shared runner for a scale, creating it on first
// use. All requests at a scale share one runner, so the serving layer
// inherits its Groups: the runner's cell key carries the fidelity, and
// its profiling passes, which are fidelity-invariant, serve every
// fidelity once.
func (s *Server) runner(scale int) (*experiments.Runner, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runners[scale]
	if !ok {
		var err error
		if r, err = experiments.NewRunner(scale); err != nil {
			return nil, err
		}
		s.runners[scale] = r
	}
	return r, nil
}

// busyRetrySeconds derives the backpressure Retry-After hint from the
// endpoint's recent computation latencies: the p50 of the compute
// window, rounded up to whole seconds and clamped to [1s, 60s]. A
// saturated client then backs off roughly one computation's worth of
// time instead of the old hardcoded second; an endpoint that has not
// computed yet (empty window) falls back to 1.
func busyRetrySeconds(met *endpointTrack) int {
	if met == nil {
		return 1
	}
	snap := met.compute.Snapshot()
	if snap.Window == 0 {
		return 1
	}
	secs := retrySeconds(time.Duration(snap.P50Milli * float64(time.Millisecond)))
	if secs > 60 {
		secs = 60
	}
	return secs
}

// retrySeconds rounds a Retry-After duration up to whole seconds with
// a floor of 1 (the header's unit; zero would invite an instant
// retry).
func retrySeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// timeout resolves a request's timeout_ms against the server cap.
// Negative values are rejected at decode time (400 naming timeout_ms)
// before any caller reaches here.
func (s *Server) timeout(ms int64) time.Duration {
	d := s.cfg.RequestTimeout
	if ms > 0 {
		if t := time.Duration(ms) * time.Millisecond; t < d {
			d = t
		}
	}
	return d
}

// failureStatus maps a computation error to a status and error body:
// an expired deadline is 504, any other cancellation (client gone,
// drain force-cancel) is 503, everything else is a 500.
func failureStatus(err error) (int, []byte) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, errorBody("deadline exceeded: " + err.Error())
	case sim.Canceled(err):
		return http.StatusServiceUnavailable, errorBody("canceled: " + err.Error())
	default:
		return http.StatusInternalServerError, errorBody(err.Error())
	}
}

// decodeBody decodes a request body that holds one JSON object and
// nothing after it but white space, returning the status to answer
// with on failure: 413 (naming the limit) when the body overflowed
// maxBody, 400 for everything else.
func decodeBody(body io.Reader, v any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(body), maxBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return 0, nil
		} else if err == nil {
			err = errors.New("trailing data after the JSON object")
		}
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the %d-byte limit", maxBody)
	}
	return http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
}

// SimFlightKey is the canonical identity of one /v1/sim computation:
// the request tuple with every default normalized (fidelity to
// "exact", overhead dropped on baseline cells), so equivalent requests
// always share a flight. The sweep fabric reuses it in the key that
// places a cell on a worker.
func SimFlightKey(workload, config string, scale int, fid sim.Fidelity, overhead bool) string {
	return fmt.Sprintf("sim/%s/%s/%d/%s/%t", workload, config, scale, fid.OrExact(), overhead)
}

// JulietFlightKey is the canonical identity of one /v1/juliet
// computation. Callers must pass the normalized tag width (the xtag
// default width, not 0, for a default-width request; 0 for policies
// without one) and the number of cases the run covers, so a disk
// store written by a build with another case list never replays its
// body.
func JulietFlightKey(policy string, tagBits, cases int) string {
	return fmt.Sprintf("juliet/%s/%d/%d", policy, tagBits, cases)
}

func errorBody(msg string) []byte {
	b, _ := json.Marshal(&ErrorResponse{Error: msg})
	return b
}

func writeJSON(w http.ResponseWriter, status int, v any) int {
	b, err := json.Marshal(v)
	if err != nil {
		return writeRaw(w, http.StatusInternalServerError, errorBody(err.Error()))
	}
	return writeRaw(w, status, b)
}

func writeError(w http.ResponseWriter, status int, msg string) int {
	return writeRaw(w, status, errorBody(msg))
}

func writeRaw(w http.ResponseWriter, status int, body []byte) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The body slice is shared by every waiter replaying a flight, so
	// it must be written as-is (appending the newline to it would race).
	w.Write(body)
	w.Write([]byte{'\n'})
	return status
}
