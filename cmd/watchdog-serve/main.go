// watchdog-serve exposes the simulation harness as an HTTP/JSON
// service: POST /v1/sim runs one (workload, configuration, scale)
// cell and answers with the same schema-v1 record `watchdog-bench
// -json` writes; POST /v1/juliet runs the security suite; GET
// /healthz and GET /metrics serve liveness and request/cache
// statistics. Identical in-flight requests coalesce onto a single
// simulation, saturation answers 429 + Retry-After, and SIGINT or
// SIGTERM drains gracefully: in-flight requests finish (within
// -drain-timeout), new ones are refused.
//
// Usage:
//
//	watchdog-serve                      # serve on 127.0.0.1:8080
//	watchdog-serve -addr :9090 -workers 4
//	curl -s localhost:8080/healthz
//	curl -s -d '{"workload":"mcf","config":"isa","overhead":true}' localhost:8080/v1/sim
//	curl -s -d '{"policy":"watchdog"}' localhost:8080/v1/juliet
//
// The built-in load generator doubles as a coalescing demo and as the
// saturation harness: point it at a running server and it fires
// deterministic mixed traffic, then reports the latency curve and how
// many simulations the server actually ran.
//
//	watchdog-serve -load 32 -c 8 -addr localhost:8080
//	watchdog-serve -load 0 -steps 1,2,4,8 -mix sim=90,juliet=10 \
//	    -addr localhost:8080 -load-out load.json -trend trend.json
//
// A fleet of these servers is also the worker pool of the distributed
// sweep fabric: `watchdog-bench -workers host:port,...` shards a
// figure sweep's cells across them over the same /v1/sim format,
// byte-identical to a local run (see DESIGN.md §13).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"watchdog/internal/loadgen"
	"watchdog/internal/report"
	"watchdog/internal/serve"
	"watchdog/internal/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the testable entry point: parses args, serves (or drives
// load) under ctx, and returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("watchdog-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (server mode) or target host:port (-load)")
		workers  = fs.Int("workers", 0, "max concurrent computations (0 = GOMAXPROCS); excess requests get 429")
		maxScale = fs.Int("max-scale", 4, "largest workload scale a request may ask for")
		timeout  = fs.Duration("timeout", 120*time.Second, "per-request computation cap (requests may ask for less via timeout_ms)")
		drain    = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown window before in-flight simulations are force-canceled")

		keys       = fs.String("keys", "", "API-key file (`<key> <tenant>` lines); empty serves unauthenticated as the anonymous tenant")
		rate       = fs.Float64("rate", 0, "per-tenant sustained request rate in req/s (0 = unlimited)")
		quota      = fs.Int64("quota", 0, "per-tenant daily request quota (0 = unlimited)")
		storeDir   = fs.String("store-dir", "", "persist completed results here and replay them across restarts (empty = memory only)")
		storeMaxMB = fs.Int("store-max-mb", 256, "disk budget for -store-dir in MiB; least recently used entries are evicted past it")

		logJSON = fs.Bool("log", false, "emit structured JSON request logs on stderr (server mode)")

		load     = fs.Int("load", 0, "client mode: fire this many requests per step at -addr and report the curve + server coalescing stats")
		conc     = fs.Int("c", 8, "client mode: concurrent requests (single-step mode; ignored when -steps is set)")
		steps    = fs.String("steps", "", "client mode: stepped-concurrency sweep, e.g. 1,2,4,8 (turns -load into the saturation harness)")
		mix      = fs.String("mix", "", "client mode: traffic mix, e.g. sim=90,juliet=10 (default sim=100)")
		workload = fs.String("workload", "mcf", "client mode: workload to request")
		config   = fs.String("config", "conservative", "client mode: configuration to request")
		scale    = fs.Int("scale", 1, "client mode: workload scale")
		fidelity = fs.String("fidelity", "", "client mode: sim fidelity to request ("+sim.FidelityNames("|")+")")
		overhead = fs.Bool("overhead", false, "client mode: request the baseline too and report the slowdown ratio")
		policy   = fs.String("policy", "watchdog", "client mode: juliet check policy to request")
		tagBits  = fs.Int("tag-bits", 0, "client mode: juliet tag width to request (0 = server default)")
		seed     = fs.Int64("seed", 1, "client mode: seed for the deterministic traffic sequence")
		apiKey   = fs.String("api-key", "", "client mode: API key sent with every request (Authorization: Bearer)")
		loadOut  = fs.String("load-out", "", "client mode: write the watchdog-load saturation record to this file")
		trend    = fs.String("trend", "", "client mode: append this sweep's points to a watchdog-trajectory trend file")
		trendLbl = fs.String("trend-label", "local", "client mode: label stamped on appended trend points")
		trendGat = fs.Float64("trend-threshold", 0, "client mode: with -trend, exit 1 if this sweep regressed more than this percent vs the previous run (0 = append only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "watchdog-serve:", err)
		return 1
	}

	if *load > 0 || *steps != "" {
		stepList, err := loadgen.ParseSteps(*steps)
		if err != nil {
			return fail(err)
		}
		mixVal, err := loadgen.ParseMix(*mix)
		if err != nil {
			return fail(err)
		}
		// The server would refuse every request at an unknown fidelity;
		// fail before the first one instead.
		if _, err := sim.ParseFidelity(*fidelity); err != nil {
			return fail(err)
		}
		if stepList == nil {
			stepList = []int{*conc} // classic single-step mode: -load requests over -c workers
		}
		spec := loadgen.Spec{
			Target:   *addr,
			Steps:    stepList,
			PerStep:  *load,
			Mix:      mixVal,
			Seed:     *seed,
			Workload: *workload,
			Config:   *config,
			Scale:    *scale,
			Fidelity: *fidelity,
			Overhead: *overhead,
			Policy:   *policy,
			TagBits:  *tagBits,
			APIKey:   *apiKey,
			TimeoutMS: func() int64 {
				if *timeout > 0 && *timeout < 120*time.Second {
					return timeout.Milliseconds()
				}
				return 0
			}(),
		}
		return runLoad(ctx, spec, *loadOut, *trend, *trendLbl, *trendGat, stdout, stderr)
	}

	cfg := serve.Config{
		MaxWorkers:     *workers,
		MaxScale:       *maxScale,
		RequestTimeout: *timeout,
		DrainTimeout:   *drain,
		Rate:           *rate,
		Quota:          *quota,
	}
	if *keys != "" {
		km, err := serve.LoadKeys(*keys)
		if err != nil {
			return fail(err)
		}
		cfg.Keys = km
		fmt.Fprintf(stderr, "watchdog-serve: auth enabled (%d keys)\n", len(km))
	}
	if *storeDir != "" {
		st, err := serve.OpenStore(*storeDir, *storeMaxMB)
		if err != nil {
			return fail(err)
		}
		cfg.Store = st
		fmt.Fprintf(stderr, "watchdog-serve: result store at %s (budget %d MiB)\n", st.Dir(), *storeMaxMB)
	}
	if *logJSON {
		cfg.Logger = slog.New(slog.NewJSONHandler(stderr, nil))
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "watchdog-serve: listening on http://%s\n", ln.Addr())
	s := serve.New(cfg)
	if err := s.Serve(ctx, ln); err != nil {
		return fail(err)
	}
	fmt.Fprintln(stderr, "watchdog-serve: drained, exiting")
	return 0
}

// runLoad is the load generator / saturation harness: it sweeps the
// spec's concurrency steps with loadgen, bracketed by /metrics
// snapshots so the printed report shows the server-side effect (how
// many simulations actually ran, how many requests coalesced or
// bounced), then optionally persists the watchdog-load record and
// appends/gates the performance trajectory.
func runLoad(ctx context.Context, spec loadgen.Spec, loadOut, trend, trendLabel string, trendGate float64, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "watchdog-serve:", err)
		return 1
	}
	base := spec.Target
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{}
	before, err := fetchMetrics(ctx, client, base)
	if err != nil {
		return fail(fmt.Errorf("fetching %s/metrics: %w", base, err))
	}

	lr, err := loadgen.Run(ctx, spec)
	if err != nil {
		return fail(err)
	}

	after, err := fetchMetrics(ctx, client, base)
	if err != nil {
		return fail(fmt.Errorf("fetching %s/metrics: %w", base, err))
	}

	var offered, okCount, rejected, failed, wallNanos int64
	for _, s := range lr.Steps {
		offered += s.Offered
		okCount += s.OK
		rejected += s.RejectedBusy
		failed += s.Errors
		wallNanos += s.WallNanos
	}
	wall := time.Duration(wallNanos)
	if len(lr.Steps) == 1 {
		fmt.Fprintf(stdout, "load: %d requests (%d concurrent) against %s in %s\n",
			offered, lr.Steps[0].Concurrency, base, wall.Round(time.Millisecond))
	} else {
		fmt.Fprintf(stdout, "load: %d requests over %d steps against %s in %s\n",
			offered, len(lr.Steps), base, wall.Round(time.Millisecond))
	}
	for _, s := range lr.Steps {
		fmt.Fprintf(stdout, "  c%-4d %5d ok  %4d rejected  %4d errors  p50 %.3gms  p99 %.3gms  %.5g rps\n",
			s.Concurrency, s.OK, s.RejectedBusy, s.Errors, s.P50Milli, s.P99Milli, s.ThroughputRPS)
	}
	fmt.Fprintf(stdout, "server: +%d sims, +%d coalesced, +%d cache hits, +%d busy-rejected\n",
		after.Harness.Sims-before.Harness.Sims,
		after.Coalesced-before.Coalesced,
		after.Harness.CacheHits-before.Harness.CacheHits,
		after.RejectedBusy-before.RejectedBusy)

	if loadOut != "" {
		if err := report.WriteLoadFile(loadOut, lr); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "watchdog-serve: wrote saturation record %s\n", loadOut)
	}
	if trend != "" {
		pts := report.LoadPoints(trendLabel, lr)
		now := time.Now().UnixNano()
		appended := make(map[string]bool, len(pts))
		for i := range pts {
			pts[i].UnixNanos = now
			appended[pts[i].Key] = true
		}
		tr, err := report.AppendTrajectory(trend, pts...)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "watchdog-serve: appended %d points to %s (%d total)\n", len(pts), trend, len(tr.Points))
		if trendGate > 0 {
			// Gate only on the keys this sweep appended: older pairs in
			// a shared trend file are someone else's history.
			regressed := false
			for _, reg := range tr.Regressed(trendGate) {
				if !appended[reg.Key] {
					continue
				}
				regressed = true
				fmt.Fprintf(stderr, "watchdog-serve: trend regression: %s %s %.4g -> %.4g (%+.1f%%)\n",
					reg.Key, reg.Metric, reg.Prev, reg.Curr, reg.DeltaPct)
			}
			if regressed {
				return 1
			}
		}
	}

	if failed > 0 {
		return fail(fmt.Errorf("%d of %d requests failed (non-200 non-429 or transport error)", failed, offered))
	}
	return 0
}

func fetchMetrics(ctx context.Context, client *http.Client, base string) (*serve.Metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}
