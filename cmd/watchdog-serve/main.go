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
// A fleet of these servers is also the worker pool of the distributed
// sweep fabric: `watchdog-bench -workers host:port,...` shards a
// figure sweep's cells across them over the same /v1/sim format,
// byte-identical to a local run (see DESIGN.md §13).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"watchdog/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stderr)
	stop()
	os.Exit(code)
}

// run is the testable entry point: parses args, serves under ctx, and
// returns the process exit code.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("watchdog-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address")
		workers  = fs.Int("workers", 0, "max concurrent computations (0 = GOMAXPROCS); excess requests get 429")
		maxScale = fs.Int("max-scale", 4, "largest workload scale a request may ask for")
		timeout  = fs.Duration("timeout", 120*time.Second, "per-request computation cap (requests may ask for less via timeout_ms)")
		drain    = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown window before in-flight simulations are force-canceled")

		keys       = fs.String("keys", "", "API-key file (`<key> <tenant>` lines); empty serves unauthenticated as the anonymous tenant")
		rate       = fs.Float64("rate", 0, "per-tenant sustained request rate in req/s (0 = unlimited)")
		quota      = fs.Int64("quota", 0, "per-tenant daily request quota (0 = unlimited)")
		storeDir   = fs.String("store-dir", "", "persist completed results here and replay them across restarts (empty = memory only)")
		storeMaxMB = fs.Int("store-max-mb", 256, "disk budget for -store-dir in MiB; least recently used entries are evicted past it")

		logJSON = fs.Bool("log", false, "emit structured JSON request logs on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "watchdog-serve:", err)
		return 1
	}
	// serve.Config turns a non-positive size or duration into its
	// default, the tenant limiter skips a rate or quota that is not
	// positive, and OpenStore raises a budget below 1 MiB: each of these
	// values would quietly lift the limit it names.
	switch {
	case *workers < 0:
		return fail(fmt.Errorf("-workers %d: must be >= 0 (0 = GOMAXPROCS)", *workers))
	case *maxScale < 1:
		return fail(fmt.Errorf("-max-scale %d: must be >= 1", *maxScale))
	case *timeout <= 0:
		return fail(fmt.Errorf("-timeout %s: must be positive", *timeout))
	case *drain <= 0:
		return fail(fmt.Errorf("-drain-timeout %s: must be positive", *drain))
	case *rate < 0 || math.IsNaN(*rate) || math.IsInf(*rate, 0):
		return fail(fmt.Errorf("-rate %g: must be finite and >= 0 (0 = unlimited)", *rate))
	case *quota < 0:
		return fail(fmt.Errorf("-quota %d: must be >= 0 (0 = unlimited)", *quota))
	case *storeMaxMB < 1:
		return fail(fmt.Errorf("-store-max-mb %d: must be >= 1", *storeMaxMB))
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
