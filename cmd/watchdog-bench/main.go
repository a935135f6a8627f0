// watchdog-bench regenerates the paper's tables and figures
// (Section 9) on the simulated processor.
//
// Usage:
//
//	watchdog-bench                     # everything
//	watchdog-bench -exp fig7           # one experiment
//	watchdog-bench -exp fig9 -scale 2
//	watchdog-bench -workloads mcf,perl -exp fig5
//	watchdog-bench -json out.json      # machine-readable metrics report
//	watchdog-bench -baseline old.json  # diff against a previous report
//	watchdog-bench -exp fig7 -bench-out BENCH_fig7.json   # harness timing record
//	watchdog-bench -exp fig7 -cpuprofile cpu.pprof        # profile the harness
//	watchdog-bench -exp fig7 -workers :8081,:8082         # shard cells across watchdog-serve workers
//
// With -workers the cell simulations run on watchdog-serve processes
// (the /v1/sim wire format) instead of in-process: the coordinator
// shards cells across the fleet, fails a cell over to the next worker
// when one dies, and the output stays byte-identical to a local run.
//
// SIGINT/SIGTERM cancel the sweep cooperatively — mid-simulation, not
// just between cells. An interrupted run still flushes its partial
// -json and -bench-out documents (marked "partial" in the schema),
// stops the CPU profile so the file stays usable, and exits non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"watchdog/internal/experiments"
	"watchdog/internal/fabric"
	"watchdog/internal/report"
	"watchdog/internal/security"
	"watchdog/internal/sim"
	"watchdog/internal/stats"
	"watchdog/internal/trace"
	"watchdog/internal/workload"
)

// knownExps is the -exp vocabulary, validated before anything runs so
// a typo cannot silently select nothing (or be masked by -bars).
var knownExps = []string{
	"all", "table1", "table2", "fig5", "fig7", "fig8", "fig9", "fig10",
	"fig11", "ideal", "ablations", "locksweep", "tagsweep", "juliet",
	"fidelity-drift",
}

// remotableExps is the -workers vocabulary: the experiments whose
// every cell is expressible as a /v1/sim request (a standard
// configuration at the run's scale and fidelity). The others either
// sweep non-standard configurations (locksweep, tagsweep), run the
// security suite (juliet), or compose several of these (all,
// fidelity-drift), so they stay local-only.
var remotableExps = []string{
	"fig5", "fig7", "fig8", "fig9", "fig10", "fig11", "ideal", "ablations",
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the testable entry point: parses args, executes under ctx
// (canceled on SIGINT/SIGTERM by main), and returns the process exit
// code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("watchdog-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", "experiment: "+strings.Join(knownExps, "|"))
		scale     = fs.Int("scale", 1, "problem-size multiplier")
		wls       = fs.String("workloads", "", "comma-separated workload subset (default: all twenty)")
		bars      = fs.Bool("bars", false, "render overhead figures as bar charts too")
		csv       = fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
		jobs      = fs.Int("j", runtime.GOMAXPROCS(0), "parallel simulation workers (1 = serial; output is identical either way)")
		progress  = fs.Bool("progress", false, "print live sweep progress (cells done/total, elapsed, ETA) to stderr")
		timing    = fs.Bool("stats", false, "print harness timing counters to stderr when done")
		jsonOut   = fs.String("json", "", "write the machine-readable metrics report (schema v1 JSON) to this path")
		baseline  = fs.String("baseline", "", "compare this run against a previous -json report; exit non-zero on regression")
		threshold = fs.Float64("threshold", 1.0, "regression threshold for -baseline: percentage points on figure geomeans, percent on per-cell cycles")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile (go tool pprof) to this path")
		memProf   = fs.String("memprofile", "", "write an allocation profile (go tool pprof) to this path when done")
		benchOut  = fs.String("bench-out", "", "write the harness timing record (wall/busy time per experiment, schema v1 JSON) to this path")
		fidelity  = fs.String("fidelity", "exact", "timing fidelity: "+sim.FidelityNames("|")+" (fidelity-drift runs every fidelity regardless)")
		workers   = fs.String("workers", "", "comma-separated watchdog-serve workers (host:port,...): shard cell simulations across them instead of simulating locally")

		metricsAddr = fs.String("metrics-addr", "", "with -workers: serve the coordinator's Prometheus /metrics on this address for the duration of the sweep")
		logJSON     = fs.Bool("log", false, "emit structured JSON logs (fabric events: ejections, cell fetches) to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "watchdog-bench:", err)
		return 1
	}

	if !knownExp(*exp) {
		return fail(fmt.Errorf("unknown experiment %q (known: %s)", *exp, strings.Join(knownExps, ", ")))
	}
	if *scale < 1 {
		return fail(fmt.Errorf("-scale %d: the problem-size multiplier must be >= 1", *scale))
	}
	// report.Compare flags a delta only when it exceeds the threshold:
	// NaN or +Inf would pass every regression, a negative value would
	// fail unchanged cells.
	if *threshold < 0 || math.IsNaN(*threshold) || math.IsInf(*threshold, 0) {
		return fail(fmt.Errorf("-threshold %g: must be finite and >= 0", *threshold))
	}
	names, err := workloadSubset(*wls)
	if err != nil {
		return fail(err)
	}
	fid, err := sim.ParseFidelity(*fidelity)
	if err != nil {
		return fail(err)
	}
	workerAddrs, err := workerList(*workers)
	if err != nil {
		return fail(err)
	}
	if len(workerAddrs) > 0 && !remotableExp(*exp) {
		return fail(fmt.Errorf("-exp %s cannot run with -workers; distributable experiments: %s",
			*exp, strings.Join(remotableExps, ", ")))
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	r, err := experiments.NewRunner(*scale, names...)
	if err != nil {
		return fail(err)
	}
	r.Jobs = *jobs
	r.Fidelity = fid
	if *metricsAddr != "" && len(workerAddrs) == 0 {
		return fail(fmt.Errorf("-metrics-addr only applies with -workers (it serves the coordinator's fabric metrics)"))
	}
	var fab *fabric.Coordinator
	if len(workerAddrs) > 0 {
		fabOpts := fabric.Options{Scale: *scale}
		if *logJSON {
			fabOpts.Logger = slog.New(slog.NewJSONHandler(stderr, nil))
		}
		fab, err = fabric.New(workerAddrs, fabOpts)
		if err != nil {
			return fail(err)
		}
		defer fab.Close()
		// The runner's fan-out, caches and workload-order merge are
		// unchanged; only the uncached-cell computation is replaced by
		// the fabric, so the rendered figures are byte-identical to a
		// local run.
		r.Remote = fab
		if *metricsAddr != "" {
			// A scrape endpoint for the sweep's duration: GET /metrics
			// answers the Prometheus exposition of the live fabric
			// counters (per-worker gauges included).
			ln, err := net.Listen("tcp", *metricsAddr)
			if err != nil {
				return fail(fmt.Errorf("-metrics-addr: %w", err))
			}
			mux := http.NewServeMux()
			mux.Handle("GET /metrics", fab.PromHandler())
			msrv := &http.Server{Handler: mux}
			go msrv.Serve(ln)
			defer msrv.Close()
			fmt.Fprintf(stderr, "watchdog-bench: fabric metrics on http://%s/metrics\n", ln.Addr())
		}
	}
	// The signal context rides the runner: every sweep below cancels
	// cooperatively on SIGINT/SIGTERM, mid-simulation.
	r.Ctx = ctx
	if *progress {
		r.Progress = trace.NewProgress()
		// The periodic reporter runs only when stderr is a real stream:
		// its writes are concurrent with the harness's own, which is
		// fine for a file descriptor but a race on an in-memory test
		// writer. The final line below is printed synchronously either
		// way, after every fan-out has completed. The goroutine is
		// routed through the signal context plus a deferred cancel, so
		// it is shut down on every exit path — early fail(...) returns
		// and interrupts included, not just the happy path.
		if _, isFile := stderr.(*os.File); isFile {
			repCtx, repStop := context.WithCancel(ctx)
			done := make(chan struct{})
			go func() {
				defer close(done)
				tick := time.NewTicker(time.Second)
				defer tick.Stop()
				for {
					select {
					case <-repCtx.Done():
						return
					case <-tick.C:
						fmt.Fprintln(stderr, "watchdog-bench:", r.Progress.Line())
					}
				}
			}()
			defer func() {
				repStop()
				<-done
			}()
		}
		defer func() {
			fmt.Fprintln(stderr, "watchdog-bench:", r.Progress.Line())
		}()
	}
	start := time.Now()

	type tableFn struct {
		name string
		fn   func() (*stats.Table, error)
	}
	figures := []tableFn{
		{"table1", r.Table1},
		{"fig5", r.Fig5},
		{"fig7", r.Fig7},
		{"fig8", r.Fig8},
		{"fig9", r.Fig9},
		{"fig10", r.Fig10},
		{"fig11", r.Fig11},
		{"ideal", r.Ideal},
		{"ablations", r.Ablations},
		{"locksweep", func() (*stats.Table, error) { return r.LockSweep(nil) }},
		{"tagsweep", func() (*stats.Table, error) { return r.TagSweep(nil) }},
	}

	// ranFigures collects the overhead figures this invocation swept,
	// for the report's geomean summaries (order-preserving, deduped).
	var ranFigures []string
	addFigure := func(name string) {
		if !experiments.IsOverheadFigure(name) {
			return
		}
		for _, n := range ranFigures {
			if n == name {
				return
			}
		}
		ranFigures = append(ranFigures, name)
	}

	// expTimes breaks the run's wall time down per experiment for the
	// -bench-out timing record.
	var expTimes []report.BenchExperiment
	timed := func(name string, t0 time.Time) {
		expTimes = append(expTimes, report.BenchExperiment{Name: name, WallNanos: int64(time.Since(t0))})
	}

	// partial flips when the signal context interrupts a sweep: the
	// remaining experiments are skipped, but everything that finished
	// still flushes (-json, -bench-out, the CPU profile) before the
	// non-zero exit.
	partial := false
	interrupted := func(err error) bool {
		return experiments.Canceled(err) && ctx.Err() != nil
	}

	if *exp == "all" || *exp == "table2" {
		fmt.Fprintln(stdout, experiments.Table2())
	}
	for _, f := range figures {
		if *exp != "all" && *exp != f.name {
			continue
		}
		t0 := time.Now()
		t, err := f.fn()
		if err != nil {
			if interrupted(err) {
				partial = true
				fmt.Fprintf(stderr, "watchdog-bench: interrupted during %s; flushing partial outputs\n", f.name)
				break
			}
			return fail(err)
		}
		timed(f.name, t0)
		if *csv {
			fmt.Fprintf(stdout, "# %s\n%s\n", f.name, t.CSV())
		} else {
			fmt.Fprintln(stdout, t)
		}
		addFigure(f.name)
	}
	// The fidelity-drift experiment is deliberately not part of "all":
	// it sweeps the fig7 configurations once per fidelity, and its
	// point — quantifying what sampling trades away — only matters when
	// asked for.
	var driftRows []report.Drift
	if *exp == "fidelity-drift" && !partial {
		t0 := time.Now()
		t, d, err := r.FidelityDrift()
		if err != nil {
			if !interrupted(err) {
				return fail(err)
			}
			partial = true
			fmt.Fprintln(stderr, "watchdog-bench: interrupted during fidelity-drift; flushing partial outputs")
		} else {
			timed("fidelity-drift", t0)
			if *csv {
				fmt.Fprintf(stdout, "# fidelity-drift\n%s\n", t.CSV())
			} else {
				fmt.Fprintln(stdout, t)
			}
			driftRows = d
		}
	}
	if *bars && !partial {
		for _, bc := range []struct {
			name string
			fig  string
			cfgs []experiments.ConfigName
		}{
			{"Figure 7 (bars): % slowdown", "fig7", []experiments.ConfigName{experiments.CfgConservative, experiments.CfgISA}},
			{"Figure 9 (bars): % slowdown", "fig9", []experiments.ConfigName{experiments.CfgISA, experiments.CfgISANoLock}},
			{"Figure 11 (bars): % slowdown", "fig11", []experiments.ConfigName{experiments.CfgISA, experiments.CfgBounds1, experiments.CfgBounds2}},
		} {
			out, err := r.Bars(bc.name, bc.cfgs...)
			if err != nil {
				if interrupted(err) {
					partial = true
					fmt.Fprintln(stderr, "watchdog-bench: interrupted during bars; flushing partial outputs")
					break
				}
				return fail(err)
			}
			fmt.Fprintln(stdout, out)
			addFigure(bc.fig)
		}
	}
	var julietSum *security.Summary
	if (*exp == "all" || *exp == "juliet") && !partial {
		t0 := time.Now()
		s, err := r.Juliet()
		if err != nil && !interrupted(err) {
			return fail(err)
		}
		timed("juliet", t0)
		fmt.Fprintln(stdout, "Section 9.2: security evaluation")
		if err != nil {
			partial = true
			fmt.Fprintln(stderr, "watchdog-bench: interrupted during juliet; summary is partial")
		}
		fmt.Fprintln(stdout, " ", s)
		fmt.Fprintln(stdout)
		julietSum = &s
	}

	if *jsonOut != "" || *baseline != "" {
		// Report assembly reads the warmed cache (completed figures
		// only), so it works after an interrupt too; the document is
		// marked partial so nobody gates a regression on it.
		rep, err := r.Report(ranFigures, julietSum)
		if err != nil {
			return fail(err)
		}
		rep.Partial = partial
		rep.Drift = driftRows
		if *jsonOut != "" {
			if err := report.WriteFile(*jsonOut, rep); err != nil {
				return fail(err)
			}
			what := ""
			if partial {
				what = ", partial"
			}
			fmt.Fprintf(stderr, "watchdog-bench: wrote %s (%d cells, %d figures%s)\n",
				*jsonOut, len(rep.Cells), len(rep.Figures), what)
		}
		if *baseline != "" {
			if partial {
				fmt.Fprintln(stderr, "watchdog-bench: skipping -baseline comparison: this run is partial")
			} else {
				base, err := report.ReadFile(*baseline)
				if err != nil {
					return fail(err)
				}
				// A mixed-fidelity comparison (e.g. a sampled run against
				// an exact baseline) is refused with an error: the exit is
				// non-zero and no threshold can launder it into a pass.
				cmp, err := report.Compare(base, rep, *threshold)
				if err != nil {
					return fail(err)
				}
				fmt.Fprint(stdout, cmp)
				if cmp.Regressed() {
					fmt.Fprintln(stderr, "watchdog-bench: performance regressed past threshold against", *baseline)
					return 1
				}
			}
		}
	}
	r.Timing.SetWall(time.Since(start))
	rec := &report.BenchReport{
		Exp:         *exp,
		Scale:       *scale,
		Jobs:        *jobs,
		Fidelity:    string(fid.OrExact()),
		Workloads:   names,
		WallNanos:   int64(r.Timing.Wall()),
		BusyNanos:   int64(r.Timing.BusyTime()),
		Sims:        r.Timing.Sims(),
		Profiles:    r.Timing.Profiles(),
		CacheHits:   r.Timing.Hits(),
		Experiments: expTimes,
		Partial:     partial,
	}
	if fab != nil {
		fs := fab.Stats()
		rec.Fabric = &fs
	}
	if *benchOut != "" {
		if err := report.WriteBenchFile(*benchOut, rec); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "watchdog-bench: wrote timing record %s (%s wall)\n",
			*benchOut, r.Timing.Wall().Round(time.Millisecond))
	}
	if *memProf != "" {
		if err := writeMemProfile(*memProf); err != nil {
			return fail(err)
		}
	}
	if *timing {
		fmt.Fprintf(stderr, "watchdog-bench: %s (-j %d)\n", r.Timing.String(), *jobs)
		if fab != nil {
			fs := fab.Stats()
			fmt.Fprintf(stderr, "watchdog-bench: fabric: %d cells sent, %d retried, %d ejections\n",
				fs.CellsSent, fs.Retried, fs.Ejections)
			for _, w := range fs.Workers {
				state := "alive"
				if !w.Alive {
					state = "dead"
				}
				fmt.Fprintf(stderr, "watchdog-bench: fabric worker %s: %s, %d requests, %d errors, p50 %.1fms, p99 %.1fms\n",
					w.Addr, state, w.Requests, w.Errors, w.P50Milli, w.P99Milli)
			}
		}
	}
	if partial {
		return 1
	}
	return 0
}

// writeMemProfile dumps the allocation profile after a final GC so the
// heap numbers reflect live data, not garbage.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.Lookup("allocs").WriteTo(f, 0)
}

func knownExp(name string) bool {
	for _, k := range knownExps {
		if k == name {
			return true
		}
	}
	return false
}

func remotableExp(name string) bool {
	for _, k := range remotableExps {
		if k == name {
			return true
		}
	}
	return false
}

// workerList parses the -workers flag: a comma-separated address
// list, each normalized eagerly (so a malformed address fails the run
// before any sweep starts, not mid-sweep).
func workerList(list string) ([]string, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var addrs []string
	for _, a := range strings.Split(list, ",") {
		if strings.TrimSpace(a) == "" {
			continue
		}
		n, err := fabric.NormalizeAddr(a)
		if err != nil {
			return nil, fmt.Errorf("-workers: %w", err)
		}
		addrs = append(addrs, n)
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("-workers %q selects no workers", list)
	}
	return addrs, nil
}

// workloadSubset parses the -workloads flag and validates every name
// eagerly, reporting the full list of unknown names (instead of
// silently running an empty or partial subset).
func workloadSubset(list string) ([]string, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var names, unknown []string
	for _, n := range strings.Split(list, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if _, ok := workload.ByName(n); !ok {
			unknown = append(unknown, fmt.Sprintf("%q", n))
			continue
		}
		names = append(names, n)
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown workloads: %s (known: %s)",
			strings.Join(unknown, ", "), strings.Join(workload.Names(), ", "))
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-workloads %q selects no workloads (known: %s)",
			list, strings.Join(workload.Names(), ", "))
	}
	return names, nil
}
