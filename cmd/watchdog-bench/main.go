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

// experiment is one -exp name: how it renders, whether -exp all runs
// it, and whether -workers can run it (every cell is a /v1/sim
// request: a standard configuration at the run's scale and fidelity).
type experiment struct {
	name   string
	all    bool
	remote bool
	run    func(r *experiments.Runner) (rendered, error)
}

// rendered is what one experiment produced. An interrupted experiment
// may still have rendered something: juliet's summary of the cases
// that completed.
type rendered struct {
	table  *stats.Table                // printed as text, or with -csv as CSV
	figure *experiments.OverheadFigure // the overhead figure the table shows
	bars   string                      // with -bars, the figure's bar chart
	text   string                      // without -csv, printed as is in place of the table
	drift  []report.Drift
	juliet *security.Summary
}

// experimentTable declares each -exp name once, in the order -exp all
// renders them.
var experimentTable = []experiment{
	{name: "table2", all: true, run: func(*experiments.Runner) (rendered, error) {
		return rendered{table: experiments.Table2Data(), text: experiments.Table2() + "\n"}, nil
	}},
	{name: "table1", all: true, run: table((*experiments.Runner).Table1)},
	{name: "fig5", all: true, remote: true, run: table((*experiments.Runner).Fig5)},
	overhead(experiments.OverheadFig7),
	{name: "fig8", all: true, remote: true, run: table((*experiments.Runner).Fig8)},
	overhead(experiments.OverheadFig9),
	{name: "fig10", all: true, remote: true, run: table((*experiments.Runner).Fig10)},
	overhead(experiments.OverheadFig11),
	overhead(experiments.OverheadIdeal),
	overhead(experiments.OverheadAblations),
	{name: "locksweep", all: true, run: table(func(r *experiments.Runner) (*stats.Table, error) { return r.LockSweep(nil) })},
	{name: "tagsweep", all: true, run: table((*experiments.Runner).TagSweep)},
	{name: "juliet", all: true, run: func(r *experiments.Runner) (rendered, error) {
		s, err := r.Juliet()
		return rendered{table: s.Table(), text: fmt.Sprintf("Section 9.2: security evaluation\n  %s\n\n", s), juliet: &s}, err
	}},
	// Not part of all: it sweeps the fig7 configurations once per
	// fidelity, and its point — what sampling trades away — only
	// matters when asked for.
	{name: "fidelity-drift", run: func(r *experiments.Runner) (rendered, error) {
		t, d, err := r.FidelityDrift()
		return rendered{table: t, drift: d}, err
	}},
}

// table is the run of an experiment that renders one table.
func table(fn func(*experiments.Runner) (*stats.Table, error)) func(*experiments.Runner) (rendered, error) {
	return func(r *experiments.Runner) (rendered, error) {
		t, err := fn(r)
		return rendered{table: t}, err
	}
}

// overhead is the experiment that renders an overhead figure.
func overhead(f experiments.OverheadFigure) experiment {
	return experiment{name: f.Name, all: true, remote: true, run: func(r *experiments.Runner) (rendered, error) {
		t, err := r.OverheadTable(f)
		return rendered{table: t, figure: &f}, err
	}}
}

// expNames lists the table's names, or only those -workers can run.
func expNames(remoteOnly bool) []string {
	var names []string
	for _, e := range experimentTable {
		if e.remote || !remoteOnly {
			names = append(names, e.name)
		}
	}
	return names
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
		exp       = fs.String("exp", "all", "experiment: all|"+strings.Join(expNames(false), "|"))
		scale     = fs.Int("scale", 1, "problem-size multiplier")
		wls       = fs.String("workloads", "", "comma-separated workload subset (default: all twenty)")
		bars      = fs.Bool("bars", false, "render overhead figures as bar charts too")
		csv       = fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
		jobs      = fs.Int("j", runtime.GOMAXPROCS(0), "parallel simulation workers (1 = serial; output is identical either way)")
		progress  = fs.Bool("progress", false, "print live sweep progress (cells done/total, elapsed, ETA) to stderr")
		timing    = fs.Bool("stats", false, "print the harness timing record (the -bench-out document) to stderr when done")
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

	var selected []experiment
	for _, e := range experimentTable {
		if *exp == e.name || (*exp == "all" && e.all) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fail(fmt.Errorf("unknown experiment %q (known: all, %s)", *exp, strings.Join(expNames(false), ", ")))
	}
	if *scale < 1 {
		return fail(fmt.Errorf("-scale %d: the problem-size multiplier must be >= 1", *scale))
	}
	if *csv && *bars {
		return fail(fmt.Errorf("-bars cannot be combined with -csv: a bar chart is not CSV"))
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
	for _, e := range selected {
		if len(workerAddrs) > 0 && !e.remote {
			return fail(fmt.Errorf("-exp %s cannot run with -workers; distributable experiments: %s",
				*exp, strings.Join(expNames(true), ", ")))
		}
	}
	if *metricsAddr != "" && len(workerAddrs) == 0 {
		return fail(fmt.Errorf("-metrics-addr only applies with -workers (it serves the coordinator's fabric metrics)"))
	}
	r, err := experiments.NewRunner(*scale, names...)
	if err != nil {
		return fail(err)
	}
	r.Jobs = *jobs
	r.Fidelity = fid
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
	// statsRecord is the -stats record. Its write is deferred before
	// the fabric's and the progress reporter's defers are, so it runs
	// after them: the record is the last thing a run prints.
	var statsRecord []byte
	defer func() { stderr.Write(statsRecord) }()
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

	// The run renders each selected experiment in table order. An
	// interrupt stops it after printing what the experiment in flight
	// rendered; everything that finished still flushes (-json,
	// -bench-out, the CPU profile) before the non-zero exit.
	var (
		expTimes []report.BenchExperiment
		figures  []string
		drift    []report.Drift
		juliet   *security.Summary
		partial  bool
	)
	for _, e := range selected {
		t0 := time.Now()
		out, err := e.run(r)
		if err == nil && *bars && out.figure != nil {
			label, _, _ := strings.Cut(out.figure.Title, ":")
			out.bars, err = r.Bars(label+" (bars): % slowdown", out.figure.Cfgs...)
		}
		if err != nil && !(sim.Canceled(err) && ctx.Err() != nil) {
			return fail(err)
		}
		if out.table != nil || out.text != "" {
			expTimes = append(expTimes, report.BenchExperiment{Name: e.name, WallNanos: int64(time.Since(t0))})
			switch {
			case out.table != nil && *csv:
				fmt.Fprintf(stdout, "# %s\n%s\n", e.name, out.table.CSV())
			case out.text != "":
				fmt.Fprint(stdout, out.text)
			default:
				fmt.Fprintln(stdout, out.table)
			}
			if out.bars != "" {
				fmt.Fprintln(stdout, out.bars)
			}
			if out.figure != nil {
				figures = append(figures, out.figure.Name)
			}
		}
		drift = append(drift, out.drift...)
		if out.juliet != nil {
			juliet = out.juliet
		}
		if err != nil {
			partial = true
			fmt.Fprintf(stderr, "watchdog-bench: interrupted during %s; flushing partial outputs\n", e.name)
			break
		}
	}

	// The run ends through one path: -json, the -baseline comparison,
	// -bench-out, -memprofile, then -stats, whatever the exit code.
	regressed := false
	if *jsonOut != "" || *baseline != "" {
		// Report assembly reads the warmed cache (completed figures
		// only), so it works after an interrupt too; the document is
		// marked partial so nobody gates a regression on it.
		rep, err := r.Report(figures, juliet)
		if err != nil {
			return fail(err)
		}
		rep.Partial = partial
		rep.Drift = drift
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
				if regressed = cmp.Regressed(); regressed {
					fmt.Fprintln(stderr, "watchdog-bench: performance regressed past threshold against", *baseline)
				}
			}
		}
	}
	wall := time.Since(start)
	rec := &report.BenchReport{
		Exp:         *exp,
		Scale:       *scale,
		Jobs:        *jobs,
		Fidelity:    string(fid.OrExact()),
		Workloads:   names,
		WallNanos:   int64(wall),
		Harness:     r.Timing.Harness(),
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
			*benchOut, wall.Round(time.Millisecond))
	}
	if *memProf != "" {
		if err := writeMemProfile(*memProf); err != nil {
			return fail(err)
		}
	}
	if *timing {
		if statsRecord, err = report.EncodeBench(rec); err != nil {
			return fail(err)
		}
	}
	if partial || regressed {
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

// workloadSubset splits the -workloads flag into names, refusing a
// list that selects none; experiments.NewRunner reports every unknown
// name.
func workloadSubset(list string) ([]string, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var names []string
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-workloads %q selects no workloads (known: %s)",
			list, strings.Join(workload.Names(), ", "))
	}
	return names, nil
}
