// Command bench is the repository benchmark. It runs four workloads
// that drive the simulator, the HTTP service with its sweep client, and
// the policy referee through their public functions, checks every
// answer, and prints one JSON result line per workload.
//
// Run it from this directory:
//
//	go run . --workload sweep-exact --seed 1 --seconds 20 --trace 0
//	go run .               # every workload, end-to-end metrics
//	go run . --trace 1     # every workload, per-layer metrics
//
// Each workload runs in child processes of its own (the command
// re-executes itself), so set-up time and peak memory belong to one
// workload and no cache survives from one workload into the next.
// README.md describes the workloads and the metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// benchWorkload is one benchmark workload. run does the workload's
// set-up, calls ready, and — unless ready returns false, which ends a
// set-up probe — measures and returns what it measured. A batched
// workload measures one batch per process, and the parent runs batches
// until the time is up; the others measure for o.seconds.
type benchWorkload struct {
	name    string
	batched bool
	run     func(ctx context.Context, o *options, ready func() bool) (*part, error)
}

var workloads = []benchWorkload{
	{"sweep-exact", true, runSweepExact},
	{"sweep-sampled", true, runSweepSampled},
	{"serve-fabric", true, runServe},
	{"security-referee", false, runReferee},
}

// sizes fixes how much work each workload does per operation.
type sizes struct {
	exactScale   int      // workload scale of sweep-exact
	sampledScale int      // workload scale of sweep-sampled
	serveScale   int      // workload scale of serve-fabric's cells
	kernels      []string // the sweeps' and the service's kernels; nil = all twenty
	fuzzSeeds    int      // referee fuzz seeds; 0 = as many as fit in the run
	layerReps    int      // repetitions of each timing in the layers phase
}

// benchSizes is what the benchmark runs; the smoke test swaps in a toy
// size before it re-executes the test binary as this command.
// serveScale is watchdog-bench's default -scale, which its -workers
// sweeps send.
var benchSizes = sizes{
	exactScale:   4,
	sampledScale: 8,
	serveScale:   1,
	layerReps:    5,
}

// options is one workload run's configuration.
type options struct {
	name    string
	seed    int64
	seconds time.Duration
	size    sizes
	workers int
	// tr records spans; it is non-nil exactly in a traced run.
	tr *tracer
	// out is the directory the traced run writes its span and profile
	// files to.
	out string
}

// notef prints a line for the human reader; the parent passes it on.
func (o *options) notef(format string, args ...any) {
	fmt.Printf("%s: %s\n", o.name, fmt.Sprintf(format, args...))
}

// setupProbes is how many times the parent process runs a workload's
// set-up alone; setup_s is the median over the probes.
const setupProbes = 7

// runTimeout bounds one workload run, so it ends within the three
// minutes a benchmark run is allowed even if a workload hangs.
const runTimeout = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload to run (default: all, one after another)")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	child := flag.String("child", "", "internal: run one workload in this process (setup|run)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		fatalf("--seconds must be at least 1, got %d", *seconds)
	}
	if flag.NArg() > 0 {
		fatalf("unexpected arguments: %v", flag.Args())
	}
	var selected []benchWorkload
	for _, w := range workloads {
		if *name == "" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fatalf("unknown workload %q (known: %s)", *name, strings.Join(workloadNames(), ", "))
	}
	o := &options{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		size:    benchSizes,
		workers: runtime.GOMAXPROCS(0),
		out:     "out",
	}

	if *child != "" {
		if len(selected) != 1 {
			fatalf("--child needs --workload")
		}
		o.name = selected[0].name
		if err := runChild(selected[0], o, *child, *trace == 1); err != nil {
			fatalf("%s: %v", o.name, err)
		}
		return
	}

	exe, err := os.Executable()
	if err != nil {
		fatalf("locate own executable: %v", err)
	}
	args := []string{"--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(*trace)}
	for _, w := range selected {
		res, err := runParent(exe, w, args, o.seconds, *trace == 1)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatalf("%s: encode result: %v", w.name, err)
		}
		fmt.Printf("%s\n", line)
	}
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// runParent runs one workload in child processes: set-up probes
// (end-to-end runs only), then the measuring processes — one, or for a
// batched workload as many as start within 90% of the time. setup_s is
// timed here, from starting a probe child to its ready line, so it
// includes process start and package initialisation. Each set-up is
// scaled by the host speed the parent measures just before and just
// after the child, while no workload code runs (probe.go).
func runParent(exe string, w benchWorkload, args []string, seconds time.Duration, traced bool) (*result, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	args = append([]string{"--workload", w.name}, args...)
	host := newProbe()
	var setups, raw []float64
	if !traced {
		before := host.speed()
		for i := 0; i < setupProbes; i++ {
			d, _, err := spawn(ctx, exe, "setup", args)
			if err != nil {
				return nil, fmt.Errorf("set-up probe: %w", err)
			}
			after := host.speed()
			raw = append(raw, d.Seconds())
			setups = append(setups, d.Seconds()*(before+after)/2)
			before = after
		}
	}
	var parts []part
	speedBefore := host.speed()
	start := time.Now()
	for {
		_, p, err := spawn(ctx, exe, "run", args)
		if err != nil {
			return nil, err
		}
		parts = append(parts, *p)
		if traced || !w.batched || time.Since(start) >= seconds*9/10 {
			break
		}
	}
	res, err := summarize(parts, traced)
	if err != nil {
		return nil, err
	}
	if traced {
		res.Metrics["bench.host_speed"] = metricValue{Value: (speedBefore + host.speed()) / 2, Unit: "ratio"}
		return res, nil
	}
	res.Metrics["setup_s"] = metricValue{Value: median(setups), Unit: "s"}
	fmt.Printf("%s: setup_s is the median of %d set-ups, scaled: %s (raw: %s)\n",
		w.name, len(setups), formatFloats(setups), formatFloats(raw))
	var rss []float64
	for _, p := range parts {
		rss = append(rss, p.RSS...)
	}
	fmt.Printf("%s: peak_rss_mb is the median of %d peaks over %d measuring processes\n", w.name, len(rss), len(parts))
	return res, nil
}

// spawn runs one child process in the given phase and returns the time
// from its start to its ready line plus, for the run phase, its part.
// Lines the child prints before its part are passed through.
func spawn(ctx context.Context, exe, phase string, args []string) (time.Duration, *part, error) {
	cmd := exec.CommandContext(ctx, exe, append([]string{"--child", phase}, args...)...)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	cmd.SysProcAttr = childAttr()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	var ready time.Duration
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == readyLine && ready == 0:
			ready = time.Since(start)
		case strings.HasPrefix(line, "{"):
			last = line
		default:
			fmt.Println(line)
		}
	}
	scanErr := sc.Err()
	if scanErr != nil {
		// Drain so the child never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, stdout)
	}
	if err := cmd.Wait(); err != nil {
		return 0, nil, fmt.Errorf("%s phase: %w", phase, err)
	}
	if scanErr != nil {
		return 0, nil, fmt.Errorf("%s phase: read output: %w", phase, scanErr)
	}
	if ready == 0 {
		return 0, nil, fmt.Errorf("%s phase: child never reported ready", phase)
	}
	if phase != "run" {
		return ready, nil, nil
	}
	if last == "" {
		return 0, nil, fmt.Errorf("run phase: child printed no result")
	}
	var p part
	if err := json.Unmarshal([]byte(last), &p); err != nil {
		return 0, nil, fmt.Errorf("run phase: decode result: %w", err)
	}
	return ready, &p, nil
}

// readyLine is what a child prints once its set-up is done.
const readyLine = "ready"

// runChild runs one workload in this process. In the set-up phase it
// stops after set-up; in the run phase it measures and prints its part
// as its last line.
func runChild(w benchWorkload, o *options, phase string, traced bool) error {
	if phase != "setup" && phase != "run" {
		return fmt.Errorf("unknown phase %q", phase)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	if traced && phase == "run" {
		o.tr = newTracer()
	}
	var prof *cpuProfile
	ready := func() bool {
		fmt.Println(readyLine)
		if phase != "run" {
			return false
		}
		if traced {
			var err error
			if prof, err = startProfile(o.out, w.name); err != nil {
				fmt.Fprintf(os.Stderr, "bench: cpu profile off: %v\n", err)
			}
		}
		return true
	}
	p, err := w.run(ctx, o, ready)
	if err != nil {
		return err
	}
	if phase != "run" {
		return nil
	}
	if p == nil {
		return errors.New("workload returned no measurement")
	}
	if traced {
		if err := finishTrace(o, w.name, prof, p); err != nil {
			return err
		}
	}
	line, err := json.Marshal(p)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}
