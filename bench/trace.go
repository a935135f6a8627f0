package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// cell or request share a key; parent is the id of the span that made
// the call (0 at the top).
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Key     string `json:"key,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps the spans of one traced run in memory; finishTrace
// writes them out when the run ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	// cost is the time spent in begin and end, in nanoseconds, summed
	// over goroutines: the tracing overhead.
	cost  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// overheadPct returns the time spent recording spans since start, in
// percent of the worker time (wall × workers) that has passed.
func (t *tracer) overheadPct(start time.Time, workers int) float64 {
	return 100 * float64(t.cost.Load()) / (float64(time.Since(start)) * float64(workers))
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	tr    *tracer
	s     span
	start time.Time
}

// begin starts a span. A nil tracer, as in an untraced run, returns a
// nil span, on which end and id do nothing.
func (t *tracer) begin(name string, parent int64, key string) *openSpan {
	if t == nil {
		return nil
	}
	now := time.Now()
	o := &openSpan{tr: t, start: now, s: span{
		Name: name, ID: t.nextID.Add(1), Parent: parent, Key: key,
		StartNs: now.Sub(t.t0).Nanoseconds(),
	}}
	t.cost.Add(int64(time.Since(now)))
	return o
}

// end records the span.
func (o *openSpan) end() {
	if o == nil {
		return
	}
	now := time.Now()
	o.s.EndNs = now.Sub(o.tr.t0).Nanoseconds()
	o.tr.add(o.s)
	o.tr.cost.Add(int64(time.Since(now)))
}

// id returns the span's id, the parent of the spans it causes (0 for a
// nil span).
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// add records a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// at converts a wall-clock instant to the tracer's timeline.
func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.t0).Nanoseconds() }

// durations returns the durations of the spans with the given name, in
// the unit given.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

// cpuProfile is the CPU profile and runtime counters of a traced run's
// measured phase.
type cpuProfile struct {
	path  string
	f     *os.File
	start time.Time
	rt0   []metrics.Sample
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

// startProfile starts the CPU profile of a traced run in dir.
func startProfile(dir, name string) (*cpuProfile, error) {
	p := &cpuProfile{path: filepath.Join(dir, "cpu-"+name+".pprof"), start: time.Now(), rt0: readRuntime()}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return p, err
	}
	f, err := os.Create(p.path)
	if err != nil {
		return p, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return p, err
	}
	p.f = f
	return p, nil
}

// stop ends the profile and records the runtime's GC share and
// allocation rate over the profiled phase.
func (cp *cpuProfile) stop(p *part) error {
	rt1 := readRuntime()
	wall := time.Since(cp.start).Seconds()
	gc := sampleFloat(rt1[0]) - sampleFloat(cp.rt0[0])
	total := sampleFloat(rt1[1]) - sampleFloat(cp.rt0[1])
	if total > 0 {
		p.set("runtime.gc_cpu_pct", 100*gc/total)
	}
	p.set("runtime.alloc_mb_per_s", (sampleFloat(rt1[2])-sampleFloat(cp.rt0[2]))/(1<<20)/wall)
	if cp.f == nil {
		return nil
	}
	pprof.StopCPUProfile()
	return cp.f.Close()
}

// finishTrace ends a traced run: it stops the profile, runs the layers
// phase, folds the profile by package and writes the spans.
func finishTrace(o *options, name string, cp *cpuProfile, p *part) error {
	if cp != nil {
		if err := cp.stop(p); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	if err := runLayers(o, p); err != nil {
		return fmt.Errorf("layers phase: %w", err)
	}
	if cp != nil && cp.f != nil {
		if err := foldProfile(cp.path, p); err != nil {
			fmt.Fprintf(os.Stderr, "bench: cpu shares not measured: %v\n", err)
		}
	}
	return writeSpans(o, name)
}

// writeSpans writes the traced run's spans to out/trace-<workload>.json.
func writeSpans(o *options, name string) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	o.tr.mu.Lock()
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{name, o.seed, o.tr.spans}
	body, err := json.Marshal(doc)
	o.tr.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, "trace-"+name+".json"), body, 0o644)
}

// sharePackages are the packages whose self time a traced run reports,
// by metric suffix.
var sharePackages = map[string]string{
	"watchdog/internal/machine":  "machine",
	"watchdog/internal/pipeline": "pipeline",
	"watchdog/internal/cache":    "cache",
	"watchdog/internal/core":     "core",
	"watchdog/internal/mem":      "mem",
	"watchdog/internal/isa":      "isa",
	"watchdog/internal/bpred":    "bpred",
	"watchdog/internal/asm":      "asm",
	"watchdog/internal/rt":       "rt",
	"watchdog/internal/serve":    "serve",
	"net/http":                   "net_http",
	"encoding/json":              "encoding_json",
	"runtime":                    "runtime",
}

// warmFunc is the function whose cumulative share cpu_cum.pipeline.Warm
// reports: functional warming under the sampled fidelity.
const warmFunc = "watchdog/internal/pipeline.(*Model).Warm"

// foldProfile reads the profile with `go tool pprof -top` and sums the
// self time of each function into its package.
func foldProfile(path string, p *part) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", path)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	shares, warm, err := parsePprofTop(out.String())
	if err != nil {
		return err
	}
	for _, suffix := range sharePackages {
		p.set("cpu_share."+suffix, shares[suffix])
	}
	p.set("cpu_cum.pipeline.Warm", warm)
	return nil
}

// parsePprofTop folds `pprof -top` rows ("flat flat% sum% cum cum%
// name") into self-time percentages per package and returns the
// cumulative percentage of warmFunc.
func parsePprofTop(top string) (map[string]float64, float64, error) {
	shares := make(map[string]float64)
	var warm float64
	rows := 0
	sc := bufio.NewScanner(strings.NewReader(top))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		flat, err1 := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		cum, err2 := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		rows++
		fn := strings.Join(f[5:], " ")
		if fn == warmFunc {
			warm = cum
		}
		if suffix, ok := sharePackages[packageOf(fn)]; ok {
			shares[suffix] += flat
		}
	}
	if rows == 0 {
		return nil, 0, fmt.Errorf("pprof printed no rows")
	}
	return shares, warm, nil
}

// packageOf returns the import path of a profiled function name such as
// "watchdog/internal/pipeline.(*Model).OnUop". The runtime's internal
// packages count as runtime.
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	pkg := fn
	if dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return pkg
}
