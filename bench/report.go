package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// metric is a metric the benchmark prints, with its unit.
type metric struct{ name, unit string }

// endToEnd lists the metrics an end-to-end run prints, perLayer those a
// traced run prints. BENCHMARK.json declares the same names and units;
// the smoke test keeps them in step.
//
// Host-time metrics (wall_s, ops_per_s, sim_mips and the service
// latencies) are per-layer: on the shared two-core host the benchmark
// was sized on, their run-to-run spread is wider than the bounds a
// regression gate needs (README.md, "Why the times are not gated").
var endToEnd = []metric{{"setup_s", "s"}, {"peak_rss_mb", "MB"}}

var perLayer = []metric{
	{"bench.trace_overhead_pct", "%"}, {"bench.host_speed", "ratio"},
	{"wall_s", "s"}, {"ops_per_s", "1/s"}, {"sim_mips", "Minst/s"},
	{"sim.profile_ms_p50", "ms"}, {"sim.profile_ms_p90", "ms"}, {"sim.run_ms_p50", "ms"}, {"sim.run_ms_p90", "ms"},
	{"workload.build_ms", "ms"}, {"fuzzgen.generate_us", "us"},
	{"experiments.core_idle_pct", "%"},
	{"pipeline.timing_ns_per_uop", "ns"}, {"pipeline.new_us", "us"}, {"pipeline.new_bytes", "bytes"},
	{"cache.data_ns", "ns"}, {"cache.lockread_ns", "ns"}, {"cache.fetch_ns", "ns"}, {"cache.tlb_lookup_ns", "ns"},
	{"cache.new_hierarchy_us", "us"}, {"cache.new_hierarchy_bytes", "bytes"},
	{"bpred.cond_ns", "ns"}, {"isa.crack_ns", "ns"}, {"isa.crackcache_ns", "ns"},
	{"core.check_ns", "ns"}, {"machine.functional_ns_per_inst", "ns"},
	{"serve.hit_p50_ms", "ms"}, {"serve.hit_tail_ms", "ms"}, {"serve.miss_p50_ms", "ms"}, {"serve.miss_tail_ms", "ms"},
	{"serve.handler_replay_us", "us"}, {"serve.transport_us", "us"},
	{"serve.compute_ms_p50", "ms"}, {"serve.compute_ms_p90", "ms"}, {"serve.wait_ms", "ms"},
	{"serve.sims", "count"}, {"serve.coalesced", "count"}, {"serve.rejected_busy", "count"}, {"serve.cache_hit_ratio", "ratio"},
	{"fabric.cells_sent", "count"}, {"fabric.retried", "count"},
	{"runtime.gc_cpu_pct", "%"}, {"runtime.alloc_mb_per_s", "MB/s"},
	{"cpu_share.machine", "%"}, {"cpu_share.pipeline", "%"}, {"cpu_share.cache", "%"}, {"cpu_share.core", "%"},
	{"cpu_share.mem", "%"}, {"cpu_share.isa", "%"}, {"cpu_share.bpred", "%"}, {"cpu_share.asm", "%"}, {"cpu_share.rt", "%"},
	{"cpu_share.serve", "%"}, {"cpu_share.net_http", "%"}, {"cpu_share.encoding_json", "%"}, {"cpu_share.runtime", "%"},
	{"cpu_cum.pipeline.Warm", "%"},
	{"model.insts", "count"}, {"model.uops", "count"}, {"model.cycles", "count"}, {"model.check_uops", "count"},
	{"model.l1d_misses", "count"}, {"model.lock_misses", "count"}, {"model.mispredicts", "count"}, {"model.digest", "hash"},
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// part is what one measuring child process reports to its parent. The
// sweeps and serve-fabric measure one batch per process, so a run's
// parts merge by adding counts and concatenating peaks.
type part struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// RSS holds peak resident sets in MB: the process's peak, or the
	// peaks of its 100 ms windows (see rssWindows).
	RSS []float64 `json:"rss_mb,omitempty"`
	// Layers holds a traced run's per-layer metrics.
	Layers map[string]float64 `json:"layers,omitempty"`
}

func newPart() *part { return &part{Layers: make(map[string]float64)} }

func (p *part) set(name string, v float64) { p.Layers[name] = v }

// fail records n failed operations with the reason for the first of
// them, so a failing run says why without flooding the output.
func (p *part) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	if p.Failed == 0 {
		fmt.Fprintf(os.Stderr, "bench: failed: "+format+"\n", args...)
	}
	p.Failed += n
}

// summarize merges a run's parts into its result. An end-to-end run
// gets peak_rss_mb, and the parent adds setup_s; a traced run gets
// every per-layer metric, 0 where its workload does not exercise the
// layer, and the parent adds bench.host_speed.
func summarize(parts []part, traced bool) (*result, error) {
	res := &result{Metrics: make(map[string]metricValue)}
	var rss []float64
	layers := make(map[string]float64)
	for _, p := range parts {
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		rss = append(rss, p.RSS...)
		for k, v := range p.Layers {
			layers[k] = v
		}
	}
	res.Correct = res.Failed == 0
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	names := perLayer
	if !traced {
		names = endToEnd
		layers["peak_rss_mb"] = median(rss)
	}
	for _, mt := range names {
		v := layers[mt.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", mt.name, v)
		}
		res.Metrics[mt.name] = metricValue{Value: v, Unit: mt.unit}
	}
	return res, nil
}

// tailLadder is the set of percentiles the tail is reported at.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tail returns the highest percentile of xs in tailLadder that has at
// least ten samples above it, its value (nearest rank) and n. With too
// few samples for any of them it returns the maximum as percentile 100.
func tail(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if rank >= 1 && n-rank >= 10 {
			return s[rank-1], p, n
		}
	}
	return s[n-1], 100, n
}

// percentile returns the nearest-rank p-th percentile of xs (0 when xs
// is empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// median returns the median of xs (the mean of the middle two for an
// even count; 0 when xs is empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func formatFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB. Off
// Linux, where /proc is missing, it falls back to the memory the Go
// runtime obtained from the system.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
