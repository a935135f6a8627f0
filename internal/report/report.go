// Package report defines the stable, versioned machine-readable
// schema behind `watchdog-bench -json` / `watchdog-juliet -json` and
// the baseline comparison behind `watchdog-bench -baseline`: every
// (workload, configuration) cell the harness simulated — cycle
// breakdown, µop counts, cache counters — plus the per-figure geomean
// summaries, serialized so a later run can be diffed against it and
// gated on a regression threshold.
//
// Schema stability rules: fields are only ever added, never renamed
// or repurposed; Version bumps on any incompatible change; cells and
// figures are emitted in a deterministic sort order so identical runs
// produce byte-identical documents.
package report

import (
	"encoding/json"
	"fmt"
	"os"
)

const (
	// Schema identifies a watchdog-bench report document.
	Schema = "watchdog-bench"
	// JulietSchema identifies a standalone watchdog-juliet document.
	JulietSchema = "watchdog-juliet"
	// BenchSchema identifies a harness-timing document (-bench-out).
	BenchSchema = "watchdog-bench-timing"
	// Version is the current schema version.
	Version = 1
)

// Report is the top-level document.
type Report struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Scale   int    `json:"scale"`
	// Fidelity is the run's default timing methodology ("exact" or
	// "sampled"; empty in pre-fidelity documents means exact).
	// Individual cells carry their own fidelity — a document can mix
	// them (the fidelity-drift experiment does).
	Fidelity  string   `json:"fidelity,omitempty"`
	Workloads []string `json:"workloads"`
	// Cells holds one record per simulated (workload, configuration)
	// pair, sorted by workload then configuration.
	Cells []Cell `json:"cells"`
	// Figures holds the geomean summaries of the overhead figures
	// that ran, in the paper's figure order.
	Figures []Figure `json:"figures,omitempty"`
	// Juliet summarizes the Section 9.2 security suite when it ran.
	Juliet *Juliet `json:"juliet,omitempty"`
	// Drift holds the fidelity-drift experiment's records when it ran:
	// per (fidelity, configuration), the approximate geomean overhead
	// against the exact one, and the measured wall-clock speedup.
	Drift []Drift `json:"drift,omitempty"`
	// Partial marks a document flushed by an interrupted run (SIGINT
	// mid-sweep): it holds every cell that completed, but absent cells
	// are unfinished work, not zero — do not gate regressions on it.
	Partial bool `json:"partial,omitempty"`
}

// Cell is the per-simulation metrics record.
type Cell struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	// Fidelity is the timing methodology that produced this cell
	// (empty in pre-fidelity documents means exact). Cells of
	// different fidelities are never comparable: Compare refuses to
	// diff them.
	Fidelity string `json:"fidelity,omitempty"`
	// Partial marks a cell whose simulation was interrupted; its
	// numbers cover only the instructions executed before the stop and
	// must not be gated on.
	Partial bool `json:"partial,omitempty"`

	// Cycle counts. The four breakdown buckets sum to Cycles. At the
	// sampled fidelity Cycles is the whole-program extrapolation from
	// the sample windows (and the buckets are scaled to match); at the
	// exact fidelity it is the measured count.
	Cycles         int64 `json:"cycles"`
	BaseCycles     int64 `json:"base_cycles"`
	CheckCycles    int64 `json:"check_cycles"`
	LockMissCycles int64 `json:"lock_miss_cycles"`
	MetaCycles     int64 `json:"meta_cycles"`

	// SampledInsts is how many instructions landed inside measured
	// sample windows (sampled fidelity only; zero otherwise).
	SampledInsts uint64 `json:"sampled_insts,omitempty"`
	// DriftVsExactPct is the signed percentage by which this cell's
	// cycle count strays from its exact counterpart, filled only when
	// the same document holds an exact cell for the same (workload,
	// configuration).
	DriftVsExactPct float64 `json:"drift_vs_exact_pct,omitempty"`

	Insts        uint64  `json:"insts"`
	Uops         uint64  `json:"uops"`
	InjectedUops uint64  `json:"injected_uops"`
	IPC          float64 `json:"ipc"`

	// UopsByMeta buckets µops by Figure 8 class ("prog", "check",
	// "ptrload", "ptrstore", "other"); UopsByOp counts by opcode
	// mnemonic. Zero counts are omitted.
	UopsByMeta map[string]uint64 `json:"uops_by_meta,omitempty"`
	UopsByOp   map[string]uint64 `json:"uops_by_op,omitempty"`

	// Engine-side (functional) accounting.
	MemAccesses uint64 `json:"mem_accesses"`
	PtrLoads    uint64 `json:"ptr_loads"`
	PtrStores   uint64 `json:"ptr_stores"`
	Checks      uint64 `json:"checks"`

	// Memory-footprint accounting (the Figure 10 inputs): words and
	// 4 KB pages touched, split into application memory (globals, heap,
	// stack) and metadata memory (shadow space, lock locations). Added
	// in PR 8 so a wire cell carries everything the figure assembly
	// needs; absent in older documents.
	AppWords  uint64 `json:"app_words,omitempty"`
	AppPages  uint64 `json:"app_pages,omitempty"`
	MetaWords uint64 `json:"meta_words,omitempty"`
	MetaPages uint64 `json:"meta_pages,omitempty"`

	// Cache counters.
	LockCacheAccesses uint64 `json:"lock_cache_accesses"`
	LockCacheMisses   uint64 `json:"lock_cache_misses"`
	L1DAccesses       uint64 `json:"l1d_accesses"`
	L1DMisses         uint64 `json:"l1d_misses"`
	L2Misses          uint64 `json:"l2_misses"`
	L3Misses          uint64 `json:"l3_misses"`

	// Overhead is the slowdown ratio over this workload's baseline
	// cell (0 when the baseline was not simulated in this run).
	Overhead float64 `json:"overhead,omitempty"`
}

// Figure is one overhead figure's geomean summary.
type Figure struct {
	Name     string    `json:"name"`
	Geomeans []Geomean `json:"geomeans"`
}

// Geomean is one configuration's geometric-mean percentage overhead.
type Geomean struct {
	Config      string  `json:"config"`
	OverheadPct float64 `json:"overhead_pct"`
}

// Drift is one fidelity-drift measurement: how far an approximate
// fidelity's geomean overhead strays from the exact one for a
// configuration, and how much faster the approximate sweep ran.
type Drift struct {
	Fidelity string `json:"fidelity"`
	Config   string `json:"config"`
	// ExactPct / ApproxPct are the geomean overhead percentages at the
	// exact and the approximate fidelity; DriftPP is their signed
	// difference in percentage points.
	ExactPct  float64 `json:"exact_pct"`
	ApproxPct float64 `json:"approx_pct"`
	DriftPP   float64 `json:"drift_pp"`
	// SpeedupX is the wall-clock speedup of the approximate fidelity's
	// whole sweep over the exact one (shared per fidelity, repeated on
	// each of its rows).
	SpeedupX float64 `json:"speedup_x"`
}

// Juliet is the security-suite summary record.
type Juliet struct {
	Policy        string      `json:"policy,omitempty"`
	BadTotal      int         `json:"bad_total"`
	BadDetected   int         `json:"bad_detected"`
	GoodTotal     int         `json:"good_total"`
	GoodClean     int         `json:"good_clean"`
	ByCWEDetected map[int]int `json:"by_cwe_detected,omitempty"`
	ByCWETotal    map[int]int `json:"by_cwe_total,omitempty"`
}

// JulietReport is the standalone watchdog-juliet -json document.
type JulietReport struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Juliet  Juliet `json:"juliet"`
	// Partial marks a document flushed by an interrupted run: the
	// counts cover only the cases that completed.
	Partial bool `json:"partial,omitempty"`
}

// WriteFile serializes the report to path (indented JSON, trailing
// newline). The schema and version fields are stamped here so callers
// cannot emit an unversioned document.
func WriteFile(path string, r *Report) error {
	r.Schema = Schema
	r.Version = Version
	return writeJSON(path, r)
}

// ReadFile loads and validates a report written by WriteFile.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, Schema)
	}
	if r.Version < 1 || r.Version > Version {
		return nil, fmt.Errorf("%s: schema version %d not supported (this build understands 1..%d)",
			path, r.Version, Version)
	}
	return &r, nil
}

// BenchReport is the harness-timing document behind `watchdog-bench
// -bench-out`: how long the run took (wall and summed-worker busy
// time) and what work it did, per experiment. Unlike the metrics
// Report its numbers are wall-clock measurements, so two identical
// runs produce different documents; it exists for performance
// tracking (CI artifacts, before/after comparisons), not figure
// regression gating.
type BenchReport struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Exp     string `json:"exp"`
	Scale   int    `json:"scale"`
	Jobs    int    `json:"jobs"`
	// Fidelity is the timing fidelity the run used (empty = exact), so
	// a sampled timing record is never mistaken for an exact one when
	// wall-clocks are compared.
	Fidelity string `json:"fidelity,omitempty"`
	// Workloads is the -workloads subset (empty = all).
	Workloads []string `json:"workloads,omitempty"`

	WallNanos int64 `json:"wall_nanos"`
	// Harness is the work the run did; BusyNanos / WallNanos is the
	// effective parallelism.
	Harness

	// Experiments breaks the wall time down per rendered experiment,
	// in execution order.
	Experiments []BenchExperiment `json:"experiments,omitempty"`
	// Fabric carries the distributed-sweep counters when the run routed
	// cells through `-workers` (nil for local runs).
	Fabric *FabricStats `json:"fabric,omitempty"`
	// Partial marks a record flushed by an interrupted run; wall and
	// busy times cover only the work done before the signal.
	Partial bool `json:"partial,omitempty"`
}

// BenchExperiment is one experiment's wall-time record.
type BenchExperiment struct {
	Name      string `json:"name"`
	WallNanos int64  `json:"wall_nanos"`
}

// Harness is the host-side work record of the experiment runners:
// simulations and profiling passes executed, requests answered from
// the runners' once-caches, and simulator time summed across workers.
// stats.Timing accumulates it; the BenchReport embeds it, the
// watchdog-serve /metrics document carries it, and its `prom` tags
// declare the watchdog_harness_* series (see stats.PromWriter.Struct).
type Harness struct {
	Sims      uint64 `json:"sims" prom:"watchdog_harness_sims_total,counter" help:"Timed simulations executed by the shared runners."`
	Profiles  uint64 `json:"profiles" prom:"watchdog_harness_profiles_total,counter" help:"Profiling passes executed by the shared runners."`
	CacheHits uint64 `json:"cache_hits" prom:"watchdog_harness_cache_hits_total,counter" help:"Simulations answered from the runners' once-caches."`
	BusyNanos int64  `json:"busy_nanos" prom:"watchdog_harness_busy_seconds_total,counter,/1e9" help:"Cumulative wall time spent inside simulations."`
	// CacheHitRatio is hits / (hits + sims); 0 until something ran.
	CacheHitRatio float64 `json:"cache_hit_ratio" prom:"watchdog_harness_cache_hit_ratio,gauge" help:"Cache hits / (hits + sims) since start."`
}

// Add folds o's counters into h and derives the hit ratio from the
// sums.
func (h *Harness) Add(o Harness) {
	h.Sims += o.Sims
	h.Profiles += o.Profiles
	h.CacheHits += o.CacheHits
	h.BusyNanos += o.BusyNanos
	if total := h.CacheHits + h.Sims; total > 0 {
		h.CacheHitRatio = float64(h.CacheHits) / float64(total)
	}
}

// FabricStats is the distributed-sweep coordinator's counter record:
// what the fabric did to complete a sweep across its workers. It rides
// the BenchReport, and its `prom` tags declare the coordinator's
// Prometheus series (see stats.PromWriter.Struct).
type FabricStats struct {
	// CellsSent counts HTTP cell requests issued to workers, retries
	// included.
	CellsSent int64 `json:"cells_sent" prom:"watchdog_fabric_cells_sent_total,counter" help:"Cell requests issued to workers, retries included."`
	// Retried counts re-issues after a worker failed or was busy.
	Retried int64 `json:"retried" prom:"watchdog_fabric_retries_total,counter" help:"Cell re-issues after a failed placement round."`
	// Ejections counts workers marked dead (connection failures or
	// failed health probes); a worker can be ejected and readmitted
	// repeatedly over one sweep.
	Ejections int64 `json:"ejections" prom:"watchdog_fabric_ejections_total,counter" help:"Workers marked dead (live-to-dead edges only)."`
	// Workers is the per-worker request/latency breakdown, in the
	// configured worker order.
	Workers []FabricWorker `json:"workers,omitempty"`
}

// FabricWorker is one worker's slice of the fabric record; its samples
// are labeled by the worker's normalized address.
type FabricWorker struct {
	Addr  string `json:"addr" prom:"worker,label"`
	Alive bool   `json:"alive" prom:"watchdog_fabric_worker_alive,gauge" help:"1 while the worker is routable, 0 while ejected."`
	// Requests/Errors and the latency percentiles cover the cell
	// requests this worker actually received (a bounded recent window
	// for the percentiles).
	Requests int64 `json:"requests" prom:"watchdog_fabric_worker_requests_total,counter" help:"Cell requests this worker received."`
	Errors   int64 `json:"errors" prom:"watchdog_fabric_worker_errors_total,counter" help:"Cell requests this worker failed (transport or non-200)."`
	// Window is how many recent requests the percentiles describe
	// (the latency ring is bounded; see stats.LatencySnapshot).
	Window   int     `json:"window" prom:"watchdog_fabric_worker_latency_window,gauge" help:"Observations covered by the worker's percentile gauges."`
	P50Milli float64 `json:"p50_ms" prom:"watchdog_fabric_worker_latency_window_seconds,gauge,quantile=0.5,/1e3" help:"Exact latency percentiles over the worker's bounded recent-request window."`
	P99Milli float64 `json:"p99_ms" prom:"watchdog_fabric_worker_latency_window_seconds,gauge,quantile=0.99,/1e3"`
}

// WriteBenchFile serializes the timing document, stamping schema and
// version like WriteFile does.
func WriteBenchFile(path string, b *BenchReport) error {
	data, err := EncodeBench(b)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// EncodeBench stamps the timing document's schema and version and
// returns the bytes WriteBenchFile writes (watchdog-bench -stats
// prints the same bytes).
func EncodeBench(b *BenchReport) ([]byte, error) {
	b.Schema = BenchSchema
	b.Version = Version
	return encodeJSON(b)
}

// ReadBenchFile loads and validates a document written by
// WriteBenchFile.
func ReadBenchFile(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b BenchReport
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.Schema != BenchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, b.Schema, BenchSchema)
	}
	if b.Version < 1 || b.Version > Version {
		return nil, fmt.Errorf("%s: schema version %d not supported (this build understands 1..%d)",
			path, b.Version, Version)
	}
	return &b, nil
}

// WriteJulietFile serializes the standalone security-suite document.
// partial marks a document flushed by an interrupted run.
func WriteJulietFile(path string, j Juliet, partial bool) error {
	return writeJSON(path, &JulietReport{Schema: JulietSchema, Version: Version, Juliet: j, Partial: partial})
}

func writeJSON(path string, v any) error {
	data, err := encodeJSON(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// encodeJSON renders a document as every writer here does: indented
// JSON and a trailing newline.
func encodeJSON(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
