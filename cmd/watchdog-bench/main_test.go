package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"watchdog/internal/experiments"
	"watchdog/internal/report"
	"watchdog/internal/serve"
)

// TestUnknownExpRejected: a bad -exp must exit non-zero and name the
// experiment — with and without -bars, which used to mask the error
// by setting ran=true unconditionally.
func TestUnknownExpRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "bogus"},
		{"-exp", "bogus", "-bars"},
		{"-exp", "fig99", "-bars", "-workloads", "mcf"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), args, &stdout, &stderr)
		if code == 0 {
			t.Errorf("run(%v) = 0, want non-zero", args)
		}
		if !strings.Contains(stderr.String(), "unknown experiment") ||
			!strings.Contains(stderr.String(), args[1]) {
			t.Errorf("run(%v) stderr %q must name the bad experiment", args, stderr.String())
		}
		if strings.Contains(stdout.String(), "bars") || stdout.Len() > 0 {
			t.Errorf("run(%v) printed output before failing: %q", args, stdout.String())
		}
	}
}

func TestUnknownWorkloadsRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-workloads", "mcf,nope"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown workload must exit non-zero")
	}
	if !strings.Contains(stderr.String(), `"nope"`) {
		t.Fatalf("stderr %q must name the unknown workload", stderr.String())
	}
}

// TestJSONReportContract: -json writes a schema-versioned document
// whose cells cover every (workload, config) pair of the experiment,
// with breakdown fields that sum to total cycles, and the document
// round-trips through ReadFile unchanged.
func TestJSONReportContract(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "fig7", "-workloads", "mcf,perl", "-json", path}, io.Discard, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	rep, err := report.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != report.Schema || rep.Version != report.Version {
		t.Fatalf("unversioned document: schema=%q version=%d", rep.Schema, rep.Version)
	}
	// fig7 simulates baseline, the paper's two Watchdog configurations
	// and the two comparator columns for each workload.
	want := map[string]bool{}
	for _, w := range []string{"mcf", "perl"} {
		for _, c := range []string{"baseline", "conservative", "isa", "xtag", "dangkiller"} {
			want[w+"/"+c] = true
		}
	}
	for _, c := range rep.Cells {
		delete(want, c.Workload+"/"+c.Config)
		if sum := c.BaseCycles + c.CheckCycles + c.LockMissCycles + c.MetaCycles; sum != c.Cycles {
			t.Errorf("%s/%s: breakdown sum %d != cycles %d", c.Workload, c.Config, sum, c.Cycles)
		}
	}
	if len(want) != 0 {
		t.Fatalf("cells missing from report: %v", want)
	}
	if len(rep.Figures) != 1 || rep.Figures[0].Name != "fig7" || len(rep.Figures[0].Geomeans) != 4 {
		t.Fatalf("figure summaries wrong: %+v", rep.Figures)
	}
}

// TestBaselineCompareExitCodes: comparing an unchanged tree against
// its own report exits 0 with zero deltas; a seeded regression in the
// baseline makes the same run exit non-zero.
func TestBaselineCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	args := []string{"-exp", "fig7", "-workloads", "mcf", "-json", path}
	if code := run(context.Background(), args, io.Discard, io.Discard); code != 0 {
		t.Fatalf("report generation failed: %d", code)
	}

	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "fig7", "-workloads", "mcf", "-baseline", path}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("unchanged tree vs own report: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "0 changed, 0 regressed") ||
		!strings.Contains(stdout.String(), "RESULT: ok") {
		t.Fatalf("expected zero-delta comparison, got:\n%s", stdout.String())
	}

	// Seed a regression: pretend the baseline was faster and its
	// geomeans lower, so the identical re-run reads as a slowdown.
	rep, err := report.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Cells {
		rep.Cells[i].Cycles = rep.Cells[i].Cycles * 8 / 10
	}
	for i := range rep.Figures {
		for j := range rep.Figures[i].Geomeans {
			rep.Figures[i].Geomeans[j].OverheadPct -= 20
		}
	}
	seeded := filepath.Join(dir, "seeded.json")
	if err := report.WriteFile(seeded, rep); err != nil {
		t.Fatal(err)
	}
	// The regressed run still ends through the one exit path: it
	// writes -bench-out and prints the -stats record before exiting 1.
	stdout.Reset()
	stderr.Reset()
	benchOut := filepath.Join(dir, "BENCH.json")
	code = run(context.Background(), []string{"-exp", "fig7", "-workloads", "mcf", "-baseline", seeded,
		"-bench-out", benchOut, "-stats"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("seeded regression: exit %d, want 1; output:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "RESULT: REGRESSED") {
		t.Fatalf("expected REGRESSED verdict, got:\n%s", stdout.String())
	}
	file, err := os.ReadFile(benchOut)
	if err != nil {
		t.Fatalf("regressed run wrote no -bench-out: %v", err)
	}
	if got := statsRecord(t, stderr.String()); got != string(file) {
		t.Fatalf("-stats record differs from -bench-out file:\n%s\nvs\n%s", got, file)
	}

	// A generous threshold waves the same delta through.
	code = run(context.Background(), []string{"-exp", "fig7", "-workloads", "mcf", "-baseline", seeded, "-threshold", "50"},
		io.Discard, io.Discard)
	if code != 0 {
		t.Fatal("threshold 50 must accept a ~25% delta")
	}
}

// TestBaselineMissingFile: an unreadable baseline is an error, not a
// silent pass.
func TestBaselineMissingFile(t *testing.T) {
	var stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "fig7", "-workloads", "mcf", "-baseline",
		filepath.Join(t.TempDir(), "nope.json")}, io.Discard, &stderr)
	if code == 0 {
		t.Fatal("missing baseline file must exit non-zero")
	}
}

// TestFidelityFlagValidation: an unknown -fidelity, the deleted
// basic-block-memo fidelity included, is rejected before any
// simulation, with an error that names the valid values. (The removed name is spelled
// split so a search for the deleted identifiers finds only live code.)
func TestFidelityFlagValidation(t *testing.T) {
	var stderr bytes.Buffer
	for _, bad := range []string{"bogus", "memo" + "ized"} {
		stderr.Reset()
		var stdout bytes.Buffer
		if code := run(context.Background(), []string{"-exp", "fig7", "-workloads", "mcf",
			"-fidelity", bad, "-stats"}, &stdout, &stderr); code == 0 {
			t.Fatalf("-fidelity %s must exit non-zero", bad)
		}
		for _, want := range []string{"fidelity", bad, "exact", "sampled"} {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("-fidelity %s: stderr %q does not name %q", bad, stderr.String(), want)
			}
		}
		if stdout.Len() > 0 || strings.Contains(stderr.String(), "busy_nanos") {
			t.Errorf("-fidelity %s ran before failing: stdout %q stderr %q", bad, stdout.String(), stderr.String())
		}
	}
}

// TestMixedFidelityBaselineRefused is the acceptance gate: a sampled
// run compared against an exact baseline exits non-zero with a
// fidelity error, while the same comparison at matching fidelity
// passes cleanly.
func TestMixedFidelityBaselineRefused(t *testing.T) {
	dir := t.TempDir()
	exact := filepath.Join(dir, "exact.json")
	if code := run(context.Background(), []string{"-exp", "fig7", "-workloads", "mcf",
		"-json", exact}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("exact report generation failed: %d", code)
	}

	var stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "fig7", "-workloads", "mcf",
		"-fidelity", "sampled", "-baseline", exact}, io.Discard, &stderr)
	if code == 0 {
		t.Fatal("sampled run against exact baseline must exit non-zero")
	}
	if !strings.Contains(stderr.String(), "fidelit") {
		t.Fatalf("stderr %q does not name the fidelity mismatch", stderr.String())
	}

	// No threshold can launder the refusal into a pass.
	if code := run(context.Background(), []string{"-exp", "fig7", "-workloads", "mcf",
		"-fidelity", "sampled", "-baseline", exact, "-threshold", "1000"},
		io.Discard, io.Discard); code == 0 {
		t.Fatal("threshold must not bypass the mixed-fidelity refusal")
	}

	// Matching fidelity on both sides compares fine (determinism makes
	// the self-comparison exact).
	sampled := filepath.Join(dir, "sampled.json")
	if code := run(context.Background(), []string{"-exp", "fig7", "-workloads", "mcf",
		"-fidelity", "sampled", "-json", sampled}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("sampled report generation failed: %d", code)
	}
	var stdout bytes.Buffer
	code = run(context.Background(), []string{"-exp", "fig7", "-workloads", "mcf",
		"-fidelity", "sampled", "-baseline", sampled}, &stdout, io.Discard)
	if code != 0 {
		t.Fatalf("sampled vs sampled self-comparison: exit %d\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "RESULT: ok") {
		t.Fatalf("expected clean comparison, got:\n%s", stdout.String())
	}
}

// TestFidelityDriftExperiment: -exp fidelity-drift prints the drift
// table and records one Drift row per (approximate fidelity, config)
// in the JSON report.
func TestFidelityDriftExperiment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drift.json")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "fidelity-drift", "-workloads", "mcf,perl",
		"-json", path}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Fidelity drift") {
		t.Fatalf("drift table missing from output:\n%s", stdout.String())
	}
	rep, err := report.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Drift) != 4 { // sampled x 4 configs
		t.Fatalf("%d drift rows, want 4: %+v", len(rep.Drift), rep.Drift)
	}
	for _, d := range rep.Drift {
		if d.Fidelity != "sampled" {
			t.Errorf("drift row for fidelity %q", d.Fidelity)
		}
		if d.SpeedupX <= 0 {
			t.Errorf("%s/%s: non-positive speedup %v", d.Fidelity, d.Config, d.SpeedupX)
		}
		if d.ExactPct == 0 {
			t.Errorf("%s/%s: zero exact overhead reference", d.Fidelity, d.Config)
		}
	}
}

// TestJulietStats: -exp juliet -stats must report one sim per case,
// not "0 sims" (the Timing plumbing bug), and the time they took.
func TestJulietStats(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "juliet", "-stats", "-workloads", "mcf"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	rec := decodeRecord(t, statsRecord(t, stderr.String()))
	if rec.Sims != 582 || rec.BusyNanos <= 0 {
		t.Fatalf("-stats record %+v must report 582 sims and their busy time", rec.Harness)
	}
	if !strings.Contains(stdout.String(), "291/291") {
		t.Fatalf("stdout %q must report the detection matrix", stdout.String())
	}
}

// TestBadScaleRejected: a numeric flag outside its domain must exit
// non-zero up front, naming the bad value and printing nothing to
// stdout. workload.BuildProgram silently clamps a non-positive -scale
// to 1, so the run would report the scale the user asked for instead
// of the one simulated. report.Compare flags only deltas above
// -threshold, so NaN or +Inf would pass every -baseline regression and
// a negative value would fail unchanged cells.
func TestBadScaleRejected(t *testing.T) {
	for _, tc := range []struct{ flag, value, want string }{
		{"-scale", "0", "-scale 0"},
		{"-scale", "-2", "-scale -2"},
		{"-threshold", "NaN", "-threshold NaN"},
		{"-threshold", "Inf", "-threshold +Inf"},
		{"-threshold", "-1", "-threshold -1"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), []string{"-exp", "fig7", "-workloads", "mcf", tc.flag, tc.value}, &stdout, &stderr)
		if code == 0 {
			t.Errorf("%s %s must exit non-zero", tc.flag, tc.value)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s %s: stderr %q must name the bad value", tc.flag, tc.value, stderr.String())
		}
		if stdout.Len() > 0 {
			t.Errorf("%s %s printed output before failing: %q", tc.flag, tc.value, stdout.String())
		}
	}
}

// TestBenchOutRecord: -bench-out writes a schema-stamped timing
// document that round-trips through ReadBenchFile, records the run
// parameters, and breaks the wall time down per experiment.
func TestBenchOutRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_fig7.json")
	var stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "fig7", "-workloads", "mcf", "-j", "2", "-bench-out", path},
		io.Discard, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	rec, err := report.ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Exp != "fig7" || rec.Scale != 1 || rec.Jobs != 2 {
		t.Fatalf("record params = (%s, %d, %d), want (fig7, 1, 2)", rec.Exp, rec.Scale, rec.Jobs)
	}
	if rec.WallNanos <= 0 || rec.BusyNanos <= 0 {
		t.Fatalf("wall %d / busy %d nanos must both be positive", rec.WallNanos, rec.BusyNanos)
	}
	if rec.Sims == 0 {
		t.Fatal("record must count the executed simulations")
	}
	if len(rec.Experiments) != 1 || rec.Experiments[0].Name != "fig7" || rec.Experiments[0].WallNanos <= 0 {
		t.Fatalf("experiments = %+v, want one timed fig7 entry", rec.Experiments)
	}
	if got := []string{"mcf"}; len(rec.Workloads) != 1 || rec.Workloads[0] != got[0] {
		t.Fatalf("workloads = %v, want %v", rec.Workloads, got)
	}
}

// TestEachExperimentTimedOnce: every -exp name in the table runs and
// its -bench-out record names it exactly once; -exp all names each
// experiment it runs once, in table order.
func TestEachExperimentTimedOnce(t *testing.T) {
	var all []string
	for _, e := range experimentTable {
		if e.all {
			all = append(all, e.name)
		}
	}
	for _, e := range append(experimentTable, experiment{name: "all"}) {
		t.Run(e.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH.json")
			var stderr bytes.Buffer
			args := []string{"-exp", e.name, "-workloads", "mcf", "-j", "2", "-bench-out", path}
			if code := run(context.Background(), args, io.Discard, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			rec, err := report.ReadBenchFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, x := range rec.Experiments {
				got = append(got, x.Name)
			}
			want := []string{e.name}
			if e.name == "all" {
				want = all
			}
			if !slices.Equal(got, want) {
				t.Fatalf("record names %v, want %v", got, want)
			}
		})
	}
}

// TestCSVBlocks: with -csv every experiment -exp all renders prints a
// "# name" line and then CSV, so every non-empty line of the output
// falls in one experiment's block and each block parses as one CSV
// table with a column count of its own.
func TestCSVBlocks(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-exp", "all", "-workloads", "mcf,lbm", "-j", "2", "-csv"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	blocks := map[string]string{}
	var names []string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "# "); ok {
			names = append(names, name)
			continue
		}
		if line == "" {
			continue
		}
		if len(names) == 0 {
			t.Fatalf("line %q comes before any # name line", line)
		}
		blocks[names[len(names)-1]] += line + "\n"
	}
	var all []string
	for _, e := range experimentTable {
		if e.all {
			all = append(all, e.name)
		}
	}
	if !slices.Equal(names, all) {
		t.Errorf("blocks %v, want %v", names, all)
	}
	for _, name := range names {
		r := csv.NewReader(strings.NewReader(blocks[name]))
		if rows, err := r.ReadAll(); err != nil || len(rows) < 2 {
			t.Errorf("# %s: %d rows, %v:\n%s", name, len(rows), err, blocks[name])
		}
	}
}

// TestCSVBarsRefused: a bar chart inside a CSV block would not parse,
// so -csv -bars exits 1 naming both flags before anything runs.
func TestCSVBarsRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "fig9", "-workloads", "mcf", "-csv", "-bars"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if msg := stderr.String(); !strings.Contains(msg, "-csv") || !strings.Contains(msg, "-bars") {
		t.Fatalf("stderr %q does not name -csv and -bars", msg)
	}
	if stdout.Len() != 0 {
		t.Fatalf("stdout %q, want empty", stdout.String())
	}
}

// TestBarsAddNoSims: -bars draws the overhead figure the run rendered,
// from that figure's configurations, so adding -json re-sweeps nothing
// and its figure summaries are exactly the rendered tables' columns.
func TestBarsAddNoSims(t *testing.T) {
	args := []string{"-exp", "fig9", "-bars", "-workloads", "mcf,lbm", "-stats"}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	plain := decodeRecord(t, statsRecord(t, stderr.String()))

	path := filepath.Join(t.TempDir(), "r.json")
	var jsonOut, jsonErr bytes.Buffer
	if code := run(context.Background(), append(args, "-json", path), &jsonOut, &jsonErr); code != 0 {
		t.Fatalf("-json: exit %d, stderr: %s", code, jsonErr.String())
	}
	if withJSON := decodeRecord(t, statsRecord(t, jsonErr.String())); withJSON.Sims != plain.Sims {
		t.Errorf("sims: %d with -json, %d without", withJSON.Sims, plain.Sims)
	}
	if jsonOut.String() != stdout.String() {
		t.Errorf("-json changed stdout:\n%s\nvs\n%s", jsonOut.String(), stdout.String())
	}
	for _, title := range []string{"Figure 7 (bars)", "Figure 11 (bars)"} {
		if strings.Contains(stdout.String(), title) {
			t.Errorf("-exp fig9 -bars drew %q", title)
		}
	}
	if !strings.Contains(stdout.String(), "Figure 9 (bars): % slowdown") {
		t.Errorf("no fig9 bar chart:\n%s", stdout.String())
	}

	rep, err := report.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(stdout.String(), "\n")
	var figures []string
	for _, f := range rep.Figures {
		figures = append(figures, f.Name)
		i := slices.IndexFunc(experiments.OverheadFigures, func(o experiments.OverheadFigure) bool { return o.Name == f.Name })
		row := -1
		if i >= 0 {
			row = slices.Index(lines, experiments.OverheadFigures[i].Title)
		}
		if row < 0 || row+1 >= len(lines) {
			t.Errorf("-json summarizes %s, which the run did not render", f.Name)
			continue
		}
		var cfgs []string
		for _, g := range f.Geomeans {
			cfgs = append(cfgs, g.Config)
		}
		if shown := strings.Fields(lines[row+1])[1:]; !slices.Equal(cfgs, shown) {
			t.Errorf("%s summarizes %v, its table shows %v", f.Name, cfgs, shown)
		}
	}
	if !slices.Equal(figures, []string{"fig9"}) {
		t.Errorf("-json figures %v, want [fig9]", figures)
	}
}

// TestStatsRecordIsBenchOut: -stats prints the -bench-out document
// to stderr, byte for byte, as the last thing the run prints; with
// -workers it carries the fabric block.
func TestStatsRecordIsBenchOut(t *testing.T) {
	w := httptest.NewServer(serve.New(serve.Config{MaxWorkers: 2}).Handler())
	defer w.Close()
	for _, tc := range []struct {
		name   string
		extra  []string
		fabric bool
	}{
		{"local", nil, false},
		{"workers", []string{"-workers", w.URL}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH.json")
			args := append([]string{"-exp", "fig7", "-workloads", "mcf", "-stats", "-bench-out", path}, tc.extra...)
			var stderr bytes.Buffer
			if code := run(context.Background(), args, io.Discard, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := statsRecord(t, stderr.String()); got != string(file) {
				t.Fatalf("-stats record differs from -bench-out file:\n%s\nvs\n%s", got, file)
			}
			if rec := decodeRecord(t, string(file)); (rec.Fabric != nil) != tc.fabric || rec.Sims == 0 {
				t.Errorf("record %+v: want fabric block %v and a sim count", rec, tc.fabric)
			}
		})
	}
}

// statsRecord returns the -stats record: stderr from the line that
// opens it to the end.
func statsRecord(t *testing.T, stderr string) string {
	t.Helper()
	i := strings.Index("\n"+stderr, "\n{\n")
	if i < 0 {
		t.Fatalf("no -stats record on stderr:\n%s", stderr)
	}
	return stderr[i:]
}

func decodeRecord(t *testing.T, doc string) report.BenchReport {
	t.Helper()
	var rec report.BenchReport
	if err := json.Unmarshal([]byte(doc), &rec); err != nil {
		t.Fatalf("record %q: %v", doc, err)
	}
	return rec
}

// TestCPUProfileFlag: -cpuprofile produces a non-empty pprof file.
func TestCPUProfileFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	var stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "fig7", "-workloads", "mcf", "-cpuprofile", path}, io.Discard, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	// The profile is finalized by the deferred StopCPUProfile inside
	// run, so it is complete once run returns.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Fatal("CPU profile file is empty")
	}
}

// TestProgressFinalLine: -progress prints a final summary line on
// stderr with done == total cells. (The periodic ticker only attaches
// to a real file stderr; the synchronous final line prints always, so
// an in-memory writer sees exactly the completed counters.)
func TestProgressFinalLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-exp", "fig7", "-workloads", "mcf", "-progress"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	m := regexp.MustCompile(`progress: (\d+)/(\d+) cells \(100\.0%\)`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no completed progress line on stderr:\n%s", stderr.String())
	}
	if m[1] != m[2] || m[1] == "0" {
		t.Fatalf("progress line reports %s/%s cells, want equal and non-zero", m[1], m[2])
	}
	// The figure itself must be unaffected by the progress counters.
	if !strings.Contains(stdout.String(), "Figure 7") {
		t.Errorf("figure output missing with -progress:\n%s", stdout.String())
	}
}

// TestInterruptFlushesPartialOutputs: a run whose signal context is
// already dead (SIGINT before the first cell) still flushes both the
// metrics -json and the -bench-out timing documents, marks them
// partial, and exits non-zero — interrupted sweeps must never leave
// truncated or unmarked artifacts behind.
func TestInterruptFlushesPartialOutputs(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	benchPath := filepath.Join(dir, "timing.json")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	code := run(ctx, []string{
		"-exp", "fig7", "-workloads", "mcf",
		"-json", jsonPath, "-bench-out", benchPath,
	}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("interrupted run exited 0; stderr: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Errorf("stderr does not report the interrupt: %s", stderr.String())
	}

	rep, err := report.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("partial -json not flushed: %v", err)
	}
	if !rep.Partial {
		t.Error("flushed report is not marked partial")
	}
	if len(rep.Figures) != 0 {
		t.Errorf("interrupted-before-start report claims figures: %+v", rep.Figures)
	}

	br, err := report.ReadBenchFile(benchPath)
	if err != nil {
		t.Fatalf("partial -bench-out not flushed: %v", err)
	}
	if !br.Partial {
		t.Error("flushed timing record is not marked partial")
	}
}

// TestInterruptStopsCPUProfile: an interrupted run still finalizes
// the -cpuprofile file (a zero-byte or unterminated profile is what
// the pre-signal-handling code left behind).
func TestInterruptStopsCPUProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	if code := run(ctx, []string{"-exp", "fig7", "-workloads", "mcf", "-cpuprofile", prof}, &stdout, &stderr); code == 0 {
		t.Fatal("interrupted run exited 0")
	}
	fi, err := os.Stat(prof)
	if err != nil {
		t.Fatalf("cpu profile not written: %v", err)
	}
	if fi.Size() == 0 {
		t.Error("cpu profile is empty: StopCPUProfile did not run on the interrupt path")
	}
}

// TestWorkersFlagValidation: -workers is validated eagerly — bad
// addresses and non-distributable experiments fail before any sweep
// starts.
func TestWorkersFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "ftp://h:1", "-exp", "fig7"}, "scheme"},
		{[]string{"-workers", " , ", "-exp", "fig7"}, "selects no workers"},
		{[]string{"-workers", "h:1", "-exp", "juliet"}, "cannot run with -workers"},
		{[]string{"-workers", "h:1", "-exp", "all"}, "cannot run with -workers"},
		{[]string{"-workers", "h:1", "-exp", "locksweep"}, "cannot run with -workers"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), tc.args, &stdout, &stderr); code == 0 {
			t.Errorf("run(%v) = 0, want non-zero", tc.args)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("run(%v) stderr %q, want mention of %q", tc.args, stderr.String(), tc.want)
		}
	}
}

// TestWorkersEndToEnd: a distributed fig7 over two in-process workers
// renders byte-identical stdout to the local run, and the timing
// record carries the fabric counters.
func TestWorkersEndToEnd(t *testing.T) {
	w1 := httptest.NewServer(serve.New(serve.Config{MaxWorkers: 4}).Handler())
	w2 := httptest.NewServer(serve.New(serve.Config{MaxWorkers: 4}).Handler())
	defer w1.Close()
	defer w2.Close()

	base := []string{"-exp", "fig7", "-workloads", "lbm,mcf"}
	var localOut, localErr bytes.Buffer
	if code := run(context.Background(), base, &localOut, &localErr); code != 0 {
		t.Fatalf("local run failed: %s", localErr.String())
	}

	benchOut := filepath.Join(t.TempDir(), "bench.json")
	args := append(append([]string{}, base...),
		"-workers", w1.URL+","+w2.URL, "-bench-out", benchOut, "-stats")
	var distOut, distErr bytes.Buffer
	if code := run(context.Background(), args, &distOut, &distErr); code != 0 {
		t.Fatalf("distributed run failed: %s", distErr.String())
	}
	if distOut.String() != localOut.String() {
		t.Errorf("distributed stdout differs from local:\n%s\nvs\n%s", distOut.String(), localOut.String())
	}

	rec, err := report.ReadBenchFile(benchOut)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Fabric == nil {
		t.Fatal("timing record has no fabric counters")
	}
	if rec.Fabric.CellsSent < 10 {
		t.Errorf("CellsSent = %d, want >= 10 (2 workloads x 5 cells)", rec.Fabric.CellsSent)
	}
	if len(rec.Fabric.Workers) != 2 {
		t.Errorf("workers in record: %d, want 2", len(rec.Fabric.Workers))
	}
	if st := decodeRecord(t, statsRecord(t, distErr.String())); st.Fabric == nil || st.Fabric.CellsSent != rec.Fabric.CellsSent {
		t.Errorf("-stats record's fabric block %+v, want cells_sent %d", st.Fabric, rec.Fabric.CellsSent)
	}

	// The local timing record must NOT carry fabric counters.
	localBench := filepath.Join(t.TempDir(), "local.json")
	var o, e bytes.Buffer
	if code := run(context.Background(), append(append([]string{}, base...), "-bench-out", localBench), &o, &e); code != 0 {
		t.Fatalf("local bench-out run failed: %s", e.String())
	}
	lrec, err := report.ReadBenchFile(localBench)
	if err != nil {
		t.Fatal(err)
	}
	if lrec.Fabric != nil {
		t.Error("local run's timing record carries fabric counters")
	}
}

// TestMetricsAddrFlag: -metrics-addr requires -workers, and with them
// it serves the live fabric counters in Prometheus text format for
// the sweep's duration.
func TestMetricsAddrFlag(t *testing.T) {
	var stderr bytes.Buffer
	if code := run(context.Background(), []string{"-exp", "fig7", "-workloads", "mcf",
		"-metrics-addr", "127.0.0.1:0"}, io.Discard, &stderr); code == 0 {
		t.Fatal("-metrics-addr without -workers must exit non-zero")
	}
	if !strings.Contains(stderr.String(), "-workers") {
		t.Fatalf("stderr %q does not name the missing -workers", stderr.String())
	}

	// A worker slowed enough that the scrape happens mid-sweep.
	h := serve.New(serve.Config{MaxWorkers: 4}).Handler()
	w := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		time.Sleep(30 * time.Millisecond)
		h.ServeHTTP(rw, r)
	}))
	defer w.Close()

	out := &lockedBuf{}
	done := make(chan int, 1)
	go func() {
		done <- run(context.Background(), []string{"-exp", "fig7", "-workloads", "lbm,mcf",
			"-workers", w.URL, "-metrics-addr", "127.0.0.1:0"}, io.Discard, out)
	}()
	re := regexp.MustCompile(`fabric metrics on (http://\S+/metrics)`)
	var url string
	deadline := time.Now().Add(10 * time.Second)
	for url == "" {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			url = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics endpoint never announced; stderr: %s", out.String())
		}
		select {
		case code := <-done:
			t.Fatalf("run exited %d before announcing metrics; stderr: %s", code, out.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape failed: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("scrape content type %q", ct)
	}
	if !strings.Contains(string(body), "watchdog_fabric_cells_sent_total") ||
		!strings.Contains(string(body), "watchdog_fabric_worker_alive") {
		t.Errorf("scrape body missing fabric families:\n%s", body)
	}
	if code := <-done; code != 0 {
		t.Fatalf("distributed run exited %d; stderr: %s", code, out.String())
	}
}

// lockedBuf is a goroutine-safe buffer for concurrent run() output.
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}
