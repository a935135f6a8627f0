package report

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleReport() *Report {
	return &Report{
		Scale:     1,
		Workloads: []string{"mcf", "perl"},
		Cells: []Cell{
			{
				Workload: "mcf", Config: "baseline",
				Cycles: 1000, BaseCycles: 1000,
				Insts: 500, Uops: 800, IPC: 0.8,
				UopsByMeta:  map[string]uint64{"prog": 800},
				UopsByOp:    map[string]uint64{"alu": 500, "load": 300},
				L1DAccesses: 300, L1DMisses: 10,
			},
			{
				Workload: "mcf", Config: "isa",
				Cycles: 1200, BaseCycles: 1000, CheckCycles: 120,
				LockMissCycles: 30, MetaCycles: 50,
				Insts: 500, Uops: 1000, InjectedUops: 200, IPC: 0.83,
				Checks: 100, PtrLoads: 50, PtrStores: 30,
				LockCacheAccesses: 100, LockCacheMisses: 5,
				Overhead: 1.2,
			},
		},
		Figures: []Figure{
			{Name: "fig7", Geomeans: []Geomean{
				{Config: "conservative", OverheadPct: 25.0},
				{Config: "isa", OverheadPct: 15.0},
			}},
		},
		Juliet: &Juliet{Policy: "watchdog", BadTotal: 291, BadDetected: 291,
			GoodTotal: 291, GoodClean: 291,
			ByCWEDetected: map[int]int{416: 192, 562: 99},
			ByCWETotal:    map[int]int{416: 192, 562: 99}},
	}
}

// TestRoundTrip: WriteFile stamps the schema header and ReadFile
// restores the exact document (the golden-schema contract).
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	r := sampleReport()
	if err := WriteFile(path, r); err != nil {
		t.Fatal(err)
	}
	if r.Schema != Schema || r.Version != Version {
		t.Fatalf("WriteFile must stamp schema/version, got %q v%d", r.Schema, r.Version)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestReadFileRejectsBadDocuments(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if _, err := ReadFile(write("schema.json", `{"schema":"other","version":1}`)); err == nil ||
		!strings.Contains(err.Error(), "schema") {
		t.Errorf("wrong schema must be rejected, got %v", err)
	}
	if _, err := ReadFile(write("version.json", `{"schema":"watchdog-bench","version":99}`)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("future version must be rejected, got %v", err)
	}
	if _, err := ReadFile(write("garbage.json", `not json`)); err == nil {
		t.Error("garbage must be rejected")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file must be rejected")
	}
}

// mustCompare is Compare for the tests where no fidelity mismatch is
// in play, so the error return is noise.
func mustCompare(t *testing.T, baseline, current *Report, thresholdPct float64) *Comparison {
	t.Helper()
	c, err := Compare(baseline, current, thresholdPct)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	return c
}

// TestCompareIdentical: a report diffed against itself has zero
// deltas and does not regress.
func TestCompareIdentical(t *testing.T) {
	r := sampleReport()
	c := mustCompare(t, r, r, 1.0)
	if c.Regressed() {
		t.Fatalf("identical reports regressed: %s", c)
	}
	if len(c.Figures) != 2 || len(c.Cells) != 2 {
		t.Fatalf("expected 2 figure + 2 cell deltas, got %d + %d", len(c.Figures), len(c.Cells))
	}
	for _, f := range c.Figures {
		if f.Delta != 0 {
			t.Errorf("figure %s/%s delta %v, want 0", f.Figure, f.Config, f.Delta)
		}
	}
	for _, cell := range c.Cells {
		if cell.DeltaPct != 0 {
			t.Errorf("cell %s/%s delta %v%%, want 0", cell.Workload, cell.Config, cell.DeltaPct)
		}
	}
	if len(c.Notes) != 0 {
		t.Errorf("unexpected notes: %v", c.Notes)
	}
	if !strings.Contains(c.String(), "RESULT: ok") {
		t.Errorf("String() = %q, missing ok result", c.String())
	}
}

// TestCompareRegression: deltas past the threshold regress; deltas
// inside it (and improvements of any size) do not.
func TestCompareRegression(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()

	// Geomean up by 0.5 pp: inside a 1.0 threshold, outside 0.1.
	cur.Figures[0].Geomeans[1].OverheadPct += 0.5
	if c := mustCompare(t, base, cur, 1.0); c.Regressed() {
		t.Fatalf("0.5 pp inside threshold 1.0 must pass: %s", c)
	}
	if c := mustCompare(t, base, cur, 0.1); !c.Regressed() {
		t.Fatal("0.5 pp past threshold 0.1 must regress")
	}

	// Cell cycles up 10%: regression at threshold 1.0.
	cur2 := sampleReport()
	cur2.Cells[1].Cycles = 1320
	c := mustCompare(t, base, cur2, 1.0)
	if !c.Regressed() {
		t.Fatal("10% cycle growth must regress at threshold 1.0")
	}
	if !strings.Contains(c.String(), "RESULT: REGRESSED") {
		t.Errorf("String() = %q, missing REGRESSED", c.String())
	}

	// An improvement never regresses, however large.
	cur3 := sampleReport()
	cur3.Cells[1].Cycles = 600
	cur3.Figures[0].Geomeans[0].OverheadPct = 1.0
	if c := mustCompare(t, base, cur3, 1.0); c.Regressed() {
		t.Fatalf("improvement flagged as regression: %s", c)
	}
}

// TestCompareRefusesMixedFidelity: an extrapolated cycle count diffed
// against an exact one is methodology, not regression — Compare must
// error instead of producing a threshold-gateable delta. The empty
// fidelity of pre-fidelity documents means exact and stays comparable.
func TestCompareRefusesMixedFidelity(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	cur.Fidelity = "sampled"
	for i := range cur.Cells {
		cur.Cells[i].Fidelity = "sampled"
	}
	if _, err := Compare(base, cur, 1.0); err == nil ||
		!strings.Contains(err.Error(), "fidelit") {
		t.Fatalf("sampled vs exact documents must be refused, got %v", err)
	}

	// Same top-level fidelity but a cell pair of different fidelities:
	// refused at the cell level.
	cur2 := sampleReport()
	cur2.Cells[1].Fidelity = "sampled"
	if _, err := Compare(base, cur2, 1.0); err == nil ||
		!strings.Contains(err.Error(), "mcf/isa") {
		t.Fatalf("mixed-fidelity cell pair must be refused, got %v", err)
	}

	// Explicit "exact" against the empty legacy fidelity compares fine.
	cur3 := sampleReport()
	cur3.Fidelity = "exact"
	for i := range cur3.Cells {
		cur3.Cells[i].Fidelity = "exact"
	}
	if c := mustCompare(t, base, cur3, 1.0); c.Regressed() || len(c.Cells) != 2 {
		t.Fatalf("legacy-vs-explicit exact must compare cleanly: %s", c)
	}
}

// TestCompareSkipsPartialCells: an interrupted cell's numbers are not
// a measurement; the pair becomes a note instead of a delta.
func TestCompareSkipsPartialCells(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	cur.Cells[1].Partial = true
	cur.Cells[1].Cycles = 1 // wildly off, but partial
	c := mustCompare(t, base, cur, 1.0)
	if c.Regressed() {
		t.Fatalf("partial cell must not be gated: %s", c)
	}
	if joined := strings.Join(c.Notes, "\n"); !strings.Contains(joined, "partial") {
		t.Errorf("notes %q missing partial skip", joined)
	}
}

// TestCompareStructuralNotes: one-sided cells and figures become
// notes, not regressions.
func TestCompareStructuralNotes(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	cur.Cells = cur.Cells[:1] // current lost a cell
	cur.Figures = append(cur.Figures, Figure{Name: "fig9", Geomeans: []Geomean{{Config: "isa", OverheadPct: 1}}})
	cur.Scale = 2

	c := mustCompare(t, base, cur, 1.0)
	if c.Regressed() {
		t.Fatalf("structural differences must not regress: %s", c)
	}
	joined := strings.Join(c.Notes, "\n")
	for _, want := range []string{"mcf/isa", "fig9/isa", "scale mismatch"} {
		if !strings.Contains(joined, want) {
			t.Errorf("notes %q missing %q", joined, want)
		}
	}
}
