package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// TestGeomean: the geometric mean under the overhead is exact (2 and 8
// give 4, a 300% overhead), and no ratios give 0.
func TestGeomean(t *testing.T) {
	if o, err := GeomeanOverheadErr([]float64{2, 8}); err != nil || math.Abs(o-300) > 1e-9 {
		t.Fatalf("GeomeanOverheadErr(2,8) = %v, %v; want 300", o, err)
	}
	if o, err := GeomeanOverheadErr(nil); err != nil || o != 0 {
		t.Fatalf("GeomeanOverheadErr(nil) = %v, %v; want 0", o, err)
	}
}

// TestGeomeanErr: a non-positive or NaN ratio is reported by index and
// value instead of rendered as NaN.
func TestGeomeanErr(t *testing.T) {
	for _, bad := range [][]float64{{1, -1}, {1, 0, 2}, {math.NaN()}} {
		if _, err := GeomeanOverheadErr(bad); err == nil {
			t.Errorf("GeomeanOverheadErr(%v): expected error", bad)
		} else if !strings.Contains(err.Error(), "index") {
			t.Errorf("GeomeanOverheadErr(%v) error %q should name the index", bad, err)
		}
	}
}

func TestGeomeanOverheadErr(t *testing.T) {
	if o, err := GeomeanOverheadErr([]float64{1.15, 1.15}); err != nil || math.Abs(o-15) > 1e-9 {
		t.Fatalf("GeomeanOverheadErr = %v, %v", o, err)
	}
	if _, err := GeomeanOverheadErr([]float64{1.15, -0.5}); err == nil {
		t.Fatal("non-positive ratio must error, not render NaN")
	}
}

func TestGeomeanOverhead(t *testing.T) {
	// 15% overhead on every benchmark -> 15% geomean overhead.
	xs := []float64{1.15, 1.15, 1.15}
	if o, err := GeomeanOverheadErr(xs); err != nil || math.Abs(o-15) > 1e-9 {
		t.Fatalf("overhead = %v, %v", o, err)
	}
}

// Property: the geomean ratio lies between the smallest and largest
// ratio.
func TestGeomeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = 1 + float64(r)/1000
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		o, err := GeomeanOverheadErr(xs)
		g := 1 + o/100
		return err == nil && g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %f", m)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Figure X", "bench", "overhead")
	tb.Row("lbm", 1.5)
	tb.Row("mcf", 42.0)
	s := tb.String()
	if !strings.Contains(s, "Figure X") || !strings.Contains(s, "lbm") {
		t.Fatalf("table missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), s)
	}
}

func TestPct(t *testing.T) {
	if Pct(0.316) != "31.6%" {
		t.Fatalf("Pct = %s", Pct(0.316))
	}
}

func TestRenderBars(t *testing.T) {
	a := Series{Name: "conservative"}
	a.Add("lbm", 0.2)
	a.Add("mcf", 11.3)
	b := Series{Name: "isa"}
	b.Add("lbm", 0.2)
	b.Add("mcf", 4.7)
	out, err := RenderBars("Figure 7", []Series{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mcf") || !strings.Contains(out, "█") {
		t.Fatalf("bar output malformed:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title + 2 labels x 2 series
		t.Fatalf("bar output has %d lines:\n%s", len(lines), out)
	}
	// Zero-series edge case.
	if out, err := RenderBars("empty", nil); err != nil || !strings.Contains(out, "empty") {
		t.Fatalf("empty render must keep the title (err %v)", err)
	}
}

// TestRenderBarsInvariants: the doc-comment invariant (shared labels,
// one value per label) is validated — violations report an error
// naming the offending series instead of panicking on a bad index or
// silently misgrouping bars.
func TestRenderBarsInvariants(t *testing.T) {
	ok := Series{Name: "a", Labels: []string{"lbm", "mcf"}, Values: []float64{1, 2}}
	for _, tc := range []struct {
		name string
		bad  Series
	}{
		{"more values than labels", Series{Name: "b", Labels: []string{"lbm"}, Values: []float64{1, 2}}},
		{"fewer values than labels", Series{Name: "b", Labels: []string{"lbm", "mcf"}, Values: []float64{1}}},
		{"length mismatch across series", Series{Name: "b", Labels: []string{"lbm"}, Values: []float64{1}}},
		{"label mismatch across series", Series{Name: "b", Labels: []string{"lbm", "perl"}, Values: []float64{1, 2}}},
	} {
		out, err := RenderBars("t", []Series{ok, tc.bad})
		if err == nil {
			t.Errorf("%s: want error, got output:\n%s", tc.name, out)
			continue
		}
		if !strings.Contains(err.Error(), `"b"`) {
			t.Errorf("%s: error %q must name the offending series", tc.name, err)
		}
	}
	// The mismatch must also be caught when the first series is the
	// short one (series[0] used to silently truncate the others).
	short := Series{Name: "a", Labels: []string{"lbm"}, Values: []float64{1}}
	if _, err := RenderBars("t", []Series{short, ok}); err == nil {
		t.Error("short first series must be rejected, not silently truncate the chart")
	}
}
