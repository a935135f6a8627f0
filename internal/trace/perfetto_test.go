package trace_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"watchdog/internal/asm"
	"watchdog/internal/core"
	"watchdog/internal/isa"
	"watchdog/internal/rt"
	"watchdog/internal/sim"
	"watchdog/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildTiny is a minimal heap workload: allocate, store a few words,
// free, print. Deterministic by construction, so its timeline is too.
func buildTiny(t *testing.T) (*asm.Program, int) {
	t.Helper()
	r := rt.NewBuild(rt.Options{Policy: core.PolicyWatchdog})
	b := r.B
	b.Label("main")
	b.Movi(isa.R1, 32)
	b.Call("malloc")
	b.Mov(isa.R4, isa.R1)
	b.Movi(isa.R5, 3)
	b.Label("loop")
	b.St(asm.Mem(isa.R4, 0, 8), isa.R5)
	b.Subi(isa.R5, isa.R5, 1)
	b.Brnz(isa.R5, "loop")
	b.Mov(isa.R1, isa.R4)
	b.Call("free")
	b.Movi(isa.R1, 7)
	b.Sys(isa.SysPutInt, isa.R1)
	b.Ret()
	prog, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return prog, r.RuntimeEnd()
}

// runTiny runs the tiny workload with a timeline sink attached.
func runTiny(t *testing.T) *trace.Sink {
	t.Helper()
	prog, rtEnd := buildTiny(t)
	cfg := sim.Default()
	cfg.RuntimeEnd = rtEnd
	cfg.Sink = trace.New(trace.Config{Timeline: true, FlightN: 32})
	res, err := sim.Run(prog, cfg)
	if err != nil || res.MemErr != nil {
		t.Fatalf("run: %v %v", err, res.MemErr)
	}
	if res.Trace != cfg.Sink {
		t.Fatal("Result.Trace must carry the attached sink")
	}
	return cfg.Sink
}

// TestPerfettoGolden: the exported timeline must match the checked-in
// golden byte for byte (regenerate with -update).
func TestPerfettoGolden(t *testing.T) {
	s := runTiny(t)
	var buf bytes.Buffer
	if err := trace.WritePerfetto(&buf, s, map[string]string{"workload": "tiny"}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "tiny_timeline.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("timeline diverged from golden (len %d vs %d); run with -update and inspect the diff",
			buf.Len(), len(want))
	}
}

// TestPerfettoStreamMatchesReplay: an exporter attached as the sink's
// observer writes, while the run goes, the bytes that replaying the
// retained timeline writes after it, which are the golden's.
func TestPerfettoStreamMatchesReplay(t *testing.T) {
	prog, rtEnd := buildTiny(t)
	labels := map[string]string{"workload": "tiny"}
	var streamed, replayed bytes.Buffer
	p := trace.NewPerfetto(&streamed, labels)
	cfg := sim.Default()
	cfg.RuntimeEnd = rtEnd
	cfg.Sink = trace.New(trace.Config{Timeline: true})
	cfg.Sink.SetObserver(p.Event)
	if _, err := sim.Run(prog, cfg); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := trace.WritePerfetto(&replayed, cfg.Sink, labels); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "tiny_timeline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), replayed.Bytes()) || !bytes.Equal(streamed.Bytes(), want) {
		t.Fatalf("streamed %d bytes, replayed %d, golden %d: want all three equal",
			streamed.Len(), replayed.Len(), len(want))
	}
}

// TestPerfettoDeterministic: two identical runs export byte-identical
// documents.
func TestPerfettoDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := trace.WritePerfetto(&a, runTiny(t), nil); err != nil {
		t.Fatal(err)
	}
	if err := trace.WritePerfetto(&b, runTiny(t), nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("perfetto export is not deterministic across identical runs")
	}
}

// TestPerfettoSchema: the document must parse as trace-event JSON with
// only known phases, non-negative durations, and the five named stage
// tracks.
func TestPerfettoSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.WritePerfetto(&buf, runTiny(t), nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	tracks := map[string]bool{}
	counters := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				tracks[ev.Args["name"].(string)] = true
			}
		case "X":
			if ev.Dur < 1 {
				t.Fatalf("slice %q has dur %d < 1", ev.Name, ev.Dur)
			}
		case "C":
			counters[ev.Name] = true
		case "i":
		default:
			t.Fatalf("unknown phase %q", ev.Ph)
		}
		if ev.Ts < 0 {
			t.Fatalf("event %q has negative ts", ev.Name)
		}
	}
	for _, want := range []string{"fetch", "dispatch", "execute", "retire", "engine"} {
		if !tracks[want] {
			t.Fatalf("missing stage track %q (have %v)", want, tracks)
		}
	}
	for _, want := range []string{"IQ occupancy", "lock$ lines"} {
		if !counters[want] {
			t.Fatalf("missing counter track %q", want)
		}
	}
}

// TestPerfettoRequiresTimeline: exporting a sink without a timeline is
// an error, not an empty document.
func TestPerfettoRequiresTimeline(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.WritePerfetto(&buf, trace.New(trace.Config{FlightN: 8}), nil); err == nil {
		t.Fatal("want error for sink without Timeline")
	}
	if err := trace.WritePerfetto(&buf, nil, nil); err == nil {
		t.Fatal("want error for nil sink")
	}
}

// TestFlightOnViolation: a use-after-free run with a flight recorder
// attached must end with a dump that names the faulting identifier and
// the lock value the check observed.
func TestFlightOnViolation(t *testing.T) {
	r := rt.NewBuild(rt.Options{Policy: core.PolicyWatchdog})
	b := r.B
	b.Label("main")
	b.Movi(isa.R1, 32)
	b.Call("malloc")
	b.Mov(isa.R4, isa.R1)
	b.Call("free")
	b.Ld(isa.R5, asm.Mem(isa.R4, 0, 8)) // dangling dereference
	b.Ret()
	prog, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Default()
	cfg.RuntimeEnd = r.RuntimeEnd()
	cfg.Sink = trace.New(trace.Config{FlightN: 64})
	res, err := sim.Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemErr == nil || res.MemErr.Kind != core.ErrUseAfterFree {
		t.Fatalf("want use-after-free, got %v", res.MemErr)
	}
	if got := res.Trace.CountByKind(trace.KindViolation); got != 1 {
		t.Fatalf("violation events = %d, want 1", got)
	}
	var dump strings.Builder
	if err := res.Trace.DumpFlight(&dump, nil); err != nil {
		t.Fatal(err)
	}
	out := dump.String()
	if !strings.Contains(out, "VIOLATION") || !strings.Contains(out, "use-after-free") {
		t.Fatalf("dump missing violation line:\n%s", out)
	}
	if !strings.Contains(out, "key=") || !strings.Contains(out, "lock=") {
		t.Fatalf("dump must name the faulting identifier:\n%s", out)
	}
}
