package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"watchdog/internal/experiments"
)

// tracedLine matches one observer line of the instruction trace:
// a right-aligned pc followed by the rendered instruction.
var tracedLine = regexp.MustCompile(`(?m)^\s+\d+  \S`)

// TestDisasmTraceCombine: -disasm and -trace used together must honor
// both — the listing on stdout AND the traced run on stderr. (The old
// CLI silently dropped -trace whenever -disasm was set.)
func TestDisasmTraceCombine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-workload", "mcf", "-disasm", "-trace", "5"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "_start:") {
		t.Errorf("-disasm listing missing from stdout:\n%s", firstLines(stdout.String(), 5))
	}
	if got := len(tracedLine.FindAllString(stderr.String(), -1)); got != 5 {
		t.Errorf("stderr has %d traced instruction lines, want 5:\n%s", got, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-- traced 5 of ") {
		t.Errorf("trace footer must report 5 observed instructions:\n%s", stderr.String())
	}
}

// TestTraceFooterCountsObserved: the footer reports how many
// instructions the observer actually printed (the budget), not the
// total executed — `-trace 3` on a 70k-instruction run says "traced 3".
func TestTraceFooterCountsObserved(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-workload", "mcf", "-trace", "3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	m := regexp.MustCompile(`-- traced (\d+) of (\d+) executed instructions --`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("footer missing from stderr:\n%s", stderr.String())
	}
	if m[1] != "3" {
		t.Errorf("footer says traced %s, want 3", m[1])
	}
	if m[2] == "3" || m[2] == "0" {
		t.Errorf("footer total %s looks like the budget, not the executed count", m[2])
	}
	// The timed report still prints after the traced inspection.
	if !strings.Contains(stdout.String(), "cycles") {
		t.Errorf("-trace without -disasm must still run the timed report:\n%s", stdout.String())
	}
}

// TestTimelineWritesPerfettoJSON: -timeline produces a JSON document
// with a non-empty traceEvents array (the Chrome/Perfetto trace-event
// format) and leaves the normal report intact.
func TestTimelineWritesPerfettoJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "timeline.json")
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-workload", "mcf", "-config", "isa", "-timeline", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("timeline has no trace events")
	}
	if !strings.Contains(stderr.String(), "wrote timeline") {
		t.Errorf("stderr should note the written timeline:\n%s", stderr.String())
	}
	for _, want := range []string{"workload", "cycles", "overhead"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("timed report missing %q with -timeline set:\n%s", want, stdout.String())
		}
	}
}

// uafProgram is a minimal WD64 use-after-free: read a heap box after
// freeing it. The Watchdog identifier check flags the dangling load.
const uafProgram = `
main:
    movi r1, 32
    call malloc
    mov  r4, r1
    st   [r4], r4
    call free
    ld   r2, [r4]
    sys  putint, r2
    ret
`

// TestFlightLogDumpsOnViolation: an -asm run with -flight-log must,
// on a violation, dump the recorded tail to stderr — naming the
// faulting identifier (key/lock), the check outcome, and the resolved
// macro instruction.
func TestFlightLogDumpsOnViolation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "uaf.wdasm")
	if err := os.WriteFile(path, []byte(uafProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-asm", path, "-flight-log", "32"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "caught  use-after-free") {
		t.Fatalf("run did not catch the UAF:\n%s", stdout.String())
	}
	dump := stderr.String()
	for _, want := range []string{
		"flight recorder: last",
		"VIOLATION",
		"use-after-free",
		"key=",
		"lock=0x",
		"ld r2, [r4]", // the resolver renders the faulting macro instruction
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("flight dump missing %q:\n%s", want, dump)
		}
	}
}

// TestFlightLogQuietOnCleanRun: a clean -asm run with -flight-log
// attached must not dump anything.
func TestFlightLogQuietOnCleanRun(t *testing.T) {
	clean := strings.Replace(uafProgram, "call free\n    ld   r2, [r4]",
		"ld   r2, [r4]\n    call free", 1)
	path := filepath.Join(t.TempDir(), "clean.wdasm")
	if err := os.WriteFile(path, []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-asm", path, "-flight-log", "32"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if strings.Contains(stderr.String(), "flight recorder") {
		t.Errorf("clean run dumped the flight recorder:\n%s", stderr.String())
	}
}

// TestBadFlagValuesRejected: invalid numeric flags fail fast.
func TestBadFlagValuesRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "0"},
		{"-flight-log", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code == 0 {
			t.Errorf("run(%v) = 0, want non-zero", args)
		}
	}
}

// TestFidelityFlagValidation: an unknown -fidelity, the deleted
// basic-block-memo fidelity included, and a sampling override at exact
// fidelity exit non-zero before the run, with a message that names the
// valid values. (The removed name is spelled split so a search for the
// deleted identifiers finds only live code.)
func TestFidelityFlagValidation(t *testing.T) {
	for _, bad := range []string{"bogus", "memo" + "ized"} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), []string{"-workload", "mcf", "-fidelity", bad}, &stdout, &stderr); code == 0 {
			t.Fatalf("-fidelity %s must exit non-zero", bad)
		}
		for _, want := range []string{bad, "exact", "sampled"} {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("-fidelity %s: stderr %q does not name %q", bad, stderr.String(), want)
			}
		}
		if stdout.Len() > 0 {
			t.Errorf("-fidelity %s printed a result before failing: %q", bad, stdout.String())
		}
	}
	var stderr bytes.Buffer
	if code := run(context.Background(), []string{"-workload", "mcf", "-sample", "1000"}, &bytes.Buffer{}, &stderr); code == 0 {
		t.Fatal("sampling override at exact fidelity must exit non-zero")
	}
	if !strings.Contains(stderr.String(), "sampled") {
		t.Errorf("stderr %q does not explain the sampled-only override", stderr.String())
	}
}

// TestUnknownConfigRejected: an unknown -config exits 1 naming the
// known configurations, before printing any result, on the workload
// path and on the -asm path alike.
func TestUnknownConfigRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "mcf", "-config", "bogus"},
		{"-asm", "../../examples/assembly/program.wdasm", "-config", "bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
		if !strings.Contains(stderr.String(), `"bogus"`) || !strings.Contains(stderr.String(), "dangkiller") {
			t.Errorf("%v: stderr %q does not name the bad and the known configs", args, stderr.String())
		}
		if stdout.Len() > 0 {
			t.Errorf("%v: printed a result before failing: %q", args, stdout.String())
		}
	}
}

// TestAsmRunsEachConfig: -asm simulates every configuration under its
// own config, so the configurations that differ from isa only in the
// engine or timing model differ in µops or cycles on the example
// program too.
func TestAsmRunsEachConfig(t *testing.T) {
	type counts struct{ uops, cycles int }
	got := map[string]counts{}
	for _, name := range experiments.ConfigNames() {
		var stdout, stderr bytes.Buffer
		args := []string{"-asm", "../../examples/assembly/program.wdasm", "-config", name}
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, code, stderr.String())
		}
		var insts int
		var c counts
		if _, err := fmt.Sscanf(stdout.String(), "insts %d macro, %d µops, %d cycles",
			&insts, &c.uops, &c.cycles); err != nil {
			t.Fatalf("%s: summary line: %v\n%s", name, err, stdout.String())
		}
		got[name] = c
	}
	for _, d := range []struct {
		more, less string
		uops       bool
	}{
		{"bounds-2uop", "bounds-1uop", true},   // a separate bounds µop
		{"no-copy-elim", "conservative", true}, // a select µop per copy
		{"isa-nolock", "isa", false},           // checks contend for load ports
	} {
		m, l := got[d.more], got[d.less]
		if d.uops && m.uops <= l.uops {
			t.Errorf("%s issues %d µops, not more than %s's %d", d.more, m.uops, d.less, l.uops)
		}
		if !d.uops && m.cycles <= l.cycles {
			t.Errorf("%s takes %d cycles, not more than %s's %d", d.more, m.cycles, d.less, l.cycles)
		}
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// TestInterruptExitsNonZero: a dead signal context cancels the
// simulation mid-flight and the CLI reports it instead of printing a
// bogus result.
func TestInterruptExitsNonZero(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	if code := run(ctx, []string{"-workload", "mcf"}, &stdout, &stderr); code == 0 {
		t.Fatalf("interrupted run exited 0; stdout: %s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "canceled") {
		t.Errorf("stderr does not surface the cancellation: %s", stderr.String())
	}
}
