package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"watchdog/internal/experiments"
	"watchdog/internal/trace"
	"watchdog/internal/workload"
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
	// The observer rides the timed run, whose report still prints.
	if !strings.Contains(stdout.String(), "cycles") {
		t.Errorf("-trace without -disasm must still run the timed report:\n%s", stdout.String())
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
	if !strings.Contains(stdout.String(), "caught     use-after-free") {
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

// hijackProgram is a use-after-free that calls through the freed
// box's first word: isa catches the dangling load, and baseline, which
// checks nothing, calls the non-code address it reads.
const hijackProgram = `
main:
    movi r1, 16
    call malloc
    mov  r4, r1
    call free
    ld   r2, [r4]
    callr r2
    ret
`

// TestBaselineFailureKeepsSummary: a program that fails only under
// baseline still prints its summary and exits 0, and the overhead line
// names the baseline's failure instead of a number.
func TestBaselineFailureKeepsSummary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hijack.wdasm")
	if err := os.WriteFile(path, []byte(hijackProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-asm", path, "-config", "isa"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{
		"\noverhead   unknown: under baseline, machine: indirect call to non-code address",
		"\ncaught     use-after-free",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, stdout.String())
		}
	}
}

// TestBadFlagValuesRejected: invalid numeric flags exit 1 naming the
// flag, before anything runs; a flight recorder deeper than
// trace.MaxFlightN is refused before its ring is allocated.
func TestBadFlagValuesRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "0"},
		{"-trace", "-1"},
		{"-flight-log", "-1"},
		{"-flight-log", strconv.Itoa(trace.MaxFlightN + 1)},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), args[0]) || stdout.Len() > 0 {
			t.Errorf("run(%v) = %d, stderr %q, stdout %q: want exit 1 naming %s, nothing printed", args, code, stderr.String(), stdout.String(), args[0])
		}
	}
}

// TestFidelityFlagValidation: an unknown -fidelity, the deleted
// basic-block-memo fidelity included, exits non-zero before the run,
// with a message that names the valid values. (The removed name is spelled split so a search for the
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
}

// TestUnknownConfigRejected: an unknown -config exits 1 naming the
// known configurations, before printing any result, on the workload
// path and on the -asm path alike.
func TestUnknownConfigRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "mcf", "-config", "bogus"},
		{"-asm", exampleAsm, "-config", "bogus"},
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
		args := []string{"-asm", exampleAsm, "-config", name}
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, code, stderr.String())
		}
		var insts int
		var c counts
		if _, err := fmt.Sscanf(instsLine.FindString(stdout.String()), "insts %d macro, %d µops, %d cycles",
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

// exampleAsm is the example WD64 program: 558 macro instructions,
// ending in a double free that the runtime aborts on.
const exampleAsm = "../../examples/assembly/program.wdasm"

// spinProgram counts down a 3,000-instruction loop: long enough to
// reach the sampled fidelity's first window, which the sampler opens
// after 1,000 warmup instructions and closes 1,000 instructions later.
const spinProgram = `
main:
    movi r5, 1500
spin:
    subi r5, r5, 1
    br.nz r5, spin
    ret
`

// TestAsmHonorsFidelity: -asm runs at the -fidelity it is given and
// prints the sampled estimate, as the workload summary does: the spin
// program's run times its first 1,000-instruction window.
func TestAsmHonorsFidelity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spin.wdasm")
	if err := os.WriteFile(path, []byte(spinProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-asm", path, "-fidelity", "sampled"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	m := regexp.MustCompile(`(?m)^sampled    (\d+) of (\d+) insts \(\d+\.\d%\), estimated (\d+) cycles$`).FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatalf("no sampled estimate line:\n%s", stdout.String())
	}
	if in := instsLine.FindStringSubmatch(stdout.String()); m[1] != "1000" || in == nil || m[2] != in[1] {
		t.Errorf("%q: want 1000 timed of the insts line's count:\n%s", m[0], stdout.String())
	}
}

// TestAsmDisasm: -asm with -disasm prints the listing of the assembled
// program before the run's summary.
func TestAsmDisasm(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-asm", exampleAsm, "-disasm"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	listing, summary := strings.Index(out, "main:\n"), strings.Index(out, "insts ")
	if listing < 0 || summary < 0 || listing > summary {
		t.Errorf("want the listing (main:) before the summary (insts):\n%s", firstLines(out, 8))
	}
}

// TestAsmVerbose: -asm with -v prints the µop classes and mispredicts
// after the summary, as the workload path does.
func TestAsmVerbose(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-asm", exampleAsm, "-v"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"µop classes:", "mispredicts "} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-asm -v output lacks %q:\n%s", want, stdout.String())
		}
	}
}

// instsLine matches the summary line with the run's macro-instruction,
// µop and cycle counts.
var instsLine = regexp.MustCompile(`(?m)^insts +(\d+) macro, .*$`)

// TestFlagsOnBothSources runs every flag -h lists on a workload and on
// an assembly file. On each source a flag either changes the output as
// its usage line says, against the same run without it, or exits 1
// naming itself before printing anything: -workload, -scale and -list
// next to -asm, and -asm next to an explicit -workload.
func TestFlagsOnBothSources(t *testing.T) {
	// outcome is what one run printed and returned.
	type outcome struct {
		code           int
		stdout, stderr string
	}
	var usage bytes.Buffer
	run(context.Background(), []string{"-h"}, &bytes.Buffer{}, &usage)
	var flags []string
	for _, m := range regexp.MustCompile(`(?m)^  -([\w-]+)`).FindAllStringSubmatch(usage.String(), -1) {
		flags = append(flags, m[1])
	}
	if len(flags) != 13 {
		t.Errorf("-h lists %d flags, want 13: %v", len(flags), flags)
	}
	uaf := filepath.Join(t.TempDir(), "uaf.wdasm")
	if err := os.WriteFile(uaf, []byte(uafProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	line := func(out, label string) string {
		return regexp.MustCompile(`(?m)^` + label + ` .*$`).FindString(out)
	}
	insts := func(out string) int {
		m := instsLine.FindStringSubmatch(out)
		if m == nil {
			return -1
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	same := func(t *testing.T, got, ref outcome) {
		t.Helper()
		if got.stdout != ref.stdout {
			t.Errorf("summary changed:\n%s\nwant:\n%s", got.stdout, ref.stdout)
		}
	}
	written := func(t *testing.T, path string) {
		t.Helper()
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", path, err)
		}
	}
	for _, src := range [][]string{{"-workload", "mcf"}, {"-asm", exampleAsm}} {
		dir := t.TempDir()
		rows := []struct {
			flag      string
			args      []string // after src; the reference run is src alone
			refusedBy string   // the source flag next to which this flag exits 1
			check     func(t *testing.T, got, ref outcome)
		}{
			{"workload", []string{"-workload", "lbm"}, "-asm", func(t *testing.T, got, ref outcome) {
				if !strings.HasPrefix(got.stdout, "workload   lbm (") {
					t.Errorf("summary does not name lbm:\n%s", got.stdout)
				}
			}},
			{"config", []string{"-config", "baseline"}, "", func(t *testing.T, got, ref outcome) {
				if l := line(got.stdout, "config"); l != "config     baseline, fidelity exact" {
					t.Errorf("config line %q, want baseline", l)
				}
				if line(ref.stdout, "overhead") == "" || line(got.stdout, "overhead") != "" {
					t.Errorf("want an overhead line under isa, none under baseline:\n%s\n%s", ref.stdout, got.stdout)
				}
			}},
			{"scale", []string{"-scale", "2"}, "-asm", func(t *testing.T, got, ref outcome) {
				if !strings.HasSuffix(firstLines(got.stdout, 1), ", scale 2") || insts(got.stdout) <= insts(ref.stdout) {
					t.Errorf("scale 2 did not grow the run:\n%s\n%s", ref.stdout, got.stdout)
				}
			}},
			{"list", []string{"-list"}, "-asm", func(t *testing.T, got, ref outcome) {
				for _, w := range workload.Names() {
					if !regexp.MustCompile(`(?m)^` + w + ` `).MatchString(got.stdout) {
						t.Errorf("listing lacks %s:\n%s", w, got.stdout)
					}
				}
				if strings.Contains(got.stdout, "insts ") {
					t.Errorf("-list ran a simulation:\n%s", got.stdout)
				}
			}},
			{"v", []string{"-v"}, "", func(t *testing.T, got, ref outcome) {
				rest, ok := strings.CutPrefix(got.stdout, ref.stdout)
				if !ok || !strings.HasPrefix(rest, "µop classes:\n") || !strings.Contains(rest, "\nmispredicts ") {
					t.Errorf("want the summary, then µop classes and mispredicts:\n%s", got.stdout)
				}
			}},
			{"disasm", []string{"-disasm"}, "", func(t *testing.T, got, ref outcome) {
				listing, ok := strings.CutSuffix(got.stdout, ref.stdout)
				if !ok || !strings.Contains(listing, "main:\n") {
					t.Errorf("want the listing, then the summary:\n%s", firstLines(got.stdout, 8))
				}
			}},
			{"trace", []string{"-trace", "5"}, "", func(t *testing.T, got, ref outcome) {
				same(t, got, ref)
				if n := len(tracedLine.FindAllString(got.stderr, -1)); n != 5 {
					t.Errorf("%d traced lines, want 5:\n%s", n, got.stderr)
				}
				foot := regexp.MustCompile(`-- traced (\d+) of (\d+) executed instructions --`).FindStringSubmatch(got.stderr)
				if foot == nil || foot[1] != "5" || foot[2] != strconv.Itoa(insts(got.stdout)) {
					t.Errorf("footer %q must count 5 of the summary's %d instructions", foot, insts(got.stdout))
				}
			}},
			{"timeline", []string{"-timeline", filepath.Join(dir, "timeline.json")}, "", func(t *testing.T, got, ref outcome) {
				same(t, got, ref)
				raw, err := os.ReadFile(filepath.Join(dir, "timeline.json"))
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					TraceEvents []json.RawMessage `json:"traceEvents"`
					Metadata    map[string]string `json:"metadata"`
				}
				if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
					t.Fatalf("timeline has no events: %v", err)
				}
				if !strings.Contains(got.stderr, "wrote timeline") {
					t.Errorf("stderr does not note the written timeline:\n%s", got.stderr)
				}
				// The labels are the values of the summary's first two lines.
				head := strings.SplitN(got.stdout, "\n", 3)
				if !strings.HasSuffix(head[0], " "+doc.Metadata["program"]) || head[1] != "config     "+doc.Metadata["config"] {
					t.Errorf("labels %v do not match the summary's head %q", doc.Metadata, head[:2])
				}
			}},
			{"flight-log", []string{"-flight-log", "16"}, "", func(t *testing.T, got, ref outcome) {
				same(t, got, ref)
				ended := line(got.stdout, "caught") != "" || line(got.stdout, "abort") != ""
				if dumped := strings.Contains(got.stderr, "flight recorder: last"); dumped != ended {
					t.Errorf("flight recorder dumped %v, the run caught or aborted %v:\n%s", dumped, ended, got.stderr)
				}
			}},
			{"asm", []string{"-asm", uaf}, "-workload", func(t *testing.T, got, ref outcome) {
				if firstLines(got.stdout, 1) != "asm        "+uaf || !strings.HasPrefix(line(got.stdout, "caught"), "caught     use-after-free") {
					t.Errorf("want the use-after-free program's summary:\n%s", got.stdout)
				}
			}},
			{"cpuprofile", []string{"-cpuprofile", filepath.Join(dir, "cpu.pprof")}, "", func(t *testing.T, got, ref outcome) {
				same(t, got, ref)
				written(t, filepath.Join(dir, "cpu.pprof"))
			}},
			{"memprofile", []string{"-memprofile", filepath.Join(dir, "mem.pprof")}, "", func(t *testing.T, got, ref outcome) {
				same(t, got, ref)
				written(t, filepath.Join(dir, "mem.pprof"))
			}},
			{"fidelity", []string{"-fidelity", "sampled"}, "", func(t *testing.T, got, ref outcome) {
				if l := line(got.stdout, "config"); l != "config     isa, fidelity sampled" {
					t.Errorf("config line %q, want the sampled fidelity", l)
				}
			}},
		}
		covered := map[string]bool{}
		for _, r := range rows {
			covered[r.flag] = true
		}
		for _, f := range flags {
			if !covered[f] {
				t.Errorf("-%s has no row", f)
			}
		}
		for _, r := range rows {
			t.Run(strings.TrimPrefix(src[0], "-")+"/"+r.flag, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run(context.Background(), append(slices.Clip(src), r.args...), &stdout, &stderr)
				got := outcome{code, stdout.String(), stderr.String()}
				if r.refusedBy == src[0] {
					if code != 1 || !strings.Contains(got.stderr, "-"+r.flag) || got.stdout != "" {
						t.Errorf("exit %d, stderr %q, stdout %q: want exit 1 naming -%s, nothing printed", code, got.stderr, got.stdout, r.flag)
					}
					return
				}
				if code != 0 {
					t.Fatalf("exit %d, stderr: %s", code, got.stderr)
				}
				stdout.Reset()
				stderr.Reset()
				code = run(context.Background(), src, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("reference run: exit %d, stderr: %s", code, stderr.String())
				}
				r.check(t, got, outcome{code, stdout.String(), stderr.String()})
			})
		}
	}
}

// TestAsmRefusesWorkloadFlags: -workload, -scale and -list choose or
// size a workload, which -asm replaces, so any of them set explicitly
// next to -asm exits 1 naming the flag, before anything runs.
func TestAsmRefusesWorkloadFlags(t *testing.T) {
	for _, tc := range []struct {
		flags []string
		name  string
	}{
		{[]string{"-workload", "lbm"}, "-workload"},
		{[]string{"-scale", "1"}, "-scale"},
		{[]string{"-list"}, "-list"},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-asm", exampleAsm}, tc.flags...)
		if code := run(context.Background(), args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
		if !strings.Contains(stderr.String(), tc.name) {
			t.Errorf("%v: stderr %q does not name %s", args, stderr.String(), tc.name)
		}
		if stdout.Len() > 0 {
			t.Errorf("%v: printed %q before failing", args, stdout.String())
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
