package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"watchdog/internal/report"
	"watchdog/internal/trace"
)

// TestFlightLogNamesIdentifier: the acceptance contract for the
// flight recorder — re-running a bad Juliet case under -flight-log
// produces a non-empty dump that names the faulting identifier
// (key and lock value) and the check outcome that tripped.
func TestFlightLogNamesIdentifier(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-flight-log", "c416_read_norealloc_straight_bad"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "detected use-after-free") {
		t.Fatalf("bad case not reported as detected:\n%s", out)
	}
	for _, want := range []string{
		"flight recorder: last",
		"VIOLATION",
		"use-after-free",
		"key=",
		"lock=0x",
		"-> ok", // the tail includes passing checks leading up to the violation
	} {
		if !strings.Contains(out, want) {
			t.Errorf("flight dump missing %q:\n%s", want, out)
		}
	}
}

// TestFlightLogGoodCaseRunsClean: the matching good case records
// events but reports no detection.
func TestFlightLogGoodCaseRunsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-flight-log", "c416_read_norealloc_straight_good"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "ran clean") {
		t.Fatalf("good case not reported clean:\n%s", stdout.String())
	}
	if strings.Contains(stdout.String(), "VIOLATION") {
		t.Fatalf("good case dumped a violation:\n%s", stdout.String())
	}
}

// TestFlightLogUnknownCase: a bogus case ID fails with a pointer to
// -list instead of silently running the whole suite.
func TestFlightLogUnknownCase(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-flight-log", "no_such_case"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown case must exit non-zero")
	}
	if !strings.Contains(stderr.String(), `"no_such_case"`) ||
		!strings.Contains(stderr.String(), "-list") {
		t.Errorf("stderr %q must name the case and suggest -list", stderr.String())
	}
}

// TestListCases: -list prints case IDs usable with -flight-log.
func TestListCases(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"c416_read_norealloc_straight_bad", "CWE-416", "CWE-562"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

// TestExpectationGateNonWatchdogPolicy: the exit code gates every
// policy on its expectation matrix, not just watchdog on raw misses.
// A disk case annotated (wrongly) as location=detect on a reallocated
// UAF — location's structural blind spot — must fail a -policy
// location run and name the case, while the same case under watchdog
// (which really does detect it) passes.
func TestExpectationGateNonWatchdogPolicy(t *testing.T) {
	dir := t.TempDir()
	src := `;; case: cwe=416 variant=read/realloc-cli bad
;; expect: watchdog=detect conservative=detect location=detect software=detect xtag=detect dangkiller=detect
    movi r1, 48
    call malloc
    mov  r4, r1
    movi r2, 7
    st   [r4], r2
    mov  r1, r4
    call free
    movi r1, 48
    call malloc
    mov  r5, r1
    ld   r3, [r4]           ; stale read through the dangling pointer
    ret
`
	if err := os.WriteFile(filepath.Join(dir, "cli_realloc_bad.wdasm"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-policy", "location", "-cases", dir, "-j", "8"}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("location run must fail the lying annotation; stderr: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "cli_realloc_bad") ||
		!strings.Contains(stderr.String(), "expectation matrix") {
		t.Errorf("stderr must name the mismatching case and the matrix:\n%s", stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run(context.Background(), []string{"-policy", "watchdog", "-cases", dir, "-j", "8"}, &stdout, &stderr); code != 0 {
		t.Fatalf("watchdog run exit %d, stderr: %s", code, stderr.String())
	}
}

// TestPolicyGateHonorsExpectedMisses: a policy with known blind spots
// (location misses reallocated UAF and CWE-562) exits 0 on the
// built-in suite — its misses are expected, so they are not failures.
func TestPolicyGateHonorsExpectedMisses(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-policy", "location", "-j", "8"}, &stdout, &stderr); code != 0 {
		t.Fatalf("location on the built-in suite: exit %d, stderr: %s", code, stderr.String())
	}
}

// TestTagBitsFlagValidation: -tag-bits is range-checked and rejected
// outside -policy xtag before anything runs.
func TestTagBitsFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-policy", "watchdog", "-tag-bits", "4"},
		{"-policy", "xtag", "-tag-bits", "9"},
		{"-policy", "xtag", "-tag-bits", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: want non-zero exit", args)
		}
	}
}

// TestFlightNFlagValidation: a -flight-n below 1 or above
// trace.MaxFlightN exits 1 naming the flag, before the suite is built
// or a ring allocated.
func TestFlightNFlagValidation(t *testing.T) {
	for _, n := range []int{-1, 0, trace.MaxFlightN + 1} {
		args := []string{"-flight-log", "c416_read_norealloc_straight_bad", "-flight-n", strconv.Itoa(n)}
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "-flight-n") || stdout.Len() > 0 {
			t.Errorf("%v: exit %d, stderr %q, stdout %q: want exit 1 naming -flight-n, nothing printed", args, code, stderr.String(), stdout.String())
		}
	}
}

// TestUnknownPolicyListsKnown: a typo'd -policy names the vocabulary.
func TestUnknownPolicyListsKnown(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-policy", "asan"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown policy must exit non-zero")
	}
	if !strings.Contains(stderr.String(), "dangkiller") || !strings.Contains(stderr.String(), "xtag") {
		t.Errorf("stderr must list the known policies:\n%s", stderr.String())
	}
}

// TestInterruptFlushesPartialSummary: a suite interrupted before the
// first case still prints a (zero-count) summary, flushes a -json
// document marked partial, and exits non-zero.
func TestInterruptFlushesPartialSummary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "juliet.json")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	if code := run(ctx, []string{"-json", path}, &stdout, &stderr); code == 0 {
		t.Fatalf("interrupted run exited 0; stderr: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Errorf("stderr does not report the interrupt: %s", stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("partial -json not flushed: %v", err)
	}
	var jr report.JulietReport
	if err := json.Unmarshal(data, &jr); err != nil {
		t.Fatal(err)
	}
	if !jr.Partial {
		t.Error("flushed document is not marked partial")
	}
	if jr.Schema != report.JulietSchema || jr.Version != report.Version {
		t.Errorf("schema stamp %q v%d", jr.Schema, jr.Version)
	}
	if jr.Juliet.BadTotal != 0 || jr.Juliet.GoodTotal != 0 {
		t.Errorf("interrupted-before-start summary counts cases: %+v", jr.Juliet)
	}
}
