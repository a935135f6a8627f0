// watchdog-juliet runs the Juliet-style security suite — the generated
// CWE-416/CWE-562 matrix (Section 9.2 of the paper: 291 bad cases, all
// detected under Watchdog, no false positives) plus the embedded
// CWE-415/CWE-590 .wdasm cases — and prints the detection matrix.
//
// Usage:
//
//	watchdog-juliet                 # Watchdog (the paper's result)
//	watchdog-juliet -policy location  # the comparator that misses reallocated UAF
//	watchdog-juliet -policy xtag -tag-bits 2  # pointer tagging at a narrow width
//	watchdog-juliet -cases ./extra    # append annotated .wdasm cases from a directory
//	watchdog-juliet -v                # list every case outcome
//	watchdog-juliet -list             # list case IDs
//	watchdog-juliet -flight-log <id>  # re-run one case with a flight recorder and dump it
//
// The exit code gates on the policy's expectation matrix, not on raw
// detection: every policy has known blind spots (location misses
// reallocated UAF, xtag misses CWE-562), and the run fails only when
// an outcome deviates from what the matrix — or a case's own
// annotation — says that policy should do.
//
// SIGINT/SIGTERM cancel the suite cooperatively: the case mid-flight
// is interrupted, a partial summary (and a -json document marked
// partial) is still flushed, and the exit code is non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"watchdog/internal/core"
	"watchdog/internal/report"
	"watchdog/internal/rt"
	"watchdog/internal/security"
	"watchdog/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the testable entry point: parses args, executes under ctx
// (canceled on SIGINT/SIGTERM by main), and returns the process exit
// code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("watchdog-juliet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		policy  = fs.String("policy", "watchdog", "checking policy: "+strings.Join(security.Policies(), "|"))
		tagBits = fs.Int("tag-bits", 0, "tag width for -policy xtag (1..8; 0 = the default 8)")
		casesIn = fs.String("cases", "", "append annotated .wdasm cases from this directory to the suite")
		verbose = fs.Bool("v", false, "print each case outcome")
		list    = fs.Bool("list", false, "list every case ID and exit")
		jobs    = fs.Int("j", runtime.GOMAXPROCS(0), "parallel workers over the 582 cases (1 = serial; output is identical either way)")
		jsonOut = fs.String("json", "", "write the summary as machine-readable JSON (schema v1) to this path")
		flight  = fs.String("flight-log", "", "run the single case with this ID under a flight recorder and dump the recorded events (see -list)")
		flightN = fs.Int("flight-n", 64, "flight recorder depth for -flight-log")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "watchdog-juliet:", err)
		return 1
	}

	cfg, opts, err := security.PolicyConfig(*policy)
	if err != nil {
		return fail(err)
	}
	if err := security.SetTagBits(&cfg, *tagBits); err != nil {
		return fail(fmt.Errorf("-tag-bits: %w", err))
	}
	if *flightN < 1 || *flightN > trace.MaxFlightN {
		return fail(fmt.Errorf("-flight-n %d: the flight recorder depth must be in [1, %d]", *flightN, trace.MaxFlightN))
	}

	// The built-in suite (the generated CWE-416/562 matrix plus the
	// embedded .wdasm extensions), optionally extended from disk.
	cases := append(security.Suite(), security.WdasmCases()...)
	if *casesIn != "" {
		extra, err := security.LoadWdasmDir(*casesIn)
		if err != nil {
			return fail(err)
		}
		cases = append(cases, extra...)
	}

	if *list {
		for _, c := range cases {
			fmt.Fprintf(stdout, "%-44s CWE-%d %s\n", c.ID, c.CWE, c.Variant)
		}
		return 0
	}

	if *flight != "" {
		return flightLog(cases, *flight, *flightN, cfg, opts, stdout, stderr)
	}

	// The cases fan out over -j workers; outcomes are merged in case
	// order, so the printed report is identical at any worker count.
	// On cancellation the fan-out stops handing out cases and the
	// summary below covers exactly the cases that completed.
	outs, runErr := security.RunCasesCtx(ctx, cases, cfg, opts, *jobs, nil, nil)
	partial := runErr != nil
	if *verbose {
		for i, c := range cases {
			if outs[i].Case.ID == "" {
				continue // never ran (interrupted)
			}
			status := "PASS"
			if !outs[i].Pass() {
				status = "FAIL"
			}
			fmt.Fprintf(stdout, "%-4s CWE-%d %-60s bad=%-5v detected=%-5v\n",
				status, c.CWE, c.Variant, c.Bad, outs[i].Detected)
		}
	}
	s := security.SummarizeRan(cases, outs)
	if partial {
		fmt.Fprintf(stderr, "watchdog-juliet: interrupted after %d of %d cases; summary is partial\n",
			s.BadTotal+s.GoodTotal, len(cases))
	}
	fmt.Fprintln(stdout, s)
	if *jsonOut != "" {
		if err := report.WriteJulietFile(*jsonOut, s.ReportRecord(*policy), partial); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "watchdog-juliet: wrote %s\n", *jsonOut)
	}
	if partial {
		return 1
	}
	// Gate on the expectation matrix: every policy fails on deviation
	// from its own annotated envelope, not just watchdog on a raw miss.
	// A location run that suddenly detects a reallocated UAF is as much
	// a regression as a watchdog run that misses one.
	if ms := security.Mismatches(*policy, cases, outs); len(ms) > 0 {
		for _, m := range ms {
			c := m.Outcome.Case
			fmt.Fprintf(stderr, "watchdog-juliet: %s (CWE-%d %s): detected=%v, expected detection=%v under %s\n",
				c.ID, c.CWE, c.Variant, m.Outcome.Detected, m.Expected, *policy)
		}
		fmt.Fprintf(stderr, "watchdog-juliet: %d outcomes deviate from the %s expectation matrix\n",
			len(ms), *policy)
		return 1
	}
	return 0
}

// flightLog re-runs one case with a flight recorder attached and dumps
// the recorded tail — the identifiers, lock values and check outcomes
// leading up to the detection.
func flightLog(cases []security.Case, id string, depth int, cfg core.Config, opts rt.Options, stdout, stderr io.Writer) int {
	var c security.Case
	ok := false
	for _, cand := range cases {
		if cand.ID == id {
			c, ok = cand, true
			break
		}
	}
	if !ok {
		fmt.Fprintf(stderr, "watchdog-juliet: unknown case %q (see -list)\n", id)
		return 1
	}
	o, sink := security.RunCaseTraced(c, cfg, opts, trace.Config{FlightN: depth})
	if o.Err != nil {
		fmt.Fprintln(stderr, "watchdog-juliet:", o.Err)
		return 1
	}
	switch {
	case sink.CountByKind(trace.KindViolation) > 0:
		fmt.Fprintf(stdout, "%s: detected %s\n", c.ID, o.Kind)
	case sink.CountByKind(trace.KindAbort) > 0:
		fmt.Fprintf(stdout, "%s: detected (runtime abort)\n", c.ID)
	case o.Detected:
		fmt.Fprintf(stdout, "%s: detected\n", c.ID)
	default:
		fmt.Fprintf(stdout, "%s: ran clean\n", c.ID)
	}
	if err := sink.DumpFlight(stdout, nil); err != nil {
		fmt.Fprintln(stderr, "watchdog-juliet:", err)
		return 1
	}
	if o.Pass() {
		return 0
	}
	return 1
}
