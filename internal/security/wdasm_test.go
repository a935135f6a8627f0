package security

import (
	"context"
	"testing"

	"watchdog/internal/core"
	"watchdog/internal/rt"
	"watchdog/internal/sim"
)

func TestWdasmCasesShape(t *testing.T) {
	cases := WdasmCases()
	if len(cases) == 0 {
		t.Fatal("no embedded .wdasm cases")
	}
	byCWE := map[int][2]int{} // cwe -> [bad, good]
	ids := map[string]bool{}
	for _, c := range cases {
		if ids[c.ID] {
			t.Fatalf("duplicate case id %q", c.ID)
		}
		ids[c.ID] = true
		if c.CWE != 415 && c.CWE != 590 {
			t.Errorf("case %s: unexpected CWE %d", c.ID, c.CWE)
		}
		if c.Expect == nil {
			t.Errorf("case %s: missing per-policy expect annotations", c.ID)
		}
		for _, p := range Policies() {
			if _, ok := c.Expect[p]; !ok {
				t.Errorf("case %s: no expectation annotated for policy %s", c.ID, p)
			}
		}
		n := byCWE[c.CWE]
		if c.Bad {
			n[0]++
		} else {
			n[1]++
		}
		byCWE[c.CWE] = n
	}
	for cwe, n := range byCWE {
		if n[0] == 0 || n[0] != n[1] {
			t.Errorf("CWE-%d: %d bad / %d good cases, want matched non-empty twins", cwe, n[0], n[1])
		}
	}
}

func TestParseWdasmCaseRejectsBadAnnotations(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"no-case-line", "    ret\n"},
		{"bad-cwe", ";; case: cwe=nope bad\n    ret\n"},
		{"unknown-token", ";; case: cwe=415 bad wat\n    ret\n"},
		{"bad-expect", ";; case: cwe=415 bad\n;; expect: watchdog=maybe\n    ret\n"},
		{"unknown-policy", ";; case: cwe=415 bad\n;; expect: asan=detect\n    ret\n"},
		{"syntax-error", ";; case: cwe=415 bad\n    frob r1\n"},
	} {
		if _, err := ParseWdasmCase(tc.name, tc.src); err == nil {
			t.Errorf("%s: want parse error, got none", tc.name)
		}
	}
}

// TestPolicyExpectationMatrix is the table-driven referee over the
// whole suite (generated Juliet cases plus the annotated .wdasm
// extensions) for every policy: each policy must deviate from ideal
// coverage exactly where its expectation matrix (or a case
// annotation) says it does — misses are asserted, not tolerated.
func TestPolicyExpectationMatrix(t *testing.T) {
	cases := append(Suite(), WdasmCases()...)
	for _, policy := range Policies() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			cfg, opts, err := PolicyConfig(policy)
			if err != nil {
				t.Fatal(err)
			}
			outs := runCases(t, cases, cfg, opts, 0)
			for _, m := range Mismatches(policy, cases, outs) {
				c := m.Outcome.Case
				t.Errorf("case %s (CWE-%d %s, bad=%v): detected=%v, expected detection=%v (err=%v)",
					c.ID, c.CWE, c.Variant, c.Bad, m.Outcome.Detected, m.Expected, m.Outcome.Err)
			}
		})
	}
}

// TestXTagNarrowTagStillChecksJuliet pins the tag-width sensitivity on
// the Juliet corpus: the suite's reallocation sequences separate the
// old and new keys by one or two, so even a 1-bit tag flips — CWE-416
// coverage survives the narrowest tag, while CWE-562 stays invisible
// at any width (the heap-only scheme's structural miss).
func TestXTagNarrowTagStillChecksJuliet(t *testing.T) {
	cfg, opts, err := PolicyConfig("xtag")
	if err != nil {
		t.Fatal(err)
	}
	cfg.TagBits = 1
	s := runSuite(t, Suite(), cfg, opts, 0)
	if s.ByCWEDetected[416] != s.ByCWETotal[416] {
		t.Errorf("1-bit xtag CWE-416: %d/%d", s.ByCWEDetected[416], s.ByCWETotal[416])
	}
	if s.ByCWEDetected[562] != 0 {
		t.Errorf("1-bit xtag CWE-562: detected %d, want 0", s.ByCWEDetected[562])
	}
	if s.GoodClean != s.GoodTotal {
		t.Errorf("1-bit xtag false positives: %d", s.GoodTotal-s.GoodClean)
	}
}

// TestDangKillerMatchesWatchdogVerdicts pins the dangkiller design
// point: same lock-and-key oracle, different cost model — verdicts
// equal Watchdog's on every case.
func TestDangKillerMatchesWatchdogVerdicts(t *testing.T) {
	cases := append(Suite(), WdasmCases()...)
	wd := runCases(t, cases, core.DefaultConfig(), rt.Options{Policy: core.PolicyWatchdog}, 0)
	cfg, opts, err := PolicyConfig("dangkiller")
	if err != nil {
		t.Fatal(err)
	}
	dk := runCases(t, cases, cfg, opts, 0)
	for i, c := range cases {
		if wd[i].Detected != dk[i].Detected || wd[i].Clean != dk[i].Clean {
			t.Errorf("case %s: watchdog detected=%v clean=%v, dangkiller detected=%v clean=%v",
				c.ID, wd[i].Detected, wd[i].Clean, dk[i].Detected, dk[i].Clean)
		}
	}
}

// FuzzParseWdasmCase feeds the .wdasm case grammar arbitrary text,
// seeded with the shipped cases. ParseWdasmCase must not panic; a case
// it accepts must build on a fresh runtime builder without panicking;
// and when that program assembles, a functional run bounded at 10,000
// instructions must return, with or without an error, rather than
// panic. Run it with
//
//	go test ./internal/security -run '^$' -fuzz '^FuzzParseWdasmCase$' -fuzztime 20s
func FuzzParseWdasmCase(f *testing.F) {
	entries, err := wdasmFS.ReadDir("cases")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		src, err := wdasmFS.ReadFile("cases/" + e.Name())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	cfg, opts, err := PolicyConfig("watchdog")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseWdasmCase("fuzz", src)
		if err != nil {
			return
		}
		r := rt.NewBuild(opts)
		r.B.Label("main")
		c.Build(r.B, c.ID)
		prog, err := r.Finish()
		if err != nil {
			return
		}
		_, _ = sim.RunCtx(context.Background(), prog, sim.Config{Core: cfg, RuntimeEnd: r.RuntimeEnd(), InstLimit: 10_000})
	})
}
