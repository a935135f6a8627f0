package security

import (
	"slices"
	"sync"
	"testing"

	"watchdog/internal/core"
	"watchdog/internal/rt"
)

func TestSuiteCount(t *testing.T) {
	cases := Suite()
	bad, good := 0, 0
	byCWE := map[int]int{}
	ids := map[string]bool{}
	for _, c := range cases {
		if ids[c.ID] {
			t.Fatalf("duplicate case id %q", c.ID)
		}
		ids[c.ID] = true
		if c.Bad {
			bad++
			byCWE[c.CWE]++
		} else {
			good++
		}
	}
	if bad != 291 {
		t.Fatalf("bad cases = %d, want 291 (the paper's count)", bad)
	}
	if good != 291 {
		t.Fatalf("good cases = %d, want 291", good)
	}
	if byCWE[416] != 192 || byCWE[562] != 99 {
		t.Fatalf("per-CWE counts = %v", byCWE)
	}
}

func TestWatchdogDetectsAllWithNoFalsePositives(t *testing.T) {
	s := runSuite(t, Suite(), core.DefaultConfig(), rt.Options{Policy: core.PolicyWatchdog}, 1)
	for _, f := range s.Failures {
		t.Errorf("case %s (%s, bad=%v): detected=%v clean=%v err=%v",
			f.Case.ID, f.Case.Variant, f.Case.Bad, f.Detected, f.Clean, f.Err)
		if len(s.Failures) > 10 {
			break
		}
	}
	if s.BadDetected != s.BadTotal {
		t.Fatalf("detected %d/%d bad cases", s.BadDetected, s.BadTotal)
	}
	if s.GoodClean != s.GoodTotal {
		t.Fatalf("false positives: %d", s.GoodTotal-s.GoodClean)
	}
}

func TestConservativeModeAlsoDetectsAll(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.PtrPolicy = core.PtrConservative
	s := runSuite(t, Suite(), cfg, rt.Options{Policy: core.PolicyWatchdog}, 1)
	if s.BadDetected != s.BadTotal || s.GoodClean != s.GoodTotal {
		t.Fatalf("conservative mode: %s", s)
	}
}

func TestBoundsModeAlsoDetectsAll(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Bounds = core.BoundsFused
	s := runSuite(t, Suite(), cfg, rt.Options{Policy: core.PolicyWatchdog, Bounds: true}, 1)
	if s.BadDetected != s.BadTotal || s.GoodClean != s.GoodTotal {
		t.Fatalf("bounds mode: %s", s)
	}
}

func TestLocationPolicyMissesReallocationCases(t *testing.T) {
	// The location-based comparator must catch some cases but miss the
	// CWE-416 reallocation variants (Table 1's Compre. = N row) —
	// demonstrating why identifier-based checking matters.
	var reallocBad, plainBad []Case
	for _, c := range Suite() {
		if !c.Bad || c.CWE != 416 {
			continue
		}
		switch {
		case contains(c.Variant, "realloc-same-size"):
			reallocBad = append(reallocBad, c)
		case contains(c.Variant, "no-realloc"):
			plainBad = append(plainBad, c)
		}
	}
	cfg := core.Config{Policy: core.PolicyLocation}
	opts := rt.Options{Policy: core.PolicyLocation}
	sRe := runSuite(t, reallocBad, cfg, opts, 1)
	sPl := runSuite(t, plainBad, cfg, opts, 1)
	if sPl.BadDetected != sPl.BadTotal {
		t.Fatalf("location policy must detect unreallocated UAF: %d/%d", sPl.BadDetected, sPl.BadTotal)
	}
	if sRe.BadDetected != 0 {
		t.Fatalf("location policy unexpectedly detected %d/%d reallocated-UAF cases",
			sRe.BadDetected, sRe.BadTotal)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSuiteReturnsCopy: Suite shares one case table, so what a caller
// does to the slice it gets — appending, as watchdog-juliet appends
// WdasmCases, or overwriting an element — must not reach the next
// caller.
func TestSuiteReturnsCopy(t *testing.T) {
	want := buildSuite()
	got := Suite()
	got[0] = Case{ID: "overwritten"}
	extra := WdasmCases()
	_ = append(got[:1], extra...)
	_ = append(Suite(), extra...)
	after := Suite()
	if len(after) != len(want) {
		t.Fatalf("Suite() has %d cases after a caller appended, want %d", len(after), len(want))
	}
	for i := range want {
		if after[i].ID != want[i].ID || after[i].Variant != want[i].Variant {
			t.Fatalf("case %d is %s (%s) after a caller's changes, want %s (%s)",
				i, after[i].ID, after[i].Variant, want[i].ID, want[i].Variant)
		}
	}
	table := suiteCases()
	if i := slices.IndexFunc(table, func(c Case) bool { return c.ID == want[0].ID }); i < 0 || table[i].Variant != want[0].Variant {
		t.Fatalf("the case table lost %s after a caller's changes", want[0].ID)
	}
}

// TestSuiteConcurrentFirstUse: goroutines racing on the first Suite
// and suiteCases calls all see the whole suite (and stay race-free
// under -race).
func TestSuiteConcurrentFirstUse(t *testing.T) {
	last := buildSuite()[suiteSize-1].ID
	suite = struct {
		once  sync.Once
		cases []Case
	}{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				if n := len(Suite()); n != suiteSize {
					t.Errorf("Suite() has %d cases, want %d", n, suiteSize)
				}
				return
			}
			if !slices.ContainsFunc(suiteCases(), func(c Case) bool { return c.ID == last }) {
				t.Errorf("suiteCases misses %s", last)
			}
		}(g)
	}
	wg.Wait()
}

// TestSetTagBits: the tag-width rule the CLI and the serving layer
// share. 0 keeps the default, 1..8 applies to xtag only, and the width
// that runs is left in cfg.TagBits (0 off xtag).
func TestSetTagBits(t *testing.T) {
	for _, c := range []struct {
		policy string
		bits   int
		want   int // the width that runs; -1 for a refusal
	}{
		{"xtag", 0, core.DefaultTagBits},
		{"xtag", 1, 1},
		{"xtag", 8, 8},
		{"xtag", 9, -1},
		{"xtag", -1, -1},
		{"watchdog", 0, 0},
		{"watchdog", 4, -1},
		{"location", 9, -1},
	} {
		cfg, _, err := PolicyConfig(c.policy)
		if err != nil {
			t.Fatal(err)
		}
		err = SetTagBits(&cfg, c.bits)
		switch {
		case c.want < 0 && err == nil:
			t.Errorf("%s with %d bits: accepted", c.policy, c.bits)
		case c.want >= 0 && (err != nil || cfg.TagBits != c.want):
			t.Errorf("%s with %d bits: TagBits %d, err %v; want %d", c.policy, c.bits, cfg.TagBits, err, c.want)
		}
	}
}
