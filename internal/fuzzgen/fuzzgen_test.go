package fuzzgen

import (
	"testing"

	"watchdog/internal/core"
)

// TestGenerateDeterministic: the generator is a pure function of its
// options.
func TestGenerateDeterministic(t *testing.T) {
	a, _, _, err := Generate(Options{Seed: 7, Policy: core.PolicyWatchdog})
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := Generate(Options{Seed: 7, Policy: core.PolicyWatchdog})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Insts) != len(b.Insts) {
		t.Fatal("nondeterministic generation")
	}
	for i := range a.Insts {
		if a.Insts[i] != b.Insts[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
}
