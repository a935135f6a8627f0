package fuzzgen

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"watchdog/internal/core"
)

// TestGenerateDigest pins the generated programs: a digest of the
// listing, runtime end and bug pc of every seed 0-299 with each bug
// kind, built against three runtime variants. The value was recorded
// before the runtime prelude was shared between programs and before
// the generator stopped allocating per operation; neither may change
// a program. It takes seconds, and half a minute under the race
// detector, so race builds skip it.
func TestGenerateDigest(t *testing.T) {
	if raceEnabled {
		t.Skip("900 programs take half a minute under -race")
	}
	const want = 0x9c8e69d5e77cc8f4
	h := fnv.New64a()
	for seed := int64(0); seed < 300; seed++ {
		for _, bug := range []Bug{BugNone, BugUAF, BugOOB} {
			for _, pol := range []core.Policy{core.PolicyBaseline, core.PolicyWatchdog, core.PolicyXTag} {
				prog, rtEnd, bugPC, err := Generate(Options{Seed: seed, Bug: bug, Policy: pol})
				if err != nil {
					t.Fatalf("seed %d, bug %d, %s: %v", seed, bug, pol, err)
				}
				io.WriteString(h, prog.Disasm(0, 0))
				fmt.Fprintf(h, "runtime end %d, bug pc %d\n", rtEnd, bugPC)
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("digest of the generated programs = %#x, want %#x", got, uint64(want))
	}
}

// TestGenerateAllocs: generating a program averages at most 200
// allocations. Rerun the number behind it with
//
//	go test ./internal/fuzzgen -run '^$' -bench Generate -benchmem
func TestGenerateAllocs(t *testing.T) {
	seed := int64(0)
	n := testing.AllocsPerRun(64, func() {
		if _, _, _, err := Generate(Options{Seed: seed, Bug: BugUAF, Policy: core.PolicyWatchdog}); err != nil {
			t.Fatal(err)
		}
		seed++
	})
	if n > 200 {
		t.Errorf("Generate makes %.0f allocations, want at most 200", n)
	}
}

// BenchmarkGenerate generates one planted-UAF program for the watchdog
// runtime per operation, over 64 seeds.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Generate(Options{Seed: int64(i % 64), Bug: BugUAF, Policy: core.PolicyWatchdog}); err != nil {
			b.Fatal(err)
		}
	}
}
