package security

import (
	"context"
	"testing"

	"watchdog/internal/fuzzgen"
)

// FuzzPolicyReferee judges the generated program of any seed, op count
// and bug kind: Judge derives every expectation from the program's own
// runs, so any input has an exact oracle. The op count is a byte, so a
// program has at most 255 operations (0 is the generator's default,
// 150). Run it with
//
//	go test ./internal/security -run '^$' -fuzz '^FuzzPolicyReferee$' -fuzztime 20s
//
// The fixed seed runs are judged by fuzzgen's differential tests and
// workload's TestRegressionGoldenVerdicts.
func FuzzPolicyReferee(f *testing.F) {
	f.Add(int64(2), uint8(40), uint8(fuzzgen.BugUAF))
	f.Add(int64(440), uint8(0), uint8(fuzzgen.BugUAF))
	f.Add(int64(300), uint8(0), uint8(fuzzgen.BugOOB))
	f.Add(int64(0), uint8(0), uint8(fuzzgen.BugNone))
	f.Fuzz(func(t *testing.T, seed int64, ops, bug uint8) {
		o := fuzzgen.Options{Seed: seed, Ops: int(ops), Bug: fuzzgen.Bug(bug % 3)}
		if _, err := Judge(context.Background(), o); err != nil {
			t.Fatal(err)
		}
	})
}
