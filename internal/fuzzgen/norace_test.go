//go:build !race

package fuzzgen

// raceEnabled reports whether the test binary runs under the race
// detector, which slows generation about twelvefold.
const raceEnabled = false
