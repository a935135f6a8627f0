//go:build race

package experiments

// raceEnabled reports whether the test binary runs under the race
// detector, which slows the simulator about twentyfold.
const raceEnabled = true
