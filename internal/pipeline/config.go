// Package pipeline implements the out-of-order core timing model: a
// dependence-graph (interval-style) model of the Table 2 Sandy-Bridge-
// like processor. µops flow in program order through a bandwidth-
// limited front end into a finite ROB/IQ/LQ/SQ window; issue is
// constrained by operand readiness, issue width, and functional-unit /
// cache-port availability; retirement is in-order. The model captures
// the effects Watchdog's evaluation depends on: injected µops consume
// front-end, issue and retire bandwidth plus window occupancy; check
// µops contend for load ports unless the lock location cache provides
// its own port; decoupled metadata keeps shadow loads off the critical
// path so they overlap under superscalar execution.
package pipeline

import "fmt"

// Config holds the core parameters (Table 2 of the paper).
type Config struct {
	ClockGHz float64

	FetchWidthMacro int // macro instructions fetched per cycle (16 bytes ≈ 4)
	FrontEndDepth   int // fetch(3) + rename(2) + dispatch(1) cycles
	DispatchWidth   int // µops renamed+dispatched per cycle
	IssueWidth      int
	RetireWidth     int

	ROBSize int
	IQSize  int
	LQSize  int
	SQSize  int

	IntALUs     int
	MulDivs     int
	LoadPorts   int
	StorePorts  int
	BranchUnits int
	FPAlus      int
	FPMuls      int
	FPDivs      int
	LockPorts   int // ports on the lock location cache

	MulLat   int
	DivLat   int
	FPAluLat int
	FPMulLat int
	FPDivLat int
}

// DefaultConfig returns the Table 2 configuration.
func DefaultConfig() Config {
	return Config{
		ClockGHz:        3.2,
		FetchWidthMacro: 4,
		FrontEndDepth:   6,
		DispatchWidth:   6,
		IssueWidth:      6,
		RetireWidth:     6,
		ROBSize:         168,
		IQSize:          54,
		LQSize:          64,
		SQSize:          36,
		IntALUs:         6,
		MulDivs:         2,
		LoadPorts:       2,
		StorePorts:      1,
		BranchUnits:     1,
		FPAlus:          2,
		FPMuls:          1,
		FPDivs:          1,
		LockPorts:       2,
		MulLat:          3,
		DivLat:          20,
		FPAluLat:        3,
		FPMulLat:        5,
		FPDivLat:        20,
	}
}

// MaxLSQSize bounds LQSize and SQSize. New allocates both queues up
// front, 8 bytes per load-queue entry and 40 per store-queue entry, so
// the bound caps them at 3 MB. A queue longer than the ROB never
// fills, and 65,536 entries is 64 times the largest ROB
// TestLargeWindowConfigs times.
const MaxLSQSize = 1 << 16

// Validate refuses a configuration the model cannot time: every width,
// window size, unit count and latency must be at least 1 (a zero ROB
// divides by zero, a zero IQ never issues), and LQSize and SQSize at
// most MaxLSQSize. The error names the first offending field. ClockGHz
// only labels reports and is not checked.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"FetchWidthMacro", c.FetchWidthMacro}, {"FrontEndDepth", c.FrontEndDepth},
		{"DispatchWidth", c.DispatchWidth}, {"IssueWidth", c.IssueWidth},
		{"RetireWidth", c.RetireWidth},
		{"ROBSize", c.ROBSize}, {"IQSize", c.IQSize}, {"LQSize", c.LQSize}, {"SQSize", c.SQSize},
		{"IntALUs", c.IntALUs}, {"MulDivs", c.MulDivs}, {"LoadPorts", c.LoadPorts},
		{"StorePorts", c.StorePorts}, {"BranchUnits", c.BranchUnits}, {"FPAlus", c.FPAlus},
		{"FPMuls", c.FPMuls}, {"FPDivs", c.FPDivs}, {"LockPorts", c.LockPorts},
		{"MulLat", c.MulLat}, {"DivLat", c.DivLat}, {"FPAluLat", c.FPAluLat},
		{"FPMulLat", c.FPMulLat}, {"FPDivLat", c.FPDivLat},
	} {
		if f.v < 1 {
			return fmt.Errorf("pipeline: %s is %d, want at least 1", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"LQSize", c.LQSize}, {"SQSize", c.SQSize}} {
		if f.v > MaxLSQSize {
			return fmt.Errorf("pipeline: %s is %d, want at most %d", f.name, f.v, MaxLSQSize)
		}
	}
	return nil
}

// MaxWindowCycles bounds ROBSize × the longest latency a µop can see.
// A full ROB of dependent µops of that latency spreads the live cycles
// about that far, and the slot table and IQ ring grow to cover the
// spread: 2^20 cycles keeps them to tens of MB, where a latency in the
// millions would ask for more memory than a host has. It admits a
// 168-entry ROB with 5,000-cycle divides (840,000, a 24 MB slot table)
// and a 1,024-entry ROB whose misses take 468 cycles (479,232).
const MaxWindowCycles = 1 << 20

// ValidateWindow refuses a configuration whose windows could spread
// over more than MaxWindowCycles cycles: ROBSize times the longest of
// the pipeline's latencies and memLatency, the latency of an access
// that misses every cache level (cache.HierConfig.MissLatency). It
// assumes Validate has passed.
func (c Config) ValidateWindow(memLatency int) error {
	name, lat := "miss latency", memLatency
	for _, f := range []struct {
		name string
		v    int
	}{
		{"MulLat", c.MulLat}, {"DivLat", c.DivLat}, {"FPAluLat", c.FPAluLat},
		{"FPMulLat", c.FPMulLat}, {"FPDivLat", c.FPDivLat},
	} {
		if f.v > lat {
			name, lat = f.name, f.v
		}
	}
	if lat > MaxWindowCycles/c.ROBSize {
		return fmt.Errorf("pipeline: ROBSize %d × %s %d exceeds %d cycles",
			c.ROBSize, name, lat, MaxWindowCycles)
	}
	return nil
}
