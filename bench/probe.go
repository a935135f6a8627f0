package main

import (
	"os"
	"time"
)

// The hosts this benchmark runs on share their cores with other
// tenants. How fast they run the same code drifts by up to a factor of
// two over tens of seconds, and no steal time is reported. setup_s, the
// one gated time, is therefore scaled to a nominal host: the parent
// process runs a fixed reference loop just before and just after each
// set-up child, while no workload code runs, and reports a set-up time
// t measured at mean speed s as t·s. The loop is benchmark code, so a
// change to the program cannot move it. A traced run reports the speed
// around it as bench.host_speed, so a reader can tell a slow host from
// a slow change in the per-layer times, which are raw.

// probeWords sizes the reference loop's table (1 MiB, beyond the
// per-core caches, as the simulator's working set is).
const probeWords = 1 << 17

// probeChunk is how many table updates the loop makes between clock
// reads.
const probeChunk = 1024

// nominalChunksPerSec is about the loop's rate on an idle core of the
// two-core host the benchmark was sized on (205k-310k over forty 20 ms
// probes). It sets only the scale of the reported set-up times.
const nominalChunksPerSec = 270_000

// probeSlice is how long one speed measurement runs.
const probeSlice = 20 * time.Millisecond

// probe is the reference loop and its table.
type probe struct {
	table []uint64
	x     uint64
}

// newProbe returns a probe whose table is already resident, so the
// first measurement does not time page faults.
func newProbe() *probe {
	p := &probe{table: make([]uint64, probeWords), x: 88172645463325252}
	for i := range p.table {
		p.table[i] = uint64(i)
	}
	return p
}

// speed runs the loop for at least probeSlice and returns the host's
// speed relative to nominal.
func (p *probe) speed() float64 {
	start := time.Now()
	n := 0
	for {
		for i := 0; i < probeChunk; i++ {
			p.x ^= p.x << 13
			p.x ^= p.x >> 7
			p.x ^= p.x << 17
			p.table[p.x&(probeWords-1)] += p.x
		}
		n++
		if el := time.Since(start); el >= probeSlice {
			return float64(n) / el.Seconds() / nominalChunksPerSec
		}
	}
}

// rssWindows records the peak resident set of each 100 ms window of a
// run, resetting the kernel's high-water mark between windows. The
// median window peak is steadier than the run's single peak, which
// hinges on when the garbage collector happened to run.
type rssWindows struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // written by the sampling goroutine until done closes
}

func startRSSWindows() *rssWindows {
	w := &rssWindows{stop: make(chan struct{}), done: make(chan struct{})}
	resetPeakRSS()
	go func() {
		defer close(w.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.peaks = append(w.peaks, peakRSSMB())
				resetPeakRSS()
			}
		}
	}()
	return w
}

// finish stops the sampling and returns the window peaks, the last,
// partial window included.
func (w *rssWindows) finish() []float64 {
	close(w.stop)
	<-w.done
	return append(w.peaks, peakRSSMB())
}

// resetPeakRSS resets the kernel's peak-RSS mark (VmHWM) to the current
// resident set. Where that is not possible the windows all report the
// run's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
