package stats

import (
	"sync/atomic"
	"time"

	"watchdog/internal/report"
)

// Timing accumulates the harness execution counters the parallel
// runner reports: how many simulations and profiling passes actually
// executed, how many requests were served from the cache, and how much
// simulator time was spent summed across workers. All counters are
// atomic, so workers update them concurrently without coordination;
// Harness snapshots them as the one record every report renders.
type Timing struct {
	sims      atomic.Uint64
	hits      atomic.Uint64
	profiles  atomic.Uint64
	busyNanos atomic.Int64
}

// AddSim records one executed simulation and its duration.
func (t *Timing) AddSim(d time.Duration) {
	t.sims.Add(1)
	t.busyNanos.Add(int64(d))
}

// AddProfile records one executed profiling pass and its duration.
func (t *Timing) AddProfile(d time.Duration) {
	t.profiles.Add(1)
	t.busyNanos.Add(int64(d))
}

// AddHit records one cache hit (a request served without simulating).
func (t *Timing) AddHit() { t.hits.Add(1) }

// Harness returns the counters as the harness record; busy time is
// simulations plus profiling passes. Adding them to the zero record
// derives the hit ratio.
func (t *Timing) Harness() report.Harness {
	var h report.Harness
	h.Add(report.Harness{
		Sims:      t.sims.Load(),
		Profiles:  t.profiles.Load(),
		CacheHits: t.hits.Load(),
		BusyNanos: t.busyNanos.Load(),
	})
	return h
}
