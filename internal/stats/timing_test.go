package stats

import (
	"sync"
	"testing"
	"time"

	"watchdog/internal/report"
)

func TestTimingCounters(t *testing.T) {
	var tm Timing
	tm.AddSim(2 * time.Second)
	tm.AddSim(1 * time.Second)
	tm.AddProfile(500 * time.Millisecond)
	tm.AddHit()
	tm.AddHit()
	want := report.Harness{Sims: 2, Profiles: 1, CacheHits: 2, BusyNanos: int64(3500 * time.Millisecond), CacheHitRatio: 0.5}
	if got := tm.Harness(); got != want {
		t.Fatalf("Harness() = %+v, want %+v", got, want)
	}
}

// TestTimingConcurrent: counters must tolerate concurrent workers
// (this is the -race guard for the type).
func TestTimingConcurrent(t *testing.T) {
	var tm Timing
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tm.AddSim(time.Microsecond)
				tm.AddHit()
				tm.AddProfile(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	h := tm.Harness()
	if h.Sims != 8000 || h.CacheHits != 8000 || h.Profiles != 8000 {
		t.Fatalf("lost updates: %+v", h)
	}
	if got, want := time.Duration(h.BusyNanos), 16*time.Millisecond; got != want {
		t.Fatalf("busy time %v, want %v", got, want)
	}
}
