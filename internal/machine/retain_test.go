package machine

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"watchdog/internal/asm"
	"watchdog/internal/mem"
)

// A finalizer runs only once nothing reaches its object, so a machine
// whose finalizer runs while the test still holds the machine's Result
// proves that the Result does not pin the machine: its memory pages,
// engine, pipeline model and cache hierarchy. A sweep keeps every
// cell's Result, so a pinning Result would grow its heap by a whole
// machine per cell.

// awaitFinalizers forces collections until want finalizers have run,
// giving up after a bounded number of rounds. Finalizers run on their
// own goroutine, so each round also yields to it.
func awaitFinalizers(ran *atomic.Int32, want int32) bool {
	for i := 0; i < 50 && ran.Load() < want; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return ran.Load() >= want
}

func TestResultDoesNotPinMachine(t *testing.T) {
	var ran atomic.Int32
	res := func() *Result {
		m := timedMachine(t, 200)
		runtime.SetFinalizer(m, func(*Machine) { ran.Add(1) })
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	if !awaitFinalizers(&ran, 1) {
		t.Fatal("machine not collected while its Result was kept: the Result pins the machine")
	}
	if res.Insts == 0 || res.Timing.Cycles == 0 || res.Timing.Uops == 0 {
		t.Fatalf("kept Result lost its statistics: insts %d, cycles %d, uops %d",
			res.Insts, res.Timing.Cycles, res.Timing.Uops)
	}
}

func TestMTResultsDoNotPinContexts(t *testing.T) {
	const n, per = 2, 50
	prog := buildMT(t, n, func(b *asm.Builder) {
		b.GlobalWords("counter", []uint64{0})
		b.GlobalWords("lock", []uint64{0})
		for tid := 0; tid < n; tid++ {
			emitLockedIncrements(b, tid, per, true)
		}
	})
	var ran atomic.Int32
	results := func() []*Result {
		mt, err := NewMT(prog, mem.New(), wd(), n)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range mt.Contexts {
			runtime.SetFinalizer(c, func(*Machine) { ran.Add(1) })
		}
		results, err := mt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return results
	}()
	if !awaitFinalizers(&ran, n) {
		t.Fatalf("%d of %d contexts collected while their Results were kept: the Results pin them", ran.Load(), n)
	}
	for i, r := range results {
		if r.Insts == 0 {
			t.Fatalf("kept Result of context %d lost its instruction count", i)
		}
	}
}
