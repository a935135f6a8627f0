package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"watchdog/internal/machine"
	"watchdog/internal/report"
	"watchdog/internal/sim"
	"watchdog/internal/workload"
)

// TestResultFromCellRoundTrip: flattening a simulated result into the
// wire schema and reconstructing it preserves every number the figure
// assembly reads — so a distributed sweep computes identical figures.
func TestResultFromCellRoundTrip(t *testing.T) {
	r := runner(t)
	w, _ := workload.ByName("mcf")
	for _, cfg := range []ConfigName{CfgBaseline, CfgConservative, CfgISA} {
		res, err := r.Run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cell := buildCell(w.Name, string(cfg), sim.FidelityExact, res, nil)
		back := resultFromCell(&cell)

		if got, want := back.EstimatedCycles(), res.EstimatedCycles(); got != want {
			t.Errorf("%s: EstimatedCycles %d, want %d", cfg, got, want)
		}
		bt, ot := &back.Timing, &res.Timing
		if bt.BaseCycles != cell.BaseCycles || bt.CheckCycles != ot.CheckCycles ||
			bt.LockMissCycles != ot.LockMissCycles || bt.MetaCycles != ot.MetaCycles {
			t.Errorf("%s: CPI buckets differ: %+v", cfg, bt)
		}
		if bt.UopsByMeta != ot.UopsByMeta {
			t.Errorf("%s: UopsByMeta %v, want %v", cfg, bt.UopsByMeta, ot.UopsByMeta)
		}
		if bt.UopsByOp != ot.UopsByOp {
			t.Errorf("%s: UopsByOp differ", cfg)
		}
		if bt.InjectedUops() != ot.InjectedUops() || bt.IPC() != ot.IPC() {
			t.Errorf("%s: derived µop stats differ", cfg)
		}
		if back.Engine != res.Engine {
			// Engine carries more counters than the wire; only the
			// wire-visible ones must survive.
			if back.Engine.MemAccesses != res.Engine.MemAccesses ||
				back.Engine.PtrOps != res.Engine.PtrOps ||
				back.Engine.PtrLoads != res.Engine.PtrLoads ||
				back.Engine.PtrStores != res.Engine.PtrStores ||
				back.Engine.Checks != res.Engine.Checks {
				t.Errorf("%s: engine counters differ: %+v vs %+v", cfg, back.Engine, res.Engine)
			}
		}
		if bt.Cache.Lock != ot.Cache.Lock || bt.Cache.L1D != ot.Cache.L1D ||
			bt.Cache.L2.Misses != ot.Cache.L2.Misses || bt.Cache.L3.Misses != ot.Cache.L3.Misses {
			t.Errorf("%s: cache counters differ", cfg)
		}
		aw, ap, mw, mp := splitFootprint(back.Footprint)
		ow, op, omw, omp := splitFootprint(res.Footprint)
		if aw != ow || ap != op || mw != omw || mp != omp {
			t.Errorf("%s: footprint split (%d,%d,%d,%d), want (%d,%d,%d,%d)",
				cfg, aw, ap, mw, mp, ow, op, omw, omp)
		}
		if back.Insts != res.Insts || back.Uops != res.Uops || back.Partial != res.Partial {
			t.Errorf("%s: scalar counters differ", cfg)
		}
		// And the full circle: re-flattening the reconstruction yields
		// the identical wire cell.
		again := buildCell(w.Name, string(cfg), sim.FidelityExact, back, nil)
		b1, _ := json.Marshal(cell)
		b2, _ := json.Marshal(again)
		if string(b1) != string(b2) {
			t.Errorf("%s: re-flattened cell differs:\n%s\nvs\n%s", cfg, b1, b2)
		}
	}
}

// markerRemote hands out syntactically valid cells with a marker
// value no local simulation would produce, to prove Report emits
// remote cells verbatim rather than re-flattening the reconstruction.
type markerRemote struct{ calls int }

func (m *markerRemote) RemoteCell(ctx context.Context, wname string, cfg ConfigName, fid sim.Fidelity, overhead bool) (report.Cell, error) {
	m.calls++
	c := report.Cell{
		Workload: wname,
		Config:   string(cfg),
		Fidelity: string(fid.OrExact()),
		Cycles:   1000,
		// BaseCycles deliberately breaks the local bucket-sum relation
		// a re-flatten would "repair": verbatim emission preserves it.
		BaseCycles: 777,
		Insts:      10,
		Uops:       10,
		IPC:        0.5,
	}
	if overhead {
		c.Overhead = 4.25
	}
	return c, nil
}

// TestReportEmitsRemoteCellsVerbatim: a remote-backed runner's report
// carries the worker's wire cells byte-for-byte.
func TestReportEmitsRemoteCellsVerbatim(t *testing.T) {
	r, err := NewRunner(1, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	m := &markerRemote{}
	r.Remote = m
	w, _ := workload.ByName("mcf")
	if _, err := r.Run(w, CfgConservative); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(w, CfgBaseline); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Report(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("cells: %d, want 2", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.BaseCycles != 777 {
			t.Errorf("%s/%s: BaseCycles %d, want the verbatim marker 777", c.Workload, c.Config, c.BaseCycles)
		}
		if c.Config == string(CfgConservative) && c.Overhead != 4.25 {
			t.Errorf("remote overhead ratio not preserved: %v", c.Overhead)
		}
	}
	if m.calls != 2 {
		t.Errorf("remote calls: %d, want 2 (runner cache must still coalesce)", m.calls)
	}
	// Cached re-reads stay cache hits, not remote fetches.
	if _, err := r.Run(w, CfgConservative); err != nil {
		t.Fatal(err)
	}
	if m.calls != 2 {
		t.Errorf("cached cell re-fetched remotely (%d calls)", m.calls)
	}
}

// errRemote fails every fetch, checking error propagation and that a
// failed remote cell is not kept.
type errRemote struct{ calls int }

func (e *errRemote) RemoteCell(context.Context, string, ConfigName, sim.Fidelity, bool) (report.Cell, error) {
	e.calls++
	return report.Cell{}, fmt.Errorf("fleet on fire")
}

func TestRemoteErrorPropagates(t *testing.T) {
	r, err := NewRunner(1, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	e := &errRemote{}
	r.Remote = e
	w, _ := workload.ByName("mcf")
	if _, err := r.Run(w, CfgBaseline); err == nil {
		t.Fatal("remote failure did not propagate")
	} else if got := err.Error(); !strings.Contains(got, "fleet on fire") || !strings.Contains(got, "remote") {
		t.Errorf("error lost context: %v", got)
	}
	if _, err := r.Run(w, CfgBaseline); err == nil {
		t.Fatal("second fetch of a failing cell succeeded")
	}
	if e.calls != 2 {
		t.Errorf("remote calls: %d, want 2 (a failed cell must be fetched again, not replayed)", e.calls)
	}
}

// blockingRemote blocks its first fetch until the fetching context
// ends, then answers every later fetch with a valid cell.
type blockingRemote struct {
	calls   atomic.Int32
	started chan struct{}
}

func (b *blockingRemote) RemoteCell(ctx context.Context, wname string, cfg ConfigName, fid sim.Fidelity, overhead bool) (report.Cell, error) {
	if b.calls.Add(1) == 1 {
		close(b.started)
		<-ctx.Done()
		return report.Cell{}, ctx.Err()
	}
	return report.Cell{Workload: wname, Config: string(cfg), Fidelity: string(fid.OrExact()),
		Cycles: 1000, BaseCycles: 1000, Insts: 10, Uops: 10}, nil
}

// TestWaiterOutlivesCreatorCancel: a waiter with a live context that
// joined a cell still gets the cell when the creator's context is
// canceled, instead of inheriting the creator's cancellation.
func TestWaiterOutlivesCreatorCancel(t *testing.T) {
	r, err := NewRunner(1, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	b := &blockingRemote{started: make(chan struct{})}
	r.Remote = b
	w, _ := workload.ByName("mcf")

	cctx, cancel := context.WithCancel(context.Background())
	creator := make(chan error, 1)
	go func() {
		_, err := r.RunCtx(cctx, w, CfgBaseline)
		creator <- err
	}()
	<-b.started
	type outcome struct {
		res *machine.Result
		err error
	}
	waiter := make(chan outcome, 1)
	go func() {
		res, err := r.RunCtx(context.Background(), w, CfgBaseline)
		waiter <- outcome{res, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for r.Timing.Harness().CacheHits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the cell")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-creator; !Canceled(err) {
		t.Errorf("creator: err %v, want its own cancellation", err)
	}
	got := <-waiter
	if got.err != nil || got.res == nil || got.res.Timing.Cycles != 1000 {
		t.Fatalf("waiter: res %v, err %v; want the cell", got.res, got.err)
	}
	if n := b.calls.Load(); n != 2 {
		t.Errorf("remote calls: %d, want 2 (the canceled fetch, then the waiter's own)", n)
	}
}
