package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"watchdog/internal/report"
	"watchdog/internal/sim"
	"watchdog/internal/workload"
)

// markerRemote hands out syntactically valid cells with a marker
// value no local simulation would produce, to prove Report keeps
// remote cells as the worker sent them. The baseline's cycles differ
// from every other cell's, so a derived overhead is not 1.
type markerRemote struct{ calls int }

func (m *markerRemote) RemoteCell(ctx context.Context, wname string, cfg ConfigName, fid sim.Fidelity) (report.Cell, error) {
	m.calls++
	cycles := int64(1250)
	if cfg == CfgBaseline {
		cycles = 1000
	}
	return report.Cell{
		Workload: wname,
		Config:   string(cfg),
		Fidelity: string(fid.OrExact()),
		Cycles:   cycles,
		// BaseCycles deliberately breaks the local bucket-sum relation
		// a re-flatten would "repair": keeping the cell preserves it.
		BaseCycles: 777,
		Insts:      10,
		Uops:       10,
		IPC:        0.5,
	}, nil
}

// TestReportEmitsRemoteCellsVerbatim: a remote-backed runner's report
// carries the worker's wire cells field for field, plus the overhead
// Report derives from the run's baseline cell.
func TestReportEmitsRemoteCellsVerbatim(t *testing.T) {
	r, err := NewRunner(1, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	m := &markerRemote{}
	r.Remote = m
	w, _ := workload.ByName("mcf")
	for _, cfg := range []ConfigName{CfgConservative, CfgBaseline} {
		if _, err := r.CellCtx(context.Background(), r.Fidelity, w, cfg, false); err != nil {
			t.Fatal(err)
		}
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
		want := 1.25
		if c.Config == string(CfgBaseline) {
			want = 0
		}
		if c.Overhead != want {
			t.Errorf("%s/%s: overhead %v, want %v over the remote baseline", c.Workload, c.Config, c.Overhead, want)
		}
	}
	if m.calls != 2 {
		t.Errorf("remote calls: %d, want 2 (runner cache must still coalesce)", m.calls)
	}
	// Cached re-reads stay cache hits, not remote fetches, and Run names
	// the cell it has no Result for.
	if _, err := r.Run(w, CfgConservative); err == nil || !strings.Contains(err.Error(), "mcf under conservative") {
		t.Errorf("Run on a remote runner: err %v, want one naming the cell", err)
	}
	if m.calls != 2 {
		t.Errorf("cached cell re-fetched remotely (%d calls)", m.calls)
	}
}

// errRemote fails every fetch, checking error propagation and that a
// failed remote cell is not kept.
type errRemote struct{ calls int }

func (e *errRemote) RemoteCell(context.Context, string, ConfigName, sim.Fidelity) (report.Cell, error) {
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

func (b *blockingRemote) RemoteCell(ctx context.Context, wname string, cfg ConfigName, fid sim.Fidelity) (report.Cell, error) {
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
		_, err := r.CellCtx(cctx, r.Fidelity, w, CfgBaseline, false)
		creator <- err
	}()
	<-b.started
	type outcome struct {
		cell report.Cell
		err  error
	}
	waiter := make(chan outcome, 1)
	go func() {
		cell, err := r.CellCtx(context.Background(), r.Fidelity, w, CfgBaseline, false)
		waiter <- outcome{cell, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for r.Timing.Harness().CacheHits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the cell")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-creator; !sim.Canceled(err) {
		t.Errorf("creator: err %v, want its own cancellation", err)
	}
	got := <-waiter
	if got.err != nil || got.cell.Cycles != 1000 {
		t.Fatalf("waiter: cell %+v, err %v; want the cell", got.cell, got.err)
	}
	if n := b.calls.Load(); n != 2 {
		t.Errorf("remote calls: %d, want 2 (the canceled fetch, then the waiter's own)", n)
	}
}
