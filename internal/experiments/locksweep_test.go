package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"strings"
	"testing"

	"watchdog/internal/sim"
)

// TestLockSweepMatchesSweep: a lock cell at the default 4 KB is the
// isa cell by another path, so LockSweep's 4KB column must equal
// Sweep(CfgISA) for every workload, at every fidelity. A lock path
// that ignores the runner's fidelity, or divides exact cycles by a
// sampled baseline's window-only cycles, breaks it.
func TestLockSweepMatchesSweep(t *testing.T) {
	for _, fid := range sim.Fidelities {
		t.Run(string(fid), func(t *testing.T) {
			r := runnerJ(t, 2)
			r.Fidelity = fid
			tab, err := r.LockSweep([]int{2 << 10, 4 << 10})
			if err != nil {
				t.Fatal(err)
			}
			s, _, err := r.Sweep(CfgISA)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := csv.NewReader(strings.NewReader(tab.CSV())).ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			col := -1
			for i, h := range rows[0] {
				if h == "4KB" {
					col = i
				}
			}
			if col < 0 || len(rows) != len(r.Workloads)+2 { // header, workloads, avg
				t.Fatalf("unexpected table shape:\n%s", tab)
			}
			for i, w := range r.Workloads {
				row := rows[i+1]
				if want := fmt.Sprintf("%.1f", s.Values[i]); row[0] != w.Name || row[col] != want {
					t.Errorf("%s: LockSweep 4KB = %s, Sweep(isa) = %s\n%s", w.Name, row[col], want, tab)
				}
			}
			// The size takes effect: the overheads barely move with it,
			// but a 2 KB lock location cache misses more somewhere.
			more := false
			for _, w := range r.Workloads {
				small, err := r.lockCell(context.Background(), fid, w, 2<<10)
				if err != nil {
					t.Fatal(err)
				}
				dflt, err := r.lockCell(context.Background(), fid, w, 4<<10)
				if err != nil {
					t.Fatal(err)
				}
				more = more || small.LockCacheMisses > dflt.LockCacheMisses
			}
			if !more {
				t.Error("a 2 KB lock location cache misses no more than the 4 KB one on any workload")
			}
		})
	}
}

// TestReportSkipsLockCells: LockSweep holds its sized cells for the
// call and keeps none, so Report lists only named-configuration cells.
func TestReportSkipsLockCells(t *testing.T) {
	r := runnerJ(t, 2)
	if _, err := r.LockSweep([]int{1 << 10, 4 << 10}); err != nil {
		t.Fatal(err)
	}
	if err := r.RunAll(CfgISA); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Report(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(r.Workloads); len(rep.Cells) != want { // baseline and isa
		t.Errorf("report has %d cells, want %d", len(rep.Cells), want)
	}
	for _, c := range rep.Cells {
		if !IsConfig(c.Config) {
			t.Errorf("report lists a cell of %q, not a named configuration", c.Config)
		}
	}
}

// TestSimConfigNames: every predefined name resolves, an unknown one
// is refused with the known names, and exactly the ISA-assisted
// Watchdog configurations need the profiling pass.
func TestSimConfigNames(t *testing.T) {
	profiled := map[ConfigName]bool{
		CfgISA: true, CfgISANoLock: true, CfgISAIdeal: true,
		CfgBounds1: true, CfgBounds2: true, CfgMonolithic: true,
	}
	for _, name := range AllConfigs {
		cfg, err := SimConfig(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := NeedsProfile(cfg.Core); got != profiled[name] {
			t.Errorf("%s: NeedsProfile = %v, want %v", name, got, profiled[name])
		}
	}
	if _, err := SimConfig("bogus"); err == nil || !strings.Contains(err.Error(), string(CfgDangKiller)) {
		t.Errorf("SimConfig(bogus): err = %v, want a refusal listing the known names", err)
	}
	if IsConfig("bogus") {
		t.Error("IsConfig(bogus) = true")
	}
}
