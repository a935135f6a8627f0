package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"watchdog/internal/core"
	"watchdog/internal/experiments"
	"watchdog/internal/fuzzgen"
	"watchdog/internal/machine"
	"watchdog/internal/pipeline"
	"watchdog/internal/report"
	"watchdog/internal/serve"
	"watchdog/internal/sim"
	"watchdog/internal/workload"
)

// goodResult is a completed cell whose CPI stack sums to its cycles.
func goodResult(out ...int64) *machine.Result {
	return &machine.Result{Output: out, Insts: 10, Timing: pipeline.Stats{Cycles: 7, BaseCycles: 4, CheckCycles: 2, MetaCycles: 1}}
}

func TestSweepCheckCountsEachBadCell(t *testing.T) {
	w, _ := workload.ByName("mcf")
	partial := goodResult(1, 2)
	partial.Partial = true
	badStack := goodResult(1, 2)
	badStack.Timing.Cycles++
	b := batch{cells: []cellResult{
		{w: w, cfg: experiments.CfgBaseline, res: goodResult(1, 2)},
		{w: w, cfg: experiments.CfgISA, res: goodResult(1, 2)},
		{w: w, cfg: experiments.CfgXTag, res: goodResult(1, 3)},
		{w: w, cfg: experiments.CfgISANoLock, res: partial},
		{w: w, cfg: experiments.CfgBounds1, res: badStack},
		{w: w, cfg: experiments.CfgBounds2, err: errors.New("boom")},
	}}
	p := newPart()
	checkBatch(p, b, sim.FidelityExact)
	if p.Attempted != 6 || p.Failed != 4 {
		t.Fatalf("attempted %d failed %d, want 6 and 4", p.Attempted, p.Failed)
	}
	// The CPI-stack identity holds at exact fidelity only.
	p = newPart()
	checkBatch(p, batch{cells: b.cells[:2:2]}, sim.FidelitySampled)
	checkBatch(p, batch{cells: []cellResult{b.cells[0], b.cells[4]}}, sim.FidelitySampled)
	if p.Failed != 0 {
		t.Fatalf("sampled fidelity failed %d cells, want 0", p.Failed)
	}
}

// simBody is a well-formed /v1/sim answer to req.
func simBody(t *testing.T, req serve.SimRequest) []byte {
	t.Helper()
	b, err := json.Marshal(serve.SimResponse{Schema: serve.Schema, Version: serve.Version, WallNanos: 1000,
		Cell: report.Cell{Workload: req.Workload, Config: req.Config, Cycles: 7, BaseCycles: 7}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestServeFailuresAreNotLatencySamples(t *testing.T) {
	req := serve.SimRequest{Workload: "mcf", Config: "isa", Scale: 1, Overhead: true}
	good := simBody(t, req)
	wrongEcho := simBody(t, serve.SimRequest{Workload: "lbm", Config: "isa"})
	var differs serve.SimResponse
	if err := json.Unmarshal(good, &differs); err != nil {
		t.Fatal(err)
	}
	differs.WallNanos++
	differsBody, err := json.Marshal(differs)
	if err != nil {
		t.Fatal(err)
	}
	// Each handler answers the second request for the cell, a replay;
	// the first gets a correct answer.
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		failed  int
	}{
		{"correct", func(w http.ResponseWriter, r *http.Request) { w.Write(good) }, 0},
		{"corrupted", func(w http.ResponseWriter, r *http.Request) { w.Write(good[:len(good)/2]) }, 1},
		{"wrong-echo", func(w http.ResponseWriter, r *http.Request) { w.Write(wrongEcho) }, 1},
		{"replay-differs", func(w http.ResponseWriter, r *http.Request) { w.Write(differsBody) }, 1},
		{"429", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusTooManyRequests) }, 1},
		{"500", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusInternalServerError) }, 1},
		{"dropped", func(w http.ResponseWriter, r *http.Request) {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var n atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if n.Add(1) == 1 {
					w.Write(good)
					return
				}
				tc.handler(w, r)
			}))
			defer srv.Close()
			rec := &recorder{next: srv.Client().Transport}
			client := &http.Client{Transport: rec}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				resp, err := client.Post(srv.URL+"/v1/sim", "application/json", bytes.NewReader(body))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
			p := newPart()
			hits, misses := judge(p, rec.ex)
			if p.Attempted != 2 || p.Failed != tc.failed {
				t.Fatalf("attempted %d failed %d, want 2 and %d", p.Attempted, p.Failed, tc.failed)
			}
			if len(misses) != 1 || len(hits) != 1-tc.failed {
				t.Fatalf("%d misses and %d hits sampled, want 1 and %d", len(misses), len(hits), 1-tc.failed)
			}
		})
	}
}

func TestRefereeVerdicts(t *testing.T) {
	done := func(out int64) *machine.Result { return &machine.Result{Output: []int64{out}} }
	faulted := func(kind core.ErrorKind, pc int) *machine.Result {
		return &machine.Result{MemErr: &core.MemoryError{Kind: kind, PC: pc}}
	}
	for _, tc := range []struct {
		name   string
		res    *machine.Result
		bug    fuzzgen.Bug
		oracle bool
		ok     bool
	}{
		{"safe, baseline checksum", done(42), fuzzgen.BugNone, true, true},
		{"safe, wrong checksum", done(41), fuzzgen.BugNone, false, false},
		{"safe, false positive", faulted(core.ErrUseAfterFree, 7), fuzzgen.BugNone, true, false},
		{"uaf caught at the planted pc", faulted(core.ErrUseAfterFree, 7), fuzzgen.BugUAF, true, true},
		{"uaf caught elsewhere", faulted(core.ErrUseAfterFree, 8), fuzzgen.BugUAF, true, false},
		{"uaf missed by an oracle", done(42), fuzzgen.BugUAF, true, false},
		{"uaf missed by a comparator", done(42), fuzzgen.BugUAF, false, true},
		{"uaf missed, wrong checksum", done(40), fuzzgen.BugUAF, false, false},
		{"uaf caught by a comparator", faulted(core.ErrUseAfterFree, 7), fuzzgen.BugUAF, false, true},
	} {
		err := verdict(tc.res, tc.bug, 7, 42, tc.oracle)
		if (err == nil) != tc.ok {
			t.Errorf("%s: verdict error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestParsePprofTop(t *testing.T) {
	top := `File: bench
Type: cpu
Showing nodes accounting for 10s, 100% of 10s total
      flat  flat%   sum%        cum   cum%
     4.00s 40.00% 40.00%      6.00s 60.00%  watchdog/internal/pipeline.(*Model).OnUop
     2.00s 20.00% 60.00%      2.50s 25.00%  watchdog/internal/pipeline.(*Model).Warm
     1.50s 15.00% 75.00%      1.50s 15.00%  runtime.mallocgc
     1.00s 10.00% 85.00%      1.00s 10.00%  internal/runtime/maps.(*Map).getWithKeySmall
     1.00s 10.00% 95.00%      1.00s 10.00%  net/http.(*conn).serve
     0.50s  5.00%   100%      0.50s  5.00%  main.run
`
	shares, warm, err := parsePprofTop(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"pipeline": 60, "runtime": 25, "net_http": 10}
	for k, v := range want {
		if shares[k] != v {
			t.Errorf("share %s = %v, want %v", k, shares[k], v)
		}
	}
	if warm != 25 {
		t.Errorf("cumulative Warm share %v, want 25", warm)
	}
}

func TestTailPicksTheHighestPercentileWithTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		pct, want float64
	}{
		{1500, 99, 1485},
		{1000, 99, 990},
		{999, 95, 950},
		{160, 90, 144},
		{80, 75, 60},
		{50, 75, 38},
		{5, 100, 5},
	} {
		v, p, n := tail(seq(tc.n))
		if v != tc.want || p != tc.pct || n != tc.n {
			t.Errorf("n=%d: got p%g = %v (n=%d), want p%g = %v", tc.n, p, v, n, tc.pct, tc.want)
		}
	}
}
