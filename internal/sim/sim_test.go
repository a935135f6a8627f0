package sim

import (
	"reflect"
	"strings"
	"testing"

	"watchdog/internal/asm"
	"watchdog/internal/cache"
	"watchdog/internal/core"
	"watchdog/internal/isa"
	"watchdog/internal/pipeline"
	"watchdog/internal/rt"
)

func buildCounting(t *testing.T, opts rt.Options) (*progAlias, int) {
	t.Helper()
	r := rt.NewBuild(opts)
	b := r.B
	b.Label("main")
	b.Movi(isa.R1, 64)
	b.Call("malloc")
	b.Mov(isa.R4, isa.R1)
	b.Movi(isa.R5, 8)
	b.Label("loop")
	b.St(asmMem(isa.R4, 0, 8), isa.R5)
	b.Subi(isa.R5, isa.R5, 1)
	b.Brnz(isa.R5, "loop")
	b.Mov(isa.R1, isa.R4)
	b.Call("free")
	b.Movi(isa.R1, 99)
	b.Sys(isa.SysPutInt, isa.R1)
	b.Ret()
	prog, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return prog, r.RuntimeEnd()
}

func TestRunFunctionalAndTimed(t *testing.T) {
	prog, rtEnd := buildCounting(t, rt.Options{Policy: core.PolicyWatchdog})
	// Functional only.
	res, err := Run(prog, Config{Core: core.DefaultConfig(), RuntimeEnd: rtEnd})
	if err != nil || res.MemErr != nil {
		t.Fatalf("functional run: %v %v", err, res.MemErr)
	}
	if res.Timing.Cycles != 0 {
		t.Fatal("functional run must not accumulate cycles")
	}
	// Timed.
	cfg := Default()
	cfg.RuntimeEnd = rtEnd
	res, err = Run(prog, cfg)
	if err != nil || res.MemErr != nil {
		t.Fatalf("timed run: %v %v", err, res.MemErr)
	}
	if res.Timing.Cycles == 0 || res.Output[0] != 99 {
		t.Fatalf("timed run: cycles=%d output=%v", res.Timing.Cycles, res.Output)
	}
}

func TestBaselineConfig(t *testing.T) {
	prog, rtEnd := buildCounting(t, rt.Options{Policy: core.PolicyBaseline})
	cfg := Default()
	cfg.Core = core.Config{Policy: core.PolicyBaseline}
	cfg.RuntimeEnd = rtEnd
	res, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine.Checks != 0 {
		t.Fatal("baseline must inject no checks")
	}
}

func TestProfilePass(t *testing.T) {
	prog, rtEnd := buildCounting(t, rt.Options{Policy: core.PolicyWatchdog})
	p, err := Profile(prog, core.DefaultConfig(), rtEnd)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() == 0 {
		t.Fatal("profile empty (the runtime stores pointers)")
	}
}

func TestLockCacheConsistency(t *testing.T) {
	// The engine's LockCache flag drives the hierarchy: disabling it
	// must not crash and must still run correctly.
	prog, rtEnd := buildCounting(t, rt.Options{Policy: core.PolicyWatchdog})
	cfg := Default()
	cfg.Core.LockCache = false
	cfg.RuntimeEnd = rtEnd
	res, err := Run(prog, cfg)
	if err != nil || res.MemErr != nil {
		t.Fatalf("no-lock-cache run: %v %v", err, res.MemErr)
	}
}

// TestPipelineConfigValidated: a timed run refuses a pipeline config
// with any width, window size, unit count or latency below 1, with an
// error naming the field, where it used to panic (a zero ROB divides
// by zero) or never return (a zero IQ never issues). The table holds
// every integer field of pipeline.Config, so a field added without a
// check fails here. The Table 2 default, the large-window configs of
// pipeline.TestLargeWindowConfigs and the all-ones floor still run.
func TestPipelineConfigValidated(t *testing.T) {
	prog, rtEnd := buildCounting(t, rt.Options{Policy: core.PolicyWatchdog})
	var cases []reflect.StructField
	for _, f := range reflect.VisibleFields(reflect.TypeOf(pipeline.Config{})) {
		if f.Type.Kind() == reflect.Int {
			cases = append(cases, f)
		}
	}
	if len(cases) < 20 {
		t.Fatalf("found only %d integer fields in pipeline.Config", len(cases))
	}
	for _, f := range cases {
		t.Run(f.Name, func(t *testing.T) {
			for _, bad := range []int64{0, -1} {
				cfg := Default()
				cfg.RuntimeEnd = rtEnd
				reflect.ValueOf(&cfg.Pipeline).Elem().FieldByIndex(f.Index).SetInt(bad)
				res, err := Run(prog, cfg)
				if err == nil || !strings.Contains(err.Error(), f.Name) {
					t.Errorf("%s = %d: err = %v, want an error naming the field", f.Name, bad, err)
				}
				if res != nil {
					t.Errorf("%s = %d: the refused config still ran", f.Name, bad)
				}
			}
		})
	}
	if _, err := Run(prog, Config{Core: core.DefaultConfig(), RuntimeEnd: rtEnd, Timing: true}); err == nil {
		t.Error("a zero pipeline config with timing on ran")
	}
	for name, set := range map[string]func(*pipeline.Config){
		"default":             func(*pipeline.Config) {},
		"DivLat5000":          func(c *pipeline.Config) { c.DivLat = 5000 },
		"ROB1024IQ1024":       func(c *pipeline.Config) { c.ROBSize, c.IQSize = 1024, 1024 },
		"ROB512":              func(c *pipeline.Config) { c.ROBSize = 512 },
		"all-ones (smallest)": func(c *pipeline.Config) { reflectSetInts(c, 1) },
	} {
		cfg := Default()
		cfg.RuntimeEnd = rtEnd
		set(&cfg.Pipeline)
		if res, err := Run(prog, cfg); err != nil || res.Output[0] != 99 {
			t.Errorf("%s: err = %v, want a clean run", name, err)
		}
	}
}

// TestHierConfigValidated: a timed run refuses a cache hierarchy that
// cache.HierConfig.Validate refuses, naming the field, where it used to
// panic (an L1D with no ways divides by zero) or quietly run another
// machine (a negative L2 latency shaved cycles off lbm). The lock
// level is checked only when the engine has a lock cache, and a
// functional run builds no hierarchy, so its zero config still runs.
func TestHierConfigValidated(t *testing.T) {
	prog, rtEnd := buildCounting(t, rt.Options{Policy: core.PolicyWatchdog})
	for name, set := range map[string]func(*cache.HierConfig){
		"L1D.Ways":       func(h *cache.HierConfig) { h.L1D.Ways = 0 },
		"L1D.BlockBytes": func(h *cache.HierConfig) { h.L1D.BlockBytes = 0 },
		"L2.Latency":     func(h *cache.HierConfig) { h.L2.Latency = -5 },
		"Lock.SizeBytes": func(h *cache.HierConfig) { h.Lock.SizeBytes = 1000 },
		"ITLBEntries":    func(h *cache.HierConfig) { h.ITLBEntries = 0 },
	} {
		cfg := Default()
		cfg.RuntimeEnd = rtEnd
		set(&cfg.Hier)
		res, err := Run(prog, cfg)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: err = %v, want an error naming the field", name, err)
		}
		if res != nil {
			t.Errorf("%s: the refused hierarchy still ran", name)
		}
	}

	noLock := Default()
	noLock.RuntimeEnd = rtEnd
	noLock.Core.LockCache = false
	noLock.Hier.Lock = cache.Config{}
	if res, err := Run(prog, noLock); err != nil || res.Output[0] != 99 {
		t.Errorf("no lock cache, zero lock level: err = %v, want a clean run", err)
	}
	if res, err := Run(prog, Config{Core: core.DefaultConfig(), RuntimeEnd: rtEnd}); err != nil || res.Output[0] != 99 {
		t.Errorf("functional run with a zero hierarchy: err = %v, want a clean run", err)
	}
}

// reflectSetInts sets every integer field of c to v.
func reflectSetInts(c *pipeline.Config, v int64) {
	rv := reflect.ValueOf(c).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).Kind() == reflect.Int {
			rv.Field(i).SetInt(v)
		}
	}
}

// progAlias and asmMem keep the test body terse.
type progAlias = asm.Program

func asmMem(base isa.Reg, disp int64, width uint8) isa.MemRef {
	return asm.Mem(base, disp, width)
}
