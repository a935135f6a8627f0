package rt

import (
	"fmt"
	"maps"
	"reflect"
	"sync"
	"testing"

	"watchdog/internal/asm"
	"watchdog/internal/core"
	"watchdog/internal/isa"
)

// allOptions lists every Options value: each policy, with and without
// Bounds and MT.
func allOptions() []Options {
	var out []Options
	for p := core.PolicyBaseline; p <= core.PolicyDangKiller; p++ {
		for _, bounds := range []bool{false, true} {
			for _, mt := range []bool{false, true} {
				out = append(out, Options{Policy: p, Bounds: bounds, MT: mt})
			}
		}
	}
	return out
}

// emitMain appends a workload that defines a global, calls into the
// runtime and takes a runtime function's code address.
func emitMain(r *Build) {
	b := r.B
	b.GlobalWords("g", []uint64{5})
	b.Label("main")
	b.Movi(isa.R1, 32)
	b.Call("malloc")
	b.MoviLabel(isa.R5, "rand")
	b.Call("free")
	b.Ret()
}

func finish(t *testing.T, r *Build) *asm.Program {
	t.Helper()
	p, err := r.Finish()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

// diffPrograms names the first part in which a program built on the
// shared prelude differs from want, whose runtime was emitted afresh
// and cracked whole; "" when they are equal.
func diffPrograms(got, want *asm.Program) string {
	switch {
	case !reflect.DeepEqual(got.Insts, want.Insts):
		return "Insts"
	case !reflect.DeepEqual(got.Data, want.Data):
		return "Data"
	case got.Entry != want.Entry:
		return "Entry"
	case got.GlobalEnd != want.GlobalEnd:
		return "GlobalEnd"
	case !maps.Equal(got.Symbols, want.Symbols):
		return "Symbols"
	case !maps.Equal(got.Globals, want.Globals):
		return "Globals"
	}
	gc, wc := got.CrackCache(), isa.NewCrackCache(want.Insts)
	for pc := range want.Insts {
		if !reflect.DeepEqual(gc.Cached(pc), wc.Cached(pc)) {
			return fmt.Sprintf("µops at pc %d", pc)
		}
	}
	return ""
}

// TestPreludeMatchesFreshEmission: for every Options value, a program
// built on the shared prelude is the program a fresh emission of the
// runtime gives, instruction for instruction and µop for µop.
func TestPreludeMatchesFreshEmission(t *testing.T) {
	for _, opts := range allOptions() {
		shared, fresh := NewBuild(opts), emit(opts)
		if shared.RuntimeEnd() != fresh.RuntimeEnd() {
			t.Errorf("%+v: RuntimeEnd %d, fresh emission %d", opts, shared.RuntimeEnd(), fresh.RuntimeEnd())
		}
		emitMain(shared)
		emitMain(fresh)
		if d := diffPrograms(finish(t, shared), finish(t, fresh)); d != "" {
			t.Errorf("%+v: %s differ from a fresh emission", opts, d)
		}
	}
}

// TestPreludeFixupsPerProgram: _start's call to main is resolved when
// each program is built, into that program's own instructions. Two
// programs from one prelude with main at different indexes (one
// defined by EmitMTStart) each call their own main, and a program
// built after them still equals a fresh emission.
func TestPreludeFixupsPerProgram(t *testing.T) {
	opts := Options{Policy: core.PolicyWatchdog, MT: true}
	first := NewBuild(opts)
	first.B.Label("main")
	first.B.Ret()
	second := NewBuild(opts)
	second.B.Nop()
	second.EmitMTStart(2)
	for tid := 0; tid < 2; tid++ {
		second.B.Label(fmt.Sprintf("thread%d", tid))
		second.B.Ret()
	}
	p1, p2 := finish(t, first), finish(t, second)
	if p1.Symbols["main"] == p2.Symbols["main"] {
		t.Fatalf("both programs define main at %d", p1.Symbols["main"])
	}
	for i, p := range []*asm.Program{p1, p2} {
		call := p.Insts[p.Symbols["_start"]+1]
		if call.Op != isa.OpCall || call.Label != "main" {
			t.Fatalf("program %d: _start+1 is %s, want call main", i+1, call.String())
		}
		if int(call.Imm) != p.Symbols["main"] {
			t.Errorf("program %d: _start calls %d, main is at %d", i+1, call.Imm, p.Symbols["main"])
		}
	}
	third, fresh := NewBuild(opts), emit(opts)
	emitMain(third)
	emitMain(fresh)
	if d := diffPrograms(finish(t, third), finish(t, fresh)); d != "" {
		t.Errorf("%s differ from a fresh emission after two builds", d)
	}
}

// TestPreludeConcurrentFirstUse: goroutines racing to assemble every
// prelude each get the program a fresh emission gives (and stay
// race-free under -race).
func TestPreludeConcurrentFirstUse(t *testing.T) {
	preludes.Lock()
	preludes.m = nil
	preludes.Unlock()
	all := allOptions()
	want := make([]*asm.Program, len(all))
	for i, opts := range all {
		r := emit(opts)
		emitMain(r)
		want[i] = finish(t, r)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		for i, opts := range all {
			wg.Add(1)
			go func(i int, opts Options) {
				defer wg.Done()
				r := NewBuild(opts)
				emitMain(r)
				p, err := r.Finish()
				if err != nil {
					t.Errorf("%+v: assemble: %v", opts, err)
					return
				}
				if d := diffPrograms(p, want[i]); d != "" {
					t.Errorf("%+v: %s differ from a fresh emission", opts, d)
				}
			}(i, opts)
		}
	}
	wg.Wait()
}

var buildSink *Build

// BenchmarkNewBuild measures starting a program on the shared runtime
// prelude (assembled once, before the timer starts).
func BenchmarkNewBuild(b *testing.B) {
	opts := Options{Policy: core.PolicyWatchdog}
	buildSink = NewBuild(opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildSink = NewBuild(opts)
	}
}

// TestNewBuildAllocs: starting a program on the shared prelude makes
// fewer allocations than emitting the runtime did (37).
func TestNewBuildAllocs(t *testing.T) {
	opts := Options{Policy: core.PolicyWatchdog}
	if n := testing.AllocsPerRun(20, func() { buildSink = NewBuild(opts) }); n >= 37 {
		t.Errorf("NewBuild makes %.0f allocations, want fewer than 37", n)
	}
}
