package machine

import (
	"testing"

	"watchdog/internal/asm"
	"watchdog/internal/bpred"
	"watchdog/internal/cache"
	"watchdog/internal/core"
	"watchdog/internal/isa"
	"watchdog/internal/mem"
	"watchdog/internal/pipeline"
)

// TestStepZeroAlloc pins the hot-path property the µop cache, the
// fixed step buffer and the engine's reused injection buffer were built
// for: once warm, interpreting a macro instruction under the full
// Watchdog configuration with the timing model attached performs zero
// heap allocations. The workload loop exercises every allocation-prone
// path — checked stack loads/stores, pointer-classified shadow
// metadata movement, call/ret frame-identifier µop sequences, and
// branches.
func TestStepZeroAlloc(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("_start")
	b.Movi(isa.R1, 0)
	b.Label("loop")
	b.Push(isa.R1)
	b.LdP(isa.R2, asm.Mem(isa.SP, 0, 8))
	b.StP(asm.Mem(isa.SP, 0, 8), isa.R2)
	b.Pop(isa.R1)
	b.Call("fn")
	b.Addi(isa.R1, isa.R1, 1)
	b.Jmp("loop")
	b.Label("fn")
	b.Push(isa.R3)
	b.Pop(isa.R3)
	b.Ret()
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}

	memory := mem.New()
	eng := core.NewEngine(core.DefaultConfig(), memory)
	hc := cache.DefaultHierConfig()
	hc.LockCacheEnabled = true
	bp := bpred.New(bpred.DefaultConfig())
	model := pipeline.New(pipeline.DefaultConfig(), cache.NewHierarchy(hc), bp)
	m := New(prog, memory, eng, model, bp)
	m.Load()

	// Warm up: grow the engine buffer, touch the memory pages, fill
	// the cache sets the loop uses, train the predictor, wrap the
	// pipeline rings.
	for i := 0; i < 20000; i++ {
		if err := m.step(); err != nil {
			t.Fatalf("warmup step: %v", err)
		}
	}
	if m.halted {
		t.Fatalf("machine halted during warmup (MemErr=%v)", m.res.MemErr)
	}

	avg := testing.AllocsPerRun(2000, func() {
		if err := m.step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	})
	if avg != 0 {
		t.Fatalf("machine.step allocates %.2f objects/op in steady state, want 0", avg)
	}
}
