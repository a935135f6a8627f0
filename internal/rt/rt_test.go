package rt

import (
	"testing"

	"watchdog/internal/asm"
	"watchdog/internal/core"
	"watchdog/internal/isa"
	"watchdog/internal/machine"
	"watchdog/internal/sim"
)

// runMain builds the runtime + workload main and runs it.
func runMain(t *testing.T, opts Options, cfg core.Config, main func(b *asm.Builder)) (*machine.Result, error) {
	t.Helper()
	r := NewBuild(opts)
	r.B.Label("main")
	main(r.B)
	prog, err := r.Finish()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return sim.Run(prog, sim.Config{Core: cfg, RuntimeEnd: r.RuntimeEnd()})
}

func wdOpts() Options { return Options{Policy: core.PolicyWatchdog} }

func TestMallocWriteReadFree(t *testing.T) {
	res, err := runMain(t, wdOpts(), core.DefaultConfig(), func(b *asm.Builder) {
		b.Movi(isa.R1, 64)
		b.Call("malloc")
		b.Mov(isa.R4, isa.R1)
		b.Movi(isa.R2, 1234)
		b.St(asm.Mem(isa.R4, 0, 8), isa.R2)
		b.St(asm.Mem(isa.R4, 56, 8), isa.R2)
		b.Ld(isa.R3, asm.Mem(isa.R4, 56, 8))
		b.Sys(isa.SysPutInt, isa.R3)
		b.Mov(isa.R1, isa.R4)
		b.Call("free")
		b.Ret()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemErr != nil {
		t.Fatalf("fault: %v", res.MemErr)
	}
	if res.Aborted {
		t.Fatalf("runtime abort %d", res.AbortCode)
	}
	if len(res.Output) != 1 || res.Output[0] != 1234 {
		t.Fatalf("output = %v", res.Output)
	}
}

func TestUseAfterFreeDetected(t *testing.T) {
	res, err := runMain(t, wdOpts(), core.DefaultConfig(), func(b *asm.Builder) {
		b.Movi(isa.R1, 32)
		b.Call("malloc")
		b.Mov(isa.R4, isa.R1)
		b.Call("free")
		b.Ld(isa.R3, asm.Mem(isa.R4, 0, 8)) // dangling
		b.Ret()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemErr == nil || res.MemErr.Kind != core.ErrUseAfterFree {
		t.Fatalf("want UAF, got %v", res.MemErr)
	}
}

func TestUAFAfterReallocationDetected(t *testing.T) {
	// The freed block is immediately reallocated (same address, LIFO
	// free lists); the stale pointer must still fault. This is the
	// case location-based checking fundamentally misses.
	res, err := runMain(t, wdOpts(), core.DefaultConfig(), func(b *asm.Builder) {
		b.Movi(isa.R1, 32)
		b.Call("malloc")
		b.Mov(isa.R4, isa.R1) // q = p (dangler)
		b.Call("free")        // free(p)
		b.Movi(isa.R1, 32)
		b.Call("malloc") // r = malloc(32): reuses the block
		b.Mov(isa.R5, isa.R1)
		// Same address proves reallocation happened.
		b.Setcc(isa.CondEQ, isa.R6, isa.R4, isa.R5)
		b.Sys(isa.SysPutInt, isa.R6)
		b.Ld(isa.R3, asm.Mem(isa.R4, 0, 8)) // dangling deref
		b.Ret()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0] != 1 {
		t.Fatalf("block was not reallocated at the same address: %v", res.Output)
	}
	if res.MemErr == nil || res.MemErr.Kind != core.ErrUseAfterFree {
		t.Fatalf("want UAF after reallocation, got %v", res.MemErr)
	}
}

func TestLocationPolicyMissesReallocatedUAF(t *testing.T) {
	opts := Options{Policy: core.PolicyLocation}
	cfg := core.Config{Policy: core.PolicyLocation}
	res, err := runMain(t, opts, cfg, func(b *asm.Builder) {
		b.Movi(isa.R1, 32)
		b.Call("malloc")
		b.Mov(isa.R4, isa.R1)
		b.Call("free")
		b.Movi(isa.R1, 32)
		b.Call("malloc")
		b.Ld(isa.R3, asm.Mem(isa.R4, 0, 8)) // dangling, but reallocated
		b.Sys(isa.SysPutInt, isa.R3)
		b.Ret()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemErr != nil {
		t.Fatalf("location policy should miss this, got %v", res.MemErr)
	}
	// But it does catch the not-reallocated case.
	res, err = runMain(t, opts, cfg, func(b *asm.Builder) {
		b.Movi(isa.R1, 32)
		b.Call("malloc")
		b.Mov(isa.R4, isa.R1)
		b.Call("free")
		b.Ld(isa.R3, asm.Mem(isa.R4, 0, 8))
		b.Ret()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemErr == nil || res.MemErr.Kind != core.ErrUnallocated {
		t.Fatalf("location policy must catch unreallocated UAF, got %v", res.MemErr)
	}
}

func TestDoubleFreeAborts(t *testing.T) {
	res, err := runMain(t, wdOpts(), core.DefaultConfig(), func(b *asm.Builder) {
		b.Movi(isa.R1, 32)
		b.Call("malloc")
		b.Mov(isa.R4, isa.R1)
		b.Call("free")
		b.Mov(isa.R1, isa.R4)
		b.Call("free") // double free
		b.Ret()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted || res.AbortCode != 1 {
		t.Fatalf("double free must abort: aborted=%v code=%d err=%v", res.Aborted, res.AbortCode, res.MemErr)
	}
}

func TestFreeOfStackPointerAborts(t *testing.T) {
	res, err := runMain(t, wdOpts(), core.DefaultConfig(), func(b *asm.Builder) {
		b.Subi(isa.SP, isa.SP, 16)
		b.Lea(isa.R1, asm.Mem(isa.SP, 0, 8))
		b.Call("free") // free of a stack address
		b.Addi(isa.SP, isa.SP, 16)
		b.Ret()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatalf("free of stack pointer must abort, got err=%v", res.MemErr)
	}
}

func TestBlockReuseAndSplit(t *testing.T) {
	res, err := runMain(t, wdOpts(), core.DefaultConfig(), func(b *asm.Builder) {
		// a = malloc(128); free(a); b = malloc(32): reuses a's block
		// (split), so b == a.
		b.Movi(isa.R1, 128)
		b.Call("malloc")
		b.Mov(isa.R4, isa.R1)
		b.Call("free")
		b.Movi(isa.R1, 32)
		b.Call("malloc")
		b.Setcc(isa.CondEQ, isa.R6, isa.R4, isa.R1)
		b.Sys(isa.SysPutInt, isa.R6)
		// The split remainder serves another allocation without
		// touching the wilderness: c fits in the leftover.
		b.Mov(isa.R5, isa.R1)
		b.Movi(isa.R1, 32)
		b.Call("malloc")
		// c must land inside a's original 128+16 bytes.
		b.Sub(isa.R7, isa.R1, isa.R4)
		b.Sys(isa.SysPutInt, isa.R7)
		b.Ret()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemErr != nil || res.Aborted {
		t.Fatalf("fault: %v aborted=%v", res.MemErr, res.Aborted)
	}
	if res.Output[0] != 1 {
		t.Fatal("freed block must be reused first-fit")
	}
	if res.Output[1] <= 0 || res.Output[1] >= 144 {
		t.Fatalf("split remainder not used: offset %d", res.Output[1])
	}
}

func TestCallocZeroes(t *testing.T) {
	res, err := runMain(t, wdOpts(), core.DefaultConfig(), func(b *asm.Builder) {
		// Dirty a block, free it, calloc the same size, sum the words.
		b.Movi(isa.R1, 64)
		b.Call("malloc")
		b.Mov(isa.R4, isa.R1)
		b.Movi(isa.R2, -1)
		b.Movi(isa.R3, 0)
		b.Label("dirty")
		b.St(asm.MemIdx(isa.R4, isa.R3, 8, 0, 8), isa.R2)
		b.Addi(isa.R3, isa.R3, 1)
		b.Movi(isa.R2, -1)
		b.Movi(isa.R5, 8)
		b.Br(isa.CondLT, isa.R3, isa.R5, "dirty")
		b.Mov(isa.R1, isa.R4)
		b.Call("free")
		b.Movi(isa.R1, 64)
		b.Call("calloc_words")
		b.Mov(isa.R4, isa.R1)
		b.Movi(isa.R5, 0) // sum
		b.Movi(isa.R3, 0)
		b.Label("sum")
		b.Ld(isa.R2, asm.MemIdx(isa.R4, isa.R3, 8, 0, 8))
		b.Add(isa.R5, isa.R5, isa.R2)
		b.Addi(isa.R3, isa.R3, 1)
		b.Movi(isa.R6, 8)
		b.Br(isa.CondLT, isa.R3, isa.R6, "sum")
		b.Sys(isa.SysPutInt, isa.R5)
		b.Ret()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemErr != nil || res.Aborted {
		t.Fatalf("fault: %v aborted=%v", res.MemErr, res.Aborted)
	}
	if res.Output[0] != 0 {
		t.Fatalf("calloc_words must zero: sum=%d", res.Output[0])
	}
}

func TestRandDeterministicNonzero(t *testing.T) {
	res, err := runMain(t, wdOpts(), core.DefaultConfig(), func(b *asm.Builder) {
		b.Call("rand")
		b.Sys(isa.SysPutInt, isa.R1)
		b.Call("rand")
		b.Sys(isa.SysPutInt, isa.R1)
		b.Ret()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 2 || res.Output[0] == res.Output[1] || res.Output[0] == 0 {
		t.Fatalf("rand outputs %v", res.Output)
	}
	// Deterministic across runs.
	res2, err := runMain(t, wdOpts(), core.DefaultConfig(), func(b *asm.Builder) {
		b.Call("rand")
		b.Sys(isa.SysPutInt, isa.R1)
		b.Call("rand")
		b.Sys(isa.SysPutInt, isa.R1)
		b.Ret()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != res2.Output[0] || res.Output[1] != res2.Output[1] {
		t.Fatal("rand must be deterministic")
	}
}

// emitChurn allocates count blocks of the given word size, stores
// pointers in a heap-allocated table, writes/reads each, frees every
// other block, reallocates, and checks a running sum.
func emitChurn(b *asm.Builder, count int64) {
	// r4 = table pointer, r5 = i, r6 = sum, r7 = scratch ptr
	b.Movi(isa.R1, count*8)
	b.Call("malloc")
	b.Mov(isa.R4, isa.R1)
	// allocate blocks
	b.Movi(isa.R5, 0)
	b.Label("churn.alloc")
	b.Movi(isa.R1, 48)
	b.Call("malloc")
	b.StP(asm.MemIdx(isa.R4, isa.R5, 8, 0, 8), isa.R1)
	b.St(asm.Mem(isa.R1, 0, 8), isa.R5) // block[0] = i
	b.Addi(isa.R5, isa.R5, 1)
	b.Movi(isa.R2, count)
	b.Br(isa.CondLT, isa.R5, isa.R2, "churn.alloc")
	// free every other block
	b.Movi(isa.R5, 0)
	b.Label("churn.free")
	b.LdP(isa.R1, asm.MemIdx(isa.R4, isa.R5, 8, 0, 8))
	b.Call("free")
	b.Addi(isa.R5, isa.R5, 2)
	b.Movi(isa.R2, count)
	b.Br(isa.CondLT, isa.R5, isa.R2, "churn.free")
	// reallocate into the holes
	b.Movi(isa.R5, 0)
	b.Label("churn.realloc")
	b.Movi(isa.R1, 48)
	b.Call("malloc")
	b.StP(asm.MemIdx(isa.R4, isa.R5, 8, 0, 8), isa.R1)
	b.St(asm.Mem(isa.R1, 0, 8), isa.R5)
	b.Addi(isa.R5, isa.R5, 2)
	b.Movi(isa.R2, count)
	b.Br(isa.CondLT, isa.R5, isa.R2, "churn.realloc")
	// sum all block[0] values
	b.Movi(isa.R5, 0)
	b.Movi(isa.R6, 0)
	b.Label("churn.sum")
	b.LdP(isa.R7, asm.MemIdx(isa.R4, isa.R5, 8, 0, 8))
	b.Ld(isa.R2, asm.Mem(isa.R7, 0, 8))
	b.Add(isa.R6, isa.R6, isa.R2)
	b.Addi(isa.R5, isa.R5, 1)
	b.Movi(isa.R2, count)
	b.Br(isa.CondLT, isa.R5, isa.R2, "churn.sum")
	b.Sys(isa.SysPutInt, isa.R6)
	b.Ret()
}

func TestChurnAcrossConfigurations(t *testing.T) {
	const count = 64
	var want int64 = count * (count - 1) / 2 // sum of 0..count-1
	cases := []struct {
		name string
		opts Options
		cfg  core.Config
	}{
		{"baseline", Options{Policy: core.PolicyBaseline}, core.Config{Policy: core.PolicyBaseline}},
		{"watchdog-isa", wdOpts(), core.DefaultConfig()},
		{"watchdog-cons", wdOpts(), core.Config{Policy: core.PolicyWatchdog, PtrPolicy: core.PtrConservative, LockCache: true, CopyElim: true}},
		{"watchdog-noelim", wdOpts(), core.Config{Policy: core.PolicyWatchdog, PtrPolicy: core.PtrConservative, LockCache: true}},
		{"location", Options{Policy: core.PolicyLocation}, core.Config{Policy: core.PolicyLocation}},
		{"software", Options{Policy: core.PolicySoftware}, core.Config{Policy: core.PolicySoftware, PtrPolicy: core.PtrConservative}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := runMain(t, tc.opts, tc.cfg, func(b *asm.Builder) {
				emitChurn(b, count)
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.MemErr != nil {
				t.Fatalf("fault: %v", res.MemErr)
			}
			if res.Aborted {
				t.Fatalf("abort %d", res.AbortCode)
			}
			if len(res.Output) != 1 || res.Output[0] != want {
				t.Fatalf("sum = %v, want %d", res.Output, want)
			}
		})
	}
}

func TestChurnWithBounds(t *testing.T) {
	opts := Options{Policy: core.PolicyWatchdog, Bounds: true}
	for _, mode := range []core.BoundsMode{core.BoundsFused, core.BoundsSeparate} {
		cfg := core.DefaultConfig()
		cfg.Bounds = mode
		res, err := runMain(t, opts, cfg, func(b *asm.Builder) {
			emitChurn(b, 32)
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.MemErr != nil || res.Aborted {
			t.Fatalf("%v: fault %v aborted=%v", mode, res.MemErr, res.Aborted)
		}
		if res.Output[0] != 32*31/2 {
			t.Fatalf("%v: sum=%d", mode, res.Output[0])
		}
	}
}

func TestHeapOverflowDetectedWithBounds(t *testing.T) {
	opts := Options{Policy: core.PolicyWatchdog, Bounds: true}
	cfg := core.DefaultConfig()
	cfg.Bounds = core.BoundsFused
	res, err := runMain(t, opts, cfg, func(b *asm.Builder) {
		b.Movi(isa.R1, 32)
		b.Call("malloc")
		b.Movi(isa.R2, 1)
		b.St(asm.Mem(isa.R1, 32, 8), isa.R2) // one past the end
		b.Ret()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemErr == nil || res.MemErr.Kind != core.ErrOutOfBounds {
		t.Fatalf("want out-of-bounds, got %v", res.MemErr)
	}
}

func TestProfilePassMarksPointerOps(t *testing.T) {
	r := NewBuild(wdOpts())
	r.B.Label("main")
	emitChurn(r.B, 16)
	prog, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := sim.Profile(prog, core.DefaultConfig(), r.RuntimeEnd())
	if err != nil {
		t.Fatal(err)
	}
	if prof.Len() == 0 {
		t.Fatal("profile must mark pointer operations")
	}
	// A run with the profile must still be correct.
	cfg := core.DefaultConfig()
	cfg.Profile = prof
	res, err := sim.Run(prog, sim.Config{Core: cfg, RuntimeEnd: r.RuntimeEnd()})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemErr != nil || res.Output[0] != 16*15/2 {
		t.Fatalf("profiled run wrong: %v %v", res.MemErr, res.Output)
	}
}

// TestFor: an engine configuration runs on its policy's runtime, which
// conveys bounds exactly when a bounds-checking mode is on.
func TestFor(t *testing.T) {
	for _, c := range []struct {
		cfg  core.Config
		want Options
	}{
		{core.Config{Policy: core.PolicyBaseline}, Options{Policy: core.PolicyBaseline}},
		{core.DefaultConfig(), Options{Policy: core.PolicyWatchdog}},
		{core.Config{Policy: core.PolicyWatchdog, Bounds: core.BoundsFused}, Options{Policy: core.PolicyWatchdog, Bounds: true}},
		{core.Config{Policy: core.PolicyWatchdog, Bounds: core.BoundsSeparate}, Options{Policy: core.PolicyWatchdog, Bounds: true}},
		{core.Config{Policy: core.PolicyXTag, TagBits: 3}, Options{Policy: core.PolicyXTag}},
	} {
		if got := For(c.cfg); got != c.want {
			t.Errorf("For(%+v) = %+v, want %+v", c.cfg, got, c.want)
		}
	}
}
