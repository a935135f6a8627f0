package machine

import (
	"fmt"
	"strings"
	"testing"

	"watchdog/internal/asm"
	"watchdog/internal/core"
	"watchdog/internal/isa"
	"watchdog/internal/mem"
)

// Coverage tests for individual macro-instruction semantics, run under
// the full Watchdog configuration so metadata handling is exercised on
// every path.

func TestSignExtendingLoads(t *testing.T) {
	res, err := run(t, wd(), false, func(b *asm.Builder) {
		b.Global("g", 16)
		b.Label("_start")
		b.MoviGlobal(isa.R1, "g", 0)
		b.Movi(isa.R2, 0xfff6) // low byte 0xf6 = -10; low half 0xfff6 = -10
		b.St(asm.Mem(isa.R1, 0, 8), isa.R2)
		b.Lds(isa.R3, asm.Mem(isa.R1, 0, 1))
		b.Sys(isa.SysPutInt, isa.R3) // -10
		b.Lds(isa.R3, asm.Mem(isa.R1, 0, 2))
		b.Sys(isa.SysPutInt, isa.R3) // -10
		b.Ld(isa.R3, asm.Mem(isa.R1, 0, 1))
		b.Sys(isa.SysPutInt, isa.R3) // 246 (zero-extended)
		b.Movi(isa.R2, -5)
		b.St(asm.Mem(isa.R1, 8, 4), isa.R2)
		b.Lds(isa.R3, asm.Mem(isa.R1, 8, 4))
		b.Sys(isa.SysPutInt, isa.R3) // -5
		b.Halt()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{-10, -10, 246, -5}
	for i, w := range want {
		if res.Output[i] != w {
			t.Fatalf("output[%d] = %d, want %d (all: %v)", i, res.Output[i], w, res.Output)
		}
	}
}

func TestDivideByZeroIsMachineError(t *testing.T) {
	_, err := run(t, wd(), false, func(b *asm.Builder) {
		b.Label("_start")
		b.Movi(isa.R1, 10)
		b.Movi(isa.R2, 0)
		b.Div(isa.R3, isa.R1, isa.R2)
		b.Halt()
	})
	if err == nil || !strings.Contains(err.Error(), "divide by zero") {
		t.Fatalf("want divide-by-zero machine error, got %v", err)
	}
}

func TestDivRemSemantics(t *testing.T) {
	res, err := run(t, wd(), false, func(b *asm.Builder) {
		b.Label("_start")
		b.Movi(isa.R1, -17)
		b.Movi(isa.R2, 5)
		b.Div(isa.R3, isa.R1, isa.R2)
		b.Sys(isa.SysPutInt, isa.R3) // -3 (Go/C truncation)
		b.Rem(isa.R3, isa.R1, isa.R2)
		b.Sys(isa.SysPutInt, isa.R3) // -2
		b.Halt()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != -3 || res.Output[1] != -2 {
		t.Fatalf("div/rem = %v", res.Output)
	}
}

func TestIndirectJumpAndCall(t *testing.T) {
	res, err := run(t, wd(), true, func(b *asm.Builder) {
		b.Global("fptr", 8)
		b.Label("_start")
		// Store a "function pointer" (code address) and call through it.
		b.MoviGlobal(isa.R1, "fptr", 0)
		b.Lea(isa.R2, asm.Mem(isa.R1, 0, 8)) // just exercise lea
		// Code addresses come from a jump-table idiom: materialize via
		// a label-resolved movi below.
		b.Movi(isa.R3, 0) // placeholder; patched by label trick below
		b.Jmp("setup")
		b.Label("target")
		b.Movi(isa.R4, 77)
		b.Sys(isa.SysPutInt, isa.R4)
		b.Halt()
		b.Label("fn")
		b.Movi(isa.R4, 33)
		b.Sys(isa.SysPutInt, isa.R4)
		b.Ret()
		b.Label("setup")
		// Indirect call to fn, then indirect jump to target.
		b.MoviLabel(isa.R5, "fn")
		b.Callr(isa.R5)
		b.MoviLabel(isa.R5, "target")
		b.Jmpr(isa.R5)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 2 || res.Output[0] != 33 || res.Output[1] != 77 {
		t.Fatalf("indirect flow output = %v", res.Output)
	}
}

func TestAddWithMemoryOperand(t *testing.T) {
	res, err := run(t, wd(), false, func(b *asm.Builder) {
		b.GlobalWords("g", []uint64{40})
		b.Label("_start")
		b.MoviGlobal(isa.R1, "g", 0)
		b.Movi(isa.R2, 2)
		b.AddMem(isa.R2, isa.R2, asm.Mem(isa.R1, 0, 8))
		b.Sys(isa.SysPutInt, isa.R2)
		b.Halt()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != 42 {
		t.Fatalf("add-mem = %v", res.Output)
	}
}

func TestXchgSingleContext(t *testing.T) {
	res, err := run(t, wd(), false, func(b *asm.Builder) {
		b.GlobalWords("g", []uint64{5})
		b.Label("_start")
		b.MoviGlobal(isa.R1, "g", 0)
		b.Movi(isa.R2, 9)
		b.Xchg(isa.R2, asm.Mem(isa.R1, 0, 8))
		b.Sys(isa.SysPutInt, isa.R2) // old value 5
		b.Ld(isa.R3, asm.Mem(isa.R1, 0, 8))
		b.Sys(isa.SysPutInt, isa.R3) // new value 9
		b.Halt()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != 5 || res.Output[1] != 9 {
		t.Fatalf("xchg = %v", res.Output)
	}
}

func TestPutChrText(t *testing.T) {
	res, err := run(t, wd(), false, func(b *asm.Builder) {
		b.Label("_start")
		for _, ch := range "ok" {
			b.Movi(isa.R1, int64(ch))
			b.Sys(isa.SysPutChr, isa.R1)
		}
		b.Halt()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Text != "ok" {
		t.Fatalf("text = %q", res.Text)
	}
}

func TestSetccAndShifts(t *testing.T) {
	res, err := run(t, wd(), false, func(b *asm.Builder) {
		b.Label("_start")
		b.Movi(isa.R1, 3)
		b.Movi(isa.R2, 7)
		b.Setcc(isa.CondLT, isa.R3, isa.R1, isa.R2)
		b.Sys(isa.SysPutInt, isa.R3) // 1
		b.Setcc(isa.CondGT, isa.R3, isa.R1, isa.R2)
		b.Sys(isa.SysPutInt, isa.R3) // 0
		b.Movi(isa.R1, -8)
		b.Sari(isa.R3, isa.R1, 2)
		b.Sys(isa.SysPutInt, isa.R3) // -2
		b.Shri(isa.R3, isa.R1, 60)
		b.Sys(isa.SysPutInt, isa.R3) // 15
		b.Movi(isa.R1, 5)
		b.Movi(isa.R2, 3)
		b.Shl(isa.R3, isa.R1, isa.R2)
		b.Sys(isa.SysPutInt, isa.R3) // 40
		b.Halt()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 0, -2, 15, 40}
	for i, w := range want {
		if res.Output[i] != w {
			t.Fatalf("output = %v, want %v", res.Output, want)
		}
	}
}

func TestReturnToGarbageIsMachineError(t *testing.T) {
	_, err := run(t, wd(), false, func(b *asm.Builder) {
		b.Label("_start")
		b.Subi(isa.SP, isa.SP, 8)
		b.Movi(isa.R1, 1234) // not a code address
		b.St(asm.Mem(isa.SP, 0, 8), isa.R1)
		b.Ret()
	})
	if err == nil || !strings.Contains(err.Error(), "non-code address") {
		t.Fatalf("want non-code return error, got %v", err)
	}
}

// TestMemoryLimitStopsRun: a program that loads one word from each of
// more pages than mem.MaxPages stops, once it has touched MaxPages of
// them, with an error that names the ceiling.
func TestMemoryLimitStopsRun(t *testing.T) {
	res, err := run(t, core.Config{Policy: core.PolicyBaseline}, false, func(b *asm.Builder) {
		b.Label("_start")
		b.Movi(isa.R4, int64(mem.HeapBase))
		b.Movi(isa.R5, 2*mem.MaxPages)
		b.Label("loop")
		b.Ld(isa.R2, asm.Mem(isa.R4, 0, 8))
		b.Addi(isa.R4, isa.R4, mem.PageSize)
		b.Subi(isa.R5, isa.R5, 1)
		b.Brnz(isa.R5, "loop")
		b.Halt()
	})
	want := fmt.Sprintf("machine: memory limit (%d pages of %d bytes) exceeded", mem.MaxPages, mem.PageSize)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
	// Two set-up instructions, four per page, then the load that found
	// no page left: the run stops at the add after it.
	if wantInsts := uint64(2 + 4*mem.MaxPages + 1); res.Insts != wantInsts {
		t.Errorf("stopped after %d instructions, want %d", res.Insts, wantInsts)
	}
}
