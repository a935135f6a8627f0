package asm

import (
	"slices"
	"sync"
	"testing"

	"watchdog/internal/isa"
	"watchdog/internal/mem"
)

func TestLabelsResolve(t *testing.T) {
	b := NewBuilder()
	b.Label("_start")
	b.Movi(isa.R1, 10)
	b.Label("loop")
	b.Subi(isa.R1, isa.R1, 1)
	b.Brnz(isa.R1, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != 0 {
		t.Fatalf("entry = %d", p.Entry)
	}
	br := p.Insts[2]
	if br.Op != isa.OpBr || br.Imm != 1 {
		t.Fatalf("branch not resolved to index 1: %+v", br)
	}
}

func TestUndefinedLabel(t *testing.T) {
	b := NewBuilder()
	b.Jmp("nowhere")
	if _, err := b.Build(); err == nil {
		t.Fatal("expected undefined-label error")
	}
}

func TestDuplicateLabel(t *testing.T) {
	b := NewBuilder()
	b.Label("x")
	b.Nop()
	b.Label("x")
	b.Nop()
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected duplicate-label error")
	}
}

func TestGlobals(t *testing.T) {
	b := NewBuilder()
	a1 := b.Global("buf", 100)
	a2 := b.Global("arr", 16)
	if a1 != mem.GlobalBase {
		t.Fatalf("first global at %#x", a1)
	}
	if a2 != mem.GlobalBase+104 { // 100 rounded up to 104
		t.Fatalf("second global at %#x, want 8-aligned placement", a2)
	}
	if b.GlobalAddrOf("buf") != a1 {
		t.Fatal("GlobalAddrOf mismatch")
	}
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.GlobalEnd != a2+16 {
		t.Fatalf("GlobalEnd = %#x", p.GlobalEnd)
	}
}

func TestDuplicateGlobal(t *testing.T) {
	b := NewBuilder()
	b.Global("x", 8)
	b.Global("x", 8)
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected duplicate-global error")
	}
}

func TestGlobalWordsInit(t *testing.T) {
	b := NewBuilder()
	addr := b.GlobalWords("tbl", []uint64{1, 0xdeadbeef, 3})
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Data) != 1 || p.Data[0].Addr != addr || len(p.Data[0].Bytes) != 24 {
		t.Fatalf("bad data init: %+v", p.Data)
	}
	// Verify little-endian encoding of the second word.
	w := uint64(0)
	for j := 0; j < 8; j++ {
		w |= uint64(p.Data[0].Bytes[8+j]) << (8 * j)
	}
	if w != 0xdeadbeef {
		t.Fatalf("encoded word = %#x", w)
	}
}

func TestMoviGlobalSetsGlobalAddrFlag(t *testing.T) {
	b := NewBuilder()
	b.Global("g", 8)
	b.MoviGlobal(isa.R1, "g", 0)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Insts[0].GlobalAddr {
		t.Fatal("MoviGlobal must set GlobalAddr")
	}
	if uint64(p.Insts[0].Imm) != mem.GlobalBase {
		t.Fatalf("MoviGlobal imm = %#x", p.Insts[0].Imm)
	}
}

func TestPointerAnnotations(t *testing.T) {
	b := NewBuilder()
	b.LdP(isa.R1, Mem(isa.R2, 0, 8))
	b.Ld(isa.R3, Mem(isa.R2, 8, 8))
	b.LdU(isa.R4, Mem(isa.R2, 16, 8))
	b.StP(Mem(isa.R2, 0, 8), isa.R1)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[0].Ptr != isa.PtrYes || p.Insts[1].Ptr != isa.PtrNo || p.Insts[2].Ptr != isa.PtrUnknown {
		t.Fatal("pointer hints wrong")
	}
	if p.Insts[3].Ptr != isa.PtrYes || !p.Insts[3].Op.IsStore() {
		t.Fatal("StP wrong")
	}
}

func TestAllHelpersEmitNoRegDefaults(t *testing.T) {
	b := NewBuilder()
	b.Global("g", 8)
	b.Movi(isa.R1, 1)
	b.Mov(isa.R2, isa.R1)
	b.Add(isa.R3, isa.R1, isa.R2)
	b.Addi(isa.R3, isa.R3, 4)
	b.Lea(isa.R4, MemIdx(isa.R3, isa.R1, 8, 16, 8))
	b.Fmovi(isa.F0, 1.5)
	b.Fadd(isa.F1, isa.F0, isa.F0)
	b.Fld(isa.F2, Mem(isa.R3, 0, 8))
	b.Fst(Mem(isa.R3, 0, 8), isa.F2)
	b.Push(isa.R1)
	b.Pop(isa.R1)
	b.Call("f")
	b.Jmp("end")
	b.Label("f")
	b.Ret()
	b.Label("end")
	b.Setident(isa.R1, isa.R1, isa.R2, isa.R3)
	b.Getident(isa.R2, isa.R3, isa.R1)
	b.Setbound(isa.R1, isa.R1, isa.R2, isa.R3)
	b.Sys(isa.SysPutInt, isa.R1)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range p.Insts {
		// Movi (index 0) writes Dst only; ensure no helper leaves a
		// zero-valued register slot where the opcode does not use it.
		if in.Op == isa.OpMovi && in.Src1 != isa.NoReg {
			t.Fatalf("inst %d (%s): Src1 leaked as R0", i, in)
		}
		if in.Op == isa.OpJmp && (in.Src1 != isa.NoReg || in.Dst != isa.NoReg) {
			t.Fatalf("inst %d (%s): jump has register operands", i, in)
		}
	}
	// Crack every instruction to confirm the µop register sanity holds
	// end to end.
	for i := range p.Insts {
		uops := isa.Crack(&p.Insts[i], nil)
		if len(uops) == 0 {
			t.Fatalf("inst %d cracked to nothing", i)
		}
	}
}

// TestLabelsAtConcurrent: the pc index behind LabelsAt and Disasm is
// built on first use, so concurrent first callers must agree (and stay
// race-free under -race).
func TestLabelsAtConcurrent(t *testing.T) {
	build := func() *Program {
		b := NewBuilder()
		b.Label("_start")
		b.Label("entry")
		b.Call("fn")
		b.Halt()
		b.Label("fn")
		b.Ret()
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	want := build().Disasm(0, 0)
	p := build()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				if got := p.Disasm(0, 0); got != want {
					t.Errorf("Disasm = %q, want %q", got, want)
				}
				return
			}
			if got := p.LabelsAt(0); !slices.Equal(got, []string{"_start", "entry"}) {
				t.Errorf("LabelsAt(0) = %v", got)
			}
			if got := p.LabelsAt(2); !slices.Equal(got, []string{"fn"}) {
				t.Errorf("LabelsAt(2) = %v", got)
			}
		}(g)
	}
	wg.Wait()
}
