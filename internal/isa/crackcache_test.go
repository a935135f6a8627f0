package isa

import (
	"reflect"
	"testing"
)

// crackSpace enumerates one instruction per opcode in both the plain
// and memory-operand forms — the whole static input space of Crack as
// far as sequence shape is concerned.
func crackSpace() []Inst {
	var insts []Inst
	for op := OpInvalid; op < numOpcodes; op++ {
		insts = append(insts,
			Inst{Op: op, Dst: R1, Src1: R2, Src2: R3, Src3: R4,
				Mem: MemRef{Base: R5, Index: R6, Scale: 8, Width: 8}},
			Inst{Op: op, Dst: R1, Src1: R2, Src2: R3, Src3: R4, HasMem: true,
				Mem: MemRef{Base: R5, Index: R6, Scale: 8, Width: 8}})
	}
	return insts
}

// TestCrackMaxUops pins the MaxUopsPerInst bound machine step buffers
// are sized by: no opcode may crack into a longer base sequence.
func TestCrackMaxUops(t *testing.T) {
	for _, in := range crackSpace() {
		got := Crack(&in, nil)
		if len(got) == 0 {
			t.Errorf("%s (mem=%v): cracked to zero µops", in.Op.Name(), in.HasMem)
		}
		if len(got) > MaxUopsPerInst {
			t.Errorf("%s (mem=%v): cracked to %d µops, exceeding MaxUopsPerInst=%d",
				in.Op.Name(), in.HasMem, len(got), MaxUopsPerInst)
		}
	}
}

// TestCrackCacheMatchesCrack: the cache must serve exactly what a
// fresh Crack produces, for every pc, and repeated lookups must be
// stable (immutability of the backing store).
func TestCrackCacheMatchesCrack(t *testing.T) {
	prog := crackSpace()
	c := NewCrackCache(prog)
	for pc := range prog {
		want := Crack(&prog[pc], nil)
		got := c.Cached(pc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pc %d (%s): cached %v, want %v", pc, prog[pc].Op.Name(), got, want)
		}
	}
	// A caller-side append to a cached slice must not clobber the
	// neighbouring sequence (full-slice expression).
	first := c.Cached(0)
	_ = append(first, NewUop(UopNop, ExecNone))
	if want := Crack(&prog[1], nil); !reflect.DeepEqual(c.Cached(1), want) {
		t.Fatal("append through a cached slice clobbered the next sequence")
	}
}

// TestCrackCacheEmpty: a program with no instructions must not panic.
func TestCrackCacheEmpty(t *testing.T) {
	c := NewCrackCache(nil)
	if c == nil {
		t.Fatal("nil cache")
	}
}

// TestCrackCacheFromPrefix: a cache built from a prefix's cache serves
// exactly what cracking the whole program serves, at every pc, whether
// the prefix covers none, some or all of the program.
func TestCrackCacheFromPrefix(t *testing.T) {
	prog := crackSpace()
	want := NewCrackCache(prog)
	for _, n := range []int{0, 1, len(prog) / 2, len(prog)} {
		c := NewCrackCacheFrom(NewCrackCache(prog[:n]), prog)
		if c.Len() != len(prog) {
			t.Fatalf("prefix %d: Len = %d, want %d", n, c.Len(), len(prog))
		}
		for pc := range prog {
			if !reflect.DeepEqual(c.Cached(pc), want.Cached(pc)) {
				t.Fatalf("prefix %d, pc %d: cached %v, want %v", n, pc, c.Cached(pc), want.Cached(pc))
			}
		}
	}
}
