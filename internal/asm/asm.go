// Package asm is the WD64 assembler: a builder API that the runtime
// library, the workloads, and the security suite use to construct
// programs, with symbolic labels for control flow and named globals in
// the data segment.
package asm

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"

	"watchdog/internal/isa"
	"watchdog/internal/mem"
)

// DataInit is a loader directive: copy Bytes to Addr before execution.
type DataInit struct {
	Addr  uint64
	Bytes []byte
}

// Program is an assembled WD64 program ready for loading.
type Program struct {
	Insts []isa.Inst
	Entry int // instruction index of the entry label ("_start" if present, else 0)
	Data  []DataInit
	// GlobalEnd is the high-water mark of the data segment.
	GlobalEnd uint64
	// Symbols maps label names to instruction indexes.
	Symbols map[string]int
	// Globals maps global names to their data-segment addresses.
	Globals map[string]uint64

	// uops holds the µops of the Prefix the program was built from
	// (nil when there was none).
	uops *isa.CrackCache

	// labelsAt indexes Symbols by pc, built when first asked for.
	labelsOnce sync.Once
	labelsAt   map[int][]string
}

// Builder incrementally assembles a program. Errors (duplicate or
// undefined labels, data-segment overflow) are sticky and reported by
// Build.
type Builder struct {
	insts   []isa.Inst
	labels  map[string]int
	fixups  []fixup
	globals map[string]uint64
	dataCur uint64
	data    []DataInit
	err     error
	uops    *isa.CrackCache // the µops of the Prefix this builder started from
}

// A Prefix is the frozen start of a program: what a builder had
// emitted when Freeze was called, with its instructions cracked.
// Builders started from it share it read-only, so a start common to
// many programs (the runtime library) is assembled and cracked once.
type Prefix struct {
	b Builder
}

type fixup struct {
	inst  int
	label string
	// code resolves the label to its code-segment address (for
	// function pointers) instead of an instruction index.
	code bool
}

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder {
	return &Builder{
		labels:  make(map[string]int),
		globals: make(map[string]uint64),
		dataCur: mem.GlobalBase,
	}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("asm: "+format, args...)
	}
}

// Label defines a label at the next instruction.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.fail("duplicate label %q", name)
		return
	}
	b.labels[name] = len(b.insts)
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.insts) }

// emit appends an instruction and returns its index. All instructions
// must be constructed with inst()/memInst() (or otherwise have every
// unused register field set to NoReg) so that unset fields never alias
// R0.
//
// It stays out of line. Inlined, its append and growth path were
// copied into each of the ~1,200 emitter call sites across the
// workloads, the runtime library and the security suite; out of line,
// each site builds its isa.Inst and makes one call, which cut
// internal/workload from 492 to 69 KB of machine code.
//
//go:noinline
func (b *Builder) emit(in isa.Inst) int {
	b.insts = append(b.insts, in)
	return len(b.insts) - 1
}

func (b *Builder) emitLabelRef(in isa.Inst, label string) {
	in.Label = label
	idx := b.emit(in)
	b.fixups = append(b.fixups, fixup{inst: idx, label: label})
}

// MoviLabel emits dst <- the code-segment address of label (the
// function-pointer idiom for indirect calls and jump tables). The
// label may be defined later.
func (b *Builder) MoviLabel(dst isa.Reg, label string) {
	in := isa.Inst{Op: isa.OpMovi, Dst: dst,
		Src1: isa.NoReg, Src2: isa.NoReg, Src3: isa.NoReg,
		Mem: isa.MemRef{Base: isa.NoReg, Index: isa.NoReg}, Label: label}
	idx := b.emit(in)
	b.fixups = append(b.fixups, fixup{inst: idx, label: label, code: true})
}

// Global reserves size bytes (8-byte aligned) in the data segment and
// returns the address. Redefining a name is an error.
func (b *Builder) Global(name string, size uint64) uint64 {
	if _, dup := b.globals[name]; dup {
		b.fail("duplicate global %q", name)
		return 0
	}
	addr := b.dataCur
	b.globals[name] = addr
	b.dataCur += (size + 7) &^ 7
	if b.dataCur >= mem.GlobalBase+mem.GlobalMax {
		b.fail("data segment overflow at global %q", name)
	}
	return addr
}

// GlobalWords reserves and initializes a global of 8-byte words.
func (b *Builder) GlobalWords(name string, words []uint64) uint64 {
	addr := b.Global(name, uint64(len(words))*8)
	buf := make([]byte, len(words)*8)
	for i, w := range words {
		for j := 0; j < 8; j++ {
			buf[i*8+j] = byte(w >> (8 * j))
		}
	}
	b.data = append(b.data, DataInit{Addr: addr, Bytes: buf})
	return addr
}

// GlobalAddrOf returns the address of a previously defined global.
func (b *Builder) GlobalAddrOf(name string) uint64 {
	addr, ok := b.globals[name]
	if !ok {
		b.fail("undefined global %q", name)
	}
	return addr
}

// resolve patches every fixup whose label is defined and returns the
// others.
func (b *Builder) resolve() []fixup {
	var pending []fixup
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		switch {
		case !ok:
			pending = append(pending, f)
		case f.code:
			b.insts[f.inst].Imm = int64(mem.CodeAddr(target))
		default:
			b.insts[f.inst].Imm = int64(target)
		}
	}
	return pending
}

// Build resolves labels and returns the program, which takes over the
// builder's instructions, labels and globals: the builder must not be
// used afterwards.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if pending := b.resolve(); len(pending) > 0 {
		return nil, fmt.Errorf("asm: undefined label %q", pending[0].label)
	}
	entry := 0
	if e, ok := b.labels["_start"]; ok {
		entry = e
	}
	return &Program{
		Insts:     b.insts,
		Entry:     entry,
		Data:      b.data,
		GlobalEnd: b.dataCur,
		Symbols:   b.labels,
		Globals:   b.globals,
		uops:      b.uops,
	}, nil
}

// Freeze returns what the builder has emitted as a Prefix, resolving
// the references to labels defined so far and leaving the others to
// the programs built from it. The builder must not be used afterwards.
func (b *Builder) Freeze() (*Prefix, error) {
	if b.err != nil {
		return nil, b.err
	}
	b.fixups = b.resolve()
	b.uops = isa.NewCrackCacheFrom(b.uops, b.insts)
	return &Prefix{b: *b}, nil
}

// Len returns the number of instructions in the prefix.
func (p *Prefix) Len() int { return len(p.b.insts) }

// NewBuilder returns a builder holding the prefix, positioned after
// it. Its instructions and maps are its own, since Build patches
// fixups in place and the workload adds labels and globals; appends
// to the pending fixups and the data directives copy them, and the
// elements stay shared, read-only.
func (p *Prefix) NewBuilder() *Builder {
	b := p.b
	b.insts = append(make([]isa.Inst, 0, 2*len(b.insts)), b.insts...)
	b.labels = maps.Clone(b.labels)
	b.globals = maps.Clone(b.globals)
	b.fixups = b.fixups[:len(b.fixups):len(b.fixups)]
	b.data = b.data[:len(b.data):len(b.data)]
	return &b
}

// CrackCache returns a new µop cache of the program's instructions. A
// program built from a Prefix copies the prefix's µops and cracks only
// its own instructions.
func (p *Program) CrackCache() *isa.CrackCache { return isa.NewCrackCacheFrom(p.uops, p.Insts) }

// LabelsAt returns the labels defined at instruction index pc. The
// first call indexes Symbols by pc; calls may be concurrent.
func (p *Program) LabelsAt(pc int) []string {
	p.labelsOnce.Do(func() {
		p.labelsAt = make(map[int][]string)
		for name, pc := range p.Symbols {
			p.labelsAt[pc] = append(p.labelsAt[pc], name)
		}
		for _, names := range p.labelsAt {
			sort.Strings(names)
		}
	})
	return p.labelsAt[pc]
}

// Disasm renders a listing of the program with labels.
func (p *Program) Disasm(from, to int) string {
	if to <= 0 || to > len(p.Insts) {
		to = len(p.Insts)
	}
	if from < 0 {
		from = 0
	}
	var sb strings.Builder
	for pc := from; pc < to; pc++ {
		for _, l := range p.LabelsAt(pc) {
			fmt.Fprintf(&sb, "%s:\n", l)
		}
		fmt.Fprintf(&sb, "%6d  %s\n", pc, p.Insts[pc].String())
	}
	return sb.String()
}
