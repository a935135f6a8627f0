package security

import (
	"watchdog/internal/asm"
	"watchdog/internal/isa"
)

// CWE-416: use after free on the heap. Cases combine a dereference
// kind, an allocation context after the free (including reallocation
// of the freed block), and a Juliet-style control-flow variant.
// 6 dereference kinds x 4 contexts x 8 flows = 192 bad cases.

type deref416 struct {
	name string
	// emit dereferences the pointer in R4 (scratch: R2, R3, R8).
	emit func(b *asm.Builder, uid string)
	// helper emits any function the deref needs (after main's ret).
	helper func(b *asm.Builder, uid string)
}

type ctx416 struct {
	name string
	// emit runs after free(p): intervening allocations (results in R5).
	emit func(b *asm.Builder)
}

type flow416 struct {
	name string
	// freeViaHelper routes free(p) through a helper function.
	freeViaHelper bool
	// wrap emits control flow around the dereference block.
	wrap func(b *asm.Builder, uid string, body func())
	// helper emits flow-owned helper functions.
	helper func(b *asm.Builder, uid string)
}

func derefs416() []deref416 {
	ld := func(off int64) func(b *asm.Builder, uid string) {
		return func(b *asm.Builder, uid string) {
			b.Ld(isa.R2, asm.Mem(isa.R4, off, 8))
		}
	}
	st := func(off int64) func(b *asm.Builder, uid string) {
		return func(b *asm.Builder, uid string) {
			b.Movi(isa.R2, 9)
			b.St(asm.Mem(isa.R4, off, 8), isa.R2)
		}
	}
	return []deref416{
		{name: "read", emit: ld(0)},
		{name: "write", emit: st(0)},
		{name: "read-field", emit: ld(16)},
		{name: "write-field", emit: st(16)},
		{name: "read-loop", emit: func(b *asm.Builder, uid string) {
			top := "d416loop_" + uid
			b.Movi(isa.R8, 2)
			b.Label(top)
			b.Ld(isa.R2, asm.Mem(isa.R4, 0, 8))
			b.Subi(isa.R8, isa.R8, 1)
			b.Brnz(isa.R8, top)
		}},
		{name: "read-call", emit: func(b *asm.Builder, uid string) {
			b.Mov(isa.R1, isa.R4)
			b.Call("d416fn_" + uid)
		}, helper: func(b *asm.Builder, uid string) {
			b.Label("d416fn_" + uid)
			b.Ld(isa.R2, asm.Mem(isa.R1, 0, 8))
			b.Ret()
		}},
	}
}

func ctxs416() []ctx416 {
	mallocR5 := func(size int64) func(b *asm.Builder) {
		return func(b *asm.Builder) {
			b.Movi(isa.R1, size)
			b.Call("malloc")
			b.Mov(isa.R5, isa.R1)
			b.Movi(isa.R2, 1)
			b.St(asm.Mem(isa.R5, 0, 8), isa.R2) // the new owner writes
		}
	}
	return []ctx416{
		{name: "no-realloc", emit: func(b *asm.Builder) {}},
		{name: "realloc-same-size", emit: mallocR5(48)},
		{name: "realloc-diff-size", emit: mallocR5(96)},
		{name: "realloc-twice", emit: func(b *asm.Builder) {
			mallocR5(48)(b)
			mallocR5(32)(b)
		}},
	}
}

func flows416() []flow416 {
	inline := func(b *asm.Builder, uid string, body func()) { body() }
	ifTrue := func(b *asm.Builder, uid string, body func()) {
		skip := "f416skip_" + uid
		b.Movi(isa.R3, 1)
		b.Brz(isa.R3, skip)
		body()
		b.Label(skip)
	}
	ifGlobal := func(b *asm.Builder, uid string, body func()) {
		skip := "f416gskip_" + uid
		b.MoviGlobal(isa.R3, "sec_flag", 0)
		b.Ld(isa.R3, asm.Mem(isa.R3, 0, 8))
		b.Brz(isa.R3, skip)
		body()
		b.Label(skip)
	}
	loopOnce := func(b *asm.Builder, uid string, body func()) {
		top := "f416loop_" + uid
		b.Movi(isa.R7, 1)
		b.Label(top)
		body()
		b.Subi(isa.R7, isa.R7, 1)
		b.Brnz(isa.R7, top)
	}
	doubleIf := func(b *asm.Builder, uid string, body func()) {
		ifTrue(b, uid+"a", func() { ifGlobal(b, uid+"b", body) })
	}
	derefHelperWrap := func(b *asm.Builder, uid string, body func()) {
		b.Call("f416dh_" + uid)
	}
	return []flow416{
		{name: "straight", wrap: inline},
		{name: "if-true", wrap: ifTrue},
		{name: "if-global", wrap: ifGlobal},
		{name: "loop-once", wrap: loopOnce},
		{name: "double-if", wrap: doubleIf},
		{name: "free-in-helper", freeViaHelper: true, wrap: inline},
		{name: "deref-in-helper", wrap: derefHelperWrap},
		{name: "free-and-deref-in-helpers", freeViaHelper: true, wrap: derefHelperWrap},
	}
}

// usesDerefHelperFn reports whether the flow routes the deref block
// into a generated function.
func (f *flow416) usesDerefHelperFn() bool {
	return f.name == "deref-in-helper" || f.name == "free-and-deref-in-helpers"
}

// append416 appends the CWE-416 cases to out.
func append416(out []Case) []Case {
	derefs, ctxs, flows := derefs416(), ctxs416(), flows416()
	flowIDs := make([]string, len(flows))
	for k, fl := range flows {
		flowIDs[k] = short(fl.name)
	}
	for i := range derefs {
		d := &derefs[i]
		for j := range ctxs {
			cx := &ctxs[j]
			id := "c416_" + short(d.name) + "_" + short(cx.name) + "_"
			for k := range flows {
				fl := &flows[k]
				variant := d.name + "/" + cx.name + "/" + fl.name
				out = append(out,
					Case{ID: id + flowIDs[k] + "_bad", CWE: 416, Variant: variant, Bad: true,
						Build: build416(d, cx, fl, true)},
					Case{ID: id + flowIDs[k] + "_good", CWE: 416, Variant: variant, Bad: false,
						Build: build416(d, cx, fl, false)},
				)
			}
		}
	}
	return out
}

func build416(d *deref416, cx *ctx416, fl *flow416, bad bool) func(b *asm.Builder, uid string) {
	return func(b *asm.Builder, uid string) {
		b.GlobalWords("sec_flag", []uint64{1})

		// p = malloc(48); legitimate initialization.
		b.Movi(isa.R1, 48)
		b.Call("malloc")
		b.Mov(isa.R4, isa.R1)
		b.Movi(isa.R2, 7)
		b.St(asm.Mem(isa.R4, 0, 8), isa.R2)
		b.St(asm.Mem(isa.R4, 16, 8), isa.R2)

		derefBlock := func() { d.emit(b, uid) }

		if !bad {
			// Good twin: use while alive, then free; never touch after.
			fl.wrap(b, uid, derefBlock)
			emitFree416(b, fl, uid)
			cx.emit(b)
			b.Ret()
		} else {
			emitFree416(b, fl, uid)
			cx.emit(b)
			fl.wrap(b, uid, derefBlock) // use after free
			b.Ret()
		}

		// Helper functions, after main's body.
		if fl.freeViaHelper {
			b.Label("f416free_" + uid)
			b.Call("free") // pointer already in R1
			b.Ret()
		}
		if fl.usesDerefHelperFn() {
			b.Label("f416dh_" + uid)
			derefBlock()
			b.Ret()
		}
		if d.helper != nil {
			d.helper(b, uid)
		}
	}
}

func emitFree416(b *asm.Builder, fl *flow416, uid string) {
	b.Mov(isa.R1, isa.R4)
	if fl.freeViaHelper {
		b.Call("f416free_" + uid)
		return
	}
	b.Call("free")
}

// short abbreviates a variant name for case IDs.
func short(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '-' && s[i] != '/' {
			out = append(out, s[i])
		}
	}
	if len(out) > 10 {
		out = out[:10]
	}
	return string(out)
}
