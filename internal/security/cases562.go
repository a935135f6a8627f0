package security

import (
	"strconv"

	"watchdog/internal/asm"
	"watchdog/internal/isa"
)

// CWE-562: return of stack variable address. A maker function
// publishes the address of a local; after it returns, its frame is
// dead and any dereference must fault — even if intervening calls have
// reused the same stack memory (the frame identifier, not the address,
// decides). 3 publication kinds x 3 dereference kinds x 11 flows = 99
// bad cases.

type pub562 struct {
	name string
	// emitMaker emits the maker function(s) under "mk562_<uid>". In
	// bad twins it publishes the ADDRESS of a local; in good twins it
	// publishes the local's VALUE.
	emitMaker func(b *asm.Builder, uid string, bad bool)
	// emitAcquire emits the body of the acquisition function: it calls
	// the maker and leaves the published pointer (bad) or value (good)
	// in R1. May allocate (clobbers R2, R3, R6, R8-R13).
	emitAcquire func(b *asm.Builder, uid string, bad bool)
}

type deref562 struct {
	name string
	emit func(b *asm.Builder, uid string) // dereference R4 (bad twins)
}

type flow562 struct {
	name string
	// makerDepth nests the publication under extra calls or recursion.
	makerDepth int
	// intervene calls a stack-reusing function between publication and
	// dereference.
	intervene bool
	// derefInHelper routes the dereference through a helper function.
	derefInHelper bool
	wrap          func(b *asm.Builder, uid string, body func())
	// republish copies the pointer through a second global first.
	republish bool
}

func pubs562() []pub562 {
	// The maker body: allocate a 16-byte frame, store 42 into the
	// local, then publish per kind. "publish" emits the pointer (bad)
	// or the value (good) from R2.
	makerBody := func(b *asm.Builder, bad bool, publish func()) {
		b.Subi(isa.SP, isa.SP, 16)
		b.Movi(isa.R2, 42)
		b.St(asm.Mem(isa.SP, 0, 8), isa.R2)
		b.St(asm.Mem(isa.SP, 8, 8), isa.R2)
		if bad {
			b.Lea(isa.R2, asm.Mem(isa.SP, 0, 8)) // &local
		} else {
			b.Ld(isa.R2, asm.Mem(isa.SP, 0, 8)) // local's value
		}
		publish()
		b.Addi(isa.SP, isa.SP, 16)
		b.Ret()
	}
	return []pub562{
		{
			name: "return-value",
			emitMaker: func(b *asm.Builder, uid string, bad bool) {
				b.Label("mk562_" + uid)
				makerBody(b, bad, func() { b.Mov(isa.R1, isa.R2) })
			},
			emitAcquire: func(b *asm.Builder, uid string, bad bool) {
				b.Call("mk562_" + uid) // result already in R1
			},
		},
		{
			name: "via-global",
			emitMaker: func(b *asm.Builder, uid string, bad bool) {
				b.Label("mk562_" + uid)
				makerBody(b, bad, func() {
					b.MoviGlobal(isa.R3, "sec_g", 0)
					if bad {
						b.StP(asm.Mem(isa.R3, 0, 8), isa.R2)
					} else {
						b.St(asm.Mem(isa.R3, 0, 8), isa.R2)
					}
				})
			},
			emitAcquire: func(b *asm.Builder, uid string, bad bool) {
				b.Call("mk562_" + uid)
				b.MoviGlobal(isa.R3, "sec_g", 0)
				if bad {
					b.LdP(isa.R1, asm.Mem(isa.R3, 0, 8))
				} else {
					b.Ld(isa.R1, asm.Mem(isa.R3, 0, 8))
				}
			},
		},
		{
			name: "via-heap-slot",
			emitMaker: func(b *asm.Builder, uid string, bad bool) {
				// slot address arrives in R1
				b.Label("mk562_" + uid)
				b.Mov(isa.R3, isa.R1)
				makerBody(b, bad, func() {
					if bad {
						b.StP(asm.Mem(isa.R3, 0, 8), isa.R2)
					} else {
						b.St(asm.Mem(isa.R3, 0, 8), isa.R2)
					}
				})
			},
			emitAcquire: func(b *asm.Builder, uid string, bad bool) {
				b.Movi(isa.R1, 8)
				b.Call("malloc")
				b.Mov(isa.R6, isa.R1)
				b.Call("mk562_" + uid) // slot rides in R1 from malloc
				if bad {
					b.LdP(isa.R1, asm.Mem(isa.R6, 0, 8))
				} else {
					b.Ld(isa.R1, asm.Mem(isa.R6, 0, 8))
				}
			},
		},
	}
}

func derefs562() []deref562 {
	return []deref562{
		{name: "read", emit: func(b *asm.Builder, uid string) {
			b.Ld(isa.R2, asm.Mem(isa.R4, 0, 8))
		}},
		{name: "write", emit: func(b *asm.Builder, uid string) {
			b.Movi(isa.R2, 13)
			b.St(asm.Mem(isa.R4, 0, 8), isa.R2)
		}},
		{name: "read-field", emit: func(b *asm.Builder, uid string) {
			b.Ld(isa.R2, asm.Mem(isa.R4, 8, 8))
		}},
	}
}

func flows562() []flow562 {
	inline := func(b *asm.Builder, uid string, body func()) { body() }
	ifTrue := func(b *asm.Builder, uid string, body func()) {
		skip := "f562skip_" + uid
		b.Movi(isa.R3, 1)
		b.Brz(isa.R3, skip)
		body()
		b.Label(skip)
	}
	ifGlobal := func(b *asm.Builder, uid string, body func()) {
		skip := "f562gskip_" + uid
		b.MoviGlobal(isa.R3, "sec_flag", 0)
		b.Ld(isa.R3, asm.Mem(isa.R3, 0, 8))
		b.Brz(isa.R3, skip)
		body()
		b.Label(skip)
	}
	condElse := func(b *asm.Builder, uid string, body func()) {
		// if (never) safe-path else deref
		els := "f562else_" + uid
		end := "f562end_" + uid
		b.MoviGlobal(isa.R3, "sec_zero", 0)
		b.Ld(isa.R3, asm.Mem(isa.R3, 0, 8))
		b.Brz(isa.R3, els)
		b.Movi(isa.R2, 0) // safe path
		b.Jmp(end)
		b.Label(els)
		body()
		b.Label(end)
	}
	loopN := func(n int64) func(b *asm.Builder, uid string, body func()) {
		return func(b *asm.Builder, uid string, body func()) {
			top := "f562loop_" + uid + "_" + strconv.FormatInt(n, 10)
			b.Movi(isa.R7, n)
			b.Label(top)
			body()
			b.Subi(isa.R7, isa.R7, 1)
			b.Brnz(isa.R7, top)
		}
	}
	return []flow562{
		{name: "straight", wrap: inline},
		{name: "if-true", wrap: ifTrue},
		{name: "if-global", wrap: ifGlobal},
		{name: "cond-else", wrap: condElse},
		{name: "loop-once", wrap: loopN(1)},
		{name: "loop-three", wrap: loopN(3)},
		{name: "nested-call", makerDepth: 1, wrap: inline},
		{name: "recursion-2", makerDepth: 2, wrap: inline},
		{name: "intervening-call", intervene: true, wrap: inline},
		{name: "deref-in-helper", derefInHelper: true, wrap: inline},
		{name: "republish", republish: true, wrap: inline},
	}
}

// append562 appends the CWE-562 cases to out.
func append562(out []Case) []Case {
	pubs, derefs, flows := pubs562(), derefs562(), flows562()
	flowIDs := make([]string, len(flows))
	for k, fl := range flows {
		flowIDs[k] = short(fl.name)
	}
	for i := range pubs {
		p := &pubs[i]
		for j := range derefs {
			d := &derefs[j]
			id := "c562_" + short(p.name) + "_" + short(d.name) + "_"
			for k := range flows {
				fl := &flows[k]
				variant := p.name + "/" + d.name + "/" + fl.name
				out = append(out,
					Case{ID: id + flowIDs[k] + "_bad", CWE: 562, Variant: variant, Bad: true,
						Build: build562(p, d, fl, true)},
					Case{ID: id + flowIDs[k] + "_good", CWE: 562, Variant: variant, Bad: false,
						Build: build562(p, d, fl, false)},
				)
			}
		}
	}
	return out
}

func build562(p *pub562, d *deref562, fl *flow562, bad bool) func(b *asm.Builder, uid string) {
	return func(b *asm.Builder, uid string) {
		b.GlobalWords("sec_flag", []uint64{1})
		b.GlobalWords("sec_zero", []uint64{0})
		b.Global("sec_g", 8)
		b.Global("sec_g2", 8)

		// Acquire the published pointer (or value, in good twins),
		// optionally through extra nesting frames.
		if fl.makerDepth > 0 {
			b.Call(nest562(uid, fl.makerDepth))
		} else {
			b.Call("acq562_" + uid)
		}
		b.Mov(isa.R4, isa.R1)

		if fl.intervene {
			b.Call("clob562_" + uid)
		}
		if fl.republish && bad {
			b.MoviGlobal(isa.R3, "sec_g2", 0)
			b.StP(asm.Mem(isa.R3, 0, 8), isa.R4)
			b.LdP(isa.R4, asm.Mem(isa.R3, 0, 8))
		}

		use := func() {
			if bad {
				if fl.derefInHelper {
					b.Mov(isa.R1, isa.R4)
					b.Call("dh562_" + uid)
				} else {
					d.emit(b, uid)
				}
			} else {
				// Good twin: consume the value, no dereference.
				b.Addi(isa.R2, isa.R4, 1)
			}
		}
		fl.wrap(b, uid, use)
		b.Ret()

		// --- helper functions ---
		b.Label("acq562_" + uid)
		p.emitAcquire(b, uid, bad)
		b.Ret()
		p.emitMaker(b, uid, bad)
		if fl.makerDepth > 0 {
			emitNestWrappers(b, uid, fl.makerDepth)
		}
		if fl.intervene {
			b.Label("clob562_" + uid)
			b.Subi(isa.SP, isa.SP, 64)
			b.Movi(isa.R2, 0x5a5a)
			for off := int64(0); off < 64; off += 8 {
				b.St(asm.Mem(isa.SP, off, 8), isa.R2)
			}
			b.Addi(isa.SP, isa.SP, 64)
			b.Ret()
		}
		if fl.derefInHelper && bad {
			b.Label("dh562_" + uid)
			b.Mov(isa.R4, isa.R1)
			d.emit(b, uid+"h")
			b.Ret()
		}
	}
}

// emitNestWrappers emits the chain nest562_<uid>_<depth> -> ... ->
// nest562_<uid>_1 -> acq562_<uid>: the publication happens deeper in
// the call tree and the pointer travels up through returns.
func emitNestWrappers(b *asm.Builder, uid string, depth int) {
	for lv := depth; lv >= 1; lv-- {
		b.Label(nest562(uid, lv))
		if lv == 1 {
			b.Call("acq562_" + uid)
		} else {
			b.Call(nest562(uid, lv-1))
		}
		b.Ret()
	}
}

// nest562 names the nesting wrapper of the given level.
func nest562(uid string, level int) string {
	return "nest562_" + uid + "_" + strconv.Itoa(level)
}
