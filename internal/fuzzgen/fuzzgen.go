// Package fuzzgen generates random WD64 programs for differential
// testing of the Watchdog engine. Programs are memory-safe by
// construction (the generator tracks object ownership and aliasing at
// generation time), exercise the full pointer lifecycle — malloc,
// aliased pointers flowing through tables in memory, field reads and
// writes, frees that null every alias, helper calls with stack frames
// — and finish with a checksum.
//
// The differential property: a generated program's checksum must be
// identical under the baseline and every checking configuration, with
// zero violations. Bug injection flips that: the generator plants a
// single use-after-free (keeping one alias dangling) or an
// out-of-bounds read, and the checkers must catch it. security.Judge
// holds a generated program to both under every checking policy.
package fuzzgen

import (
	"fmt"
	"math/rand"

	"watchdog/internal/asm"
	"watchdog/internal/core"
	"watchdog/internal/isa"
	"watchdog/internal/rt"
)

// Bug selects an injected defect.
type Bug int

// The defect kinds the generator can plant.
const (
	BugNone Bug = iota
	// BugUAF keeps one alias of a freed object dangling and
	// dereferences it near the end of the program.
	BugUAF
	// BugOOB reads one word past the end of a live object.
	BugOOB
)

// String names the defect: safe, uaf or oob.
func (b Bug) String() string {
	switch b {
	case BugNone:
		return "safe"
	case BugUAF:
		return "uaf"
	case BugOOB:
		return "oob"
	}
	return fmt.Sprintf("bug%d", int(b))
}

// Options controls generation.
type Options struct {
	Seed int64
	Ops  int // operation count (default 150)
	Bug  Bug
	// Policy selects the runtime variant to build against.
	Policy core.Policy
	// Bounds must be set for BugOOB to be detectable.
	Bounds bool
}

// slot models the generator's view of one pointer-table entry.
type slot struct {
	live  bool
	group int // object id; aliases share a group
}

// object tracks a live allocation's size (in 8-byte words).
type object struct {
	words int64
	slots []int
}

const tableSlots = 12

// Generate builds a random program. It returns the program, the
// runtime end marker, and the instruction index of the injected bug's
// faulting access (-1 when Bug == BugNone).
func Generate(o Options) (*asm.Program, int, int, error) {
	if o.Ops == 0 {
		o.Ops = 150
	}
	r := rand.New(rand.NewSource(o.Seed))
	build := rt.NewBuild(rt.Options{Policy: o.Policy, Bounds: o.Bounds})
	b := build.B
	g := &gen{b: b, r: r, bugPC: -1}

	b.Label("main")
	// R4 = pointer table (heap), R6 = checksum.
	b.Movi(isa.R1, tableSlots*8)
	b.Call("calloc_words")
	b.Mov(isa.R4, isa.R1)
	b.Movi(isa.R6, 0)

	bugAt := -1
	if o.Bug != BugNone {
		// Plant the bug in the last quarter of the program.
		bugAt = o.Ops - 1 - r.Intn(o.Ops/4+1)
	}
	for i := 0; i < o.Ops; i++ {
		if i == bugAt {
			switch o.Bug {
			case BugUAF:
				g.opInjectUAF()
			case BugOOB:
				g.opInjectOOB()
			}
			continue
		}
		g.step()
	}
	// Free everything still live (exercises teardown), then emit the
	// checksum.
	for gi, obj := range g.objects {
		if obj != nil {
			g.emitFree(gi)
		}
	}
	b.Sys(isa.SysPutInt, isa.R6)
	b.Ret()
	g.emitHelper()

	prog, err := build.Finish()
	if err != nil {
		return nil, 0, 0, err
	}
	faultPC := -1
	if g.bugPC >= 0 {
		faultPC = g.bugPC
	}
	return prog, build.RuntimeEnd(), faultPC, nil
}

type gen struct {
	b       *asm.Builder
	r       *rand.Rand
	slots   [tableSlots]slot
	objects []*object // index = group id; nil after free
	uid     int
	helper  bool
	bugPC   int

	// danglingSlot holds a stale pointer after an injected UAF free.
	danglingSlot int

	// picks backs the slices liveSlots and emptySlots return.
	picks [tableSlots]int
}

func (g *gen) label(pfx string) string {
	g.uid++
	return fmt.Sprintf("fz.%s.%d", pfx, g.uid)
}

// liveSlots returns the indexes of live slots. The result shares
// g.picks, so it holds until the next liveSlots or emptySlots call.
func (g *gen) liveSlots() []int { return g.slotsWhere(true) }

// emptySlots returns the indexes of empty slots, as liveSlots does.
func (g *gen) emptySlots() []int { return g.slotsWhere(false) }

func (g *gen) slotsWhere(live bool) []int {
	n := 0
	for i, s := range g.slots {
		if s.live == live {
			g.picks[n] = i
			n++
		}
	}
	return g.picks[:n]
}

// step emits one random operation.
func (g *gen) step() {
	live := g.liveSlots()
	switch {
	case len(live) == 0:
		g.opAlloc()
	case len(live) == tableSlots:
		g.pickMutating()
	default:
		if g.r.Intn(3) == 0 {
			g.opAlloc()
		} else {
			g.pickMutating()
		}
	}
}

func (g *gen) pickMutating() {
	switch g.r.Intn(6) {
	case 0:
		g.opFree()
	case 1:
		g.opAlias()
	case 2, 3:
		g.opRead()
	case 4:
		g.opWrite()
	case 5:
		g.opHelperCall()
	}
}

// loadSlot emits dst <- table[s] (annotated pointer load).
func (g *gen) loadSlot(dst isa.Reg, s int) {
	g.b.LdP(dst, asm.Mem(isa.R4, int64(s)*8, 8))
}

// opAlloc allocates an object into an empty slot (or leaks an alias's
// slot by overwriting it).
func (g *gen) opAlloc() {
	empty := g.emptySlots()
	var s int
	if len(empty) > 0 {
		s = empty[g.r.Intn(len(empty))]
	} else {
		return
	}
	words := int64(2 + g.r.Intn(14)) // 16..120 bytes
	b := g.b
	b.Movi(isa.R1, words*8)
	b.Call("malloc")
	b.StP(asm.Mem(isa.R4, int64(s)*8, 8), isa.R1)
	// Initialize a couple of fields.
	b.Movi(isa.R2, int64(g.r.Intn(1000)))
	b.St(asm.Mem(isa.R1, 0, 8), isa.R2)
	b.St(asm.Mem(isa.R1, (words-1)*8, 8), isa.R2)
	g.objects = append(g.objects, &object{words: words, slots: []int{s}})
	g.slots[s] = slot{live: true, group: len(g.objects) - 1}
}

// opFree frees a random object and nulls every alias (so the program
// stays safe).
func (g *gen) opFree() {
	live := g.liveSlots()
	if len(live) == 0 {
		return
	}
	g.emitFree(g.slots[live[g.r.Intn(len(live))]].group)
}

func (g *gen) emitFree(group int) {
	obj := g.objects[group]
	if obj == nil {
		return
	}
	if len(obj.slots) == 0 {
		// Every alias was overwritten: the object leaked and is
		// unreachable (safe; real programs leak too).
		g.objects[group] = nil
		return
	}
	b := g.b
	g.loadSlot(isa.R1, obj.slots[0])
	b.Call("free")
	b.Movi(isa.R2, 0)
	for _, s := range obj.slots {
		b.St(asm.Mem(isa.R4, int64(s)*8, 8), isa.R2)
		g.slots[s] = slot{}
	}
	g.objects[group] = nil
}

// opAlias copies a live pointer into another slot.
func (g *gen) opAlias() {
	live := g.liveSlots()
	if len(live) == 0 {
		return
	}
	src := live[g.r.Intn(len(live))]
	dst := g.r.Intn(tableSlots)
	if dst == src {
		return
	}
	b := g.b
	// If dst currently holds the sole reference to another object, the
	// object leaks — which is safe. Remove dst from its old group.
	if g.slots[dst].live {
		oldGrp := g.slots[dst].group
		old := g.objects[oldGrp]
		for i, s := range old.slots {
			if s == dst {
				old.slots = append(old.slots[:i], old.slots[i+1:]...)
				break
			}
		}
		if len(old.slots) == 0 {
			g.objects[oldGrp] = nil // leaked
		}
	}
	g.loadSlot(isa.R8, src)
	b.StP(asm.Mem(isa.R4, int64(dst)*8, 8), isa.R8)
	grp := g.slots[src].group
	g.objects[grp].slots = append(g.objects[grp].slots, dst)
	g.slots[dst] = slot{live: true, group: grp}
}

// opRead loads a random in-bounds field into the checksum.
func (g *gen) opRead() {
	live := g.liveSlots()
	if len(live) == 0 {
		return
	}
	s := live[g.r.Intn(len(live))]
	obj := g.objects[g.slots[s].group]
	off := int64(g.r.Intn(int(obj.words))) * 8
	g.loadSlot(isa.R8, s)
	g.b.Ld(isa.R9, asm.Mem(isa.R8, off, 8))
	g.b.Add(isa.R6, isa.R6, isa.R9)
}

// opWrite stores a constant to a random in-bounds field.
func (g *gen) opWrite() {
	live := g.liveSlots()
	if len(live) == 0 {
		return
	}
	s := live[g.r.Intn(len(live))]
	obj := g.objects[g.slots[s].group]
	off := int64(g.r.Intn(int(obj.words))) * 8
	g.loadSlot(isa.R8, s)
	g.b.Movi(isa.R9, int64(g.r.Intn(500)))
	g.b.St(asm.Mem(isa.R8, off, 8), isa.R9)
}

// opHelperCall calls the stack-frame helper (exercises frame idents).
func (g *gen) opHelperCall() {
	g.helper = true
	g.b.Movi(isa.R1, int64(1+g.r.Intn(4)))
	g.b.Call("fz_helper")
	g.b.Add(isa.R6, isa.R6, isa.R1)
}

// opInjectUAF frees an object but leaves one alias dangling, then
// dereferences it.
func (g *gen) opInjectUAF() {
	live := g.liveSlots()
	if len(live) == 0 {
		g.opAlloc()
		live = g.liveSlots()
	}
	s := live[g.r.Intn(len(live))]
	grp := g.slots[s].group
	obj := g.objects[grp]
	b := g.b
	// Free through the first alias but keep slot s's copy in R14.
	g.loadSlot(isa.R14, s)
	g.loadSlot(isa.R1, obj.slots[0])
	b.Call("free")
	b.Movi(isa.R2, 0)
	for _, sl := range obj.slots {
		b.St(asm.Mem(isa.R4, int64(sl)*8, 8), isa.R2)
		g.slots[sl] = slot{}
	}
	g.objects[grp] = nil
	// Reallocate to make it the hard case.
	b.Movi(isa.R1, obj.words*8)
	b.Call("malloc")
	b.StP(asm.Mem(isa.R4, 0, 8), isa.R1)
	g.objects = append(g.objects, &object{words: obj.words, slots: []int{0}})
	if g.slots[0].live {
		// Slot 0 might have been live; it now aliases the new object.
		old := g.objects[g.slots[0].group]
		if old != nil {
			for i, sl := range old.slots {
				if sl == 0 {
					old.slots = append(old.slots[:i], old.slots[i+1:]...)
					break
				}
			}
		}
	}
	g.slots[0] = slot{live: true, group: len(g.objects) - 1}
	// The dangling dereference.
	g.bugPC = b.Len()
	b.Ld(isa.R9, asm.Mem(isa.R14, 0, 8))
	b.Add(isa.R6, isa.R6, isa.R9)
}

// opInjectOOB reads one word past the end of a live object (a read so
// the heap is not corrupted; UAF-only configurations complete).
func (g *gen) opInjectOOB() {
	live := g.liveSlots()
	if len(live) == 0 {
		g.opAlloc()
		live = g.liveSlots()
	}
	s := live[g.r.Intn(len(live))]
	obj := g.objects[g.slots[s].group]
	g.loadSlot(isa.R8, s)
	g.bugPC = g.b.Len()
	// One word past the *granted* size: malloc rounds requests up to
	// 16 bytes and the bounds cover the rounded allocation.
	granted := (obj.words*8 + 15) &^ 15
	g.b.Ld(isa.R9, asm.Mem(isa.R8, granted, 8))
	g.b.Add(isa.R6, isa.R6, isa.R9)
}

// emitHelper defines the recursive stack helper once.
func (g *gen) emitHelper() {
	b := g.b
	b.Label("fz_helper")
	done := "fz_helper.done"
	b.Brz(isa.R1, done)
	b.Subi(isa.SP, isa.SP, 16)
	b.St(asm.Mem(isa.SP, 0, 8), isa.R1)
	b.Subi(isa.R1, isa.R1, 1)
	b.Call("fz_helper")
	b.AddMem(isa.R1, isa.R1, asm.Mem(isa.SP, 0, 8))
	b.Addi(isa.SP, isa.SP, 16)
	b.Label(done)
	b.Ret()
}
