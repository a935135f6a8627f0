// Package rt is the simulated C runtime: program startup and a
// first-fit free-list memory allocator written in WD64 assembly, in
// the role of the paper's modified DL-malloc. The Watchdog variant
// performs the identifier protocol of Figure 3a/3b — allocate a unique
// 64-bit key and a lock location (LIFO free list), write the key into
// the lock location, convey the identifier to the hardware with
// setident (and bounds with setbound), and on free check the
// identifier (catching double/invalid frees), write INVALID to the
// lock location and recycle it. The location-policy variant instead
// reports allocation-state changes; the baseline variant does neither.
//
// Register conventions:
//
//	malloc: size in R1 -> pointer in R1; clobbers R2,R3,R8-R13
//	free:   pointer in R1;               clobbers R2,R3,R8-R13
//	rand:   result in R1;                clobbers R12,R13
//	calloc_words: like malloc, zeroed;   clobbers R2,R3,R8-R13
//
// Workloads keep long-lived state in R4-R7, the FP file, and memory.
package rt

import (
	"fmt"
	"sync"

	"watchdog/internal/asm"
	"watchdog/internal/core"
	"watchdog/internal/isa"
	"watchdog/internal/mem"
)

// Options selects the runtime variant.
type Options struct {
	Policy core.Policy
	// Bounds makes malloc convey object bounds via setbound
	// (required for the Section 8 bounds-checking modes).
	Bounds bool
	// MT builds the thread-safe runtime for the multi-context machine:
	// malloc/free serialize on an xchg spinlock, and heap identifier
	// keys come from per-thread counters over partitioned key spaces
	// (the Section 7 multithreading requirement #1).
	MT bool
}

// For returns the single-threaded runtime variant an engine
// configuration runs on: its policy's runtime, conveying bounds when a
// bounds-checking mode is on.
func For(cfg core.Config) Options {
	return Options{Policy: cfg.Policy, Bounds: cfg.Bounds != core.BoundsOff}
}

// Build is a program under construction: the runtime prelude is
// already emitted; the workload appends a "main" function.
type Build struct {
	B          *asm.Builder
	opts       Options
	runtimeEnd int
}

// NewBuild returns a builder holding the runtime, positioned for
// workload code. The program entry is _start, which initializes the
// runtime, calls main, and exits. The runtime is assembled and cracked
// once per Options value in a process, and shared (see prelude).
func NewBuild(opts Options) *Build {
	p := prelude(opts)
	return &Build{B: p.NewBuilder(), opts: opts, runtimeEnd: p.Len()}
}

// preludes holds the frozen runtime of each Options value built so
// far. Options is small and comparable and Policy a uint8, so the set
// is bounded. A prelude is assembled on first use, never at package
// init, so a process pays only for the variants it builds.
var preludes struct {
	sync.Mutex
	m map[Options]*asm.Prefix
}

func prelude(opts Options) *asm.Prefix {
	preludes.Lock()
	defer preludes.Unlock()
	p, ok := preludes.m[opts]
	if !ok {
		var err error
		if p, err = emit(opts).B.Freeze(); err != nil {
			panic(err) // the runtime is fixed code: only a bug fails to assemble
		}
		if preludes.m == nil {
			preludes.m = make(map[Options]*asm.Prefix)
		}
		preludes.m[opts] = p
	}
	return p
}

// emit emits the runtime into a new builder.
func emit(opts Options) *Build {
	b := asm.NewBuilder()
	r := &Build{B: b, opts: opts}
	r.emitGlobals()
	r.emitStart()
	r.emitInit()
	r.emitMalloc()
	r.emitFree()
	r.emitCalloc()
	r.emitRand()
	r.runtimeEnd = b.Len()
	return r
}

// RuntimeEnd returns the instruction index where workload code begins
// (everything below is runtime-library code, exempt from checking
// under the policies that exempt the runtime).
func (r *Build) RuntimeEnd() int { return r.runtimeEnd }

// Finish assembles the program.
func (r *Build) Finish() (*asm.Program, error) { return r.B.Build() }

func (r *Build) emitGlobals() {
	b := r.B
	b.GlobalWords("__rt_arena", []uint64{0})
	b.GlobalWords("__rt_lockarena", []uint64{0})
	b.GlobalWords("__rt_brk", []uint64{16}) // heap offset 0 is reserved (0 = list sentinel)
	b.GlobalWords("__rt_freelist", []uint64{0})
	b.GlobalWords("__rt_nextkey", []uint64{core.HeapKeyBase})
	b.GlobalWords("__rt_lockbrk", []uint64{core.HeapLockBase - mem.LockBase})
	b.GlobalWords("__rt_lockfree", []uint64{0})
	b.GlobalWords("__rt_seed", []uint64{0x9E3779B97F4A7C15})
	if r.opts.MT {
		b.GlobalWords("__rt_mlock", []uint64{0})
		b.GlobalWords("__rt_ready", []uint64{0})
		// Per-thread heap key counters: thread t allocates keys from
		// HeapKeyBase | t<<40, so keys stay globally unique without
		// cross-thread synchronization.
		keys := make([]uint64, 8)
		for t := range keys {
			keys[t] = core.HeapKeyBase | uint64(t)<<40
		}
		b.GlobalWords("__rt_nextkeys", keys)
	}
}

func (r *Build) emitStart() {
	b := r.B
	b.Label("_start")
	b.Call("__rt_init")
	b.Call("main")
	b.Movi(isa.R1, 0)
	b.Sys(isa.SysExit, isa.R1)
	b.Halt()
}

// emitLock emits the malloc spinlock acquire (MT runtime only;
// clobbers R13). Each macro instruction is atomic on the multi-context
// machine, so xchg is sufficient.
func (r *Build) emitLock() {
	if !r.opts.MT {
		return
	}
	b := r.B
	spin := fmt.Sprintf("mlk.acq.%d", b.Len())
	b.Label(spin)
	b.Movi(isa.R13, 1)
	b.MoviGlobal(isa.R12, "__rt_mlock", 0)
	b.Xchg(isa.R13, asm.Mem(isa.R12, 0, 8))
	b.Brnz(isa.R13, spin)
}

// emitUnlock releases the malloc spinlock.
func (r *Build) emitUnlock() {
	if !r.opts.MT {
		return
	}
	b := r.B
	b.MoviGlobal(isa.R12, "__rt_mlock", 0)
	b.Movi(isa.R13, 0)
	b.St(asm.Mem(isa.R12, 0, 8), isa.R13)
}

// EmitMTStart emits the per-context entry trampolines for an n-thread
// program: context 0 initializes the runtime and releases the others,
// which spin on the ready flag; every context then calls its
// "thread<tid>" function and halts. Call before Finish; the thread
// functions may be defined later.
func (r *Build) EmitMTStart(n int) {
	b := r.B
	// The single-threaded _start references "main"; multi-threaded
	// programs enter via the per-context trampolines instead, so a
	// stub satisfies the reference.
	b.Label("main")
	b.Ret()
	for tid := 0; tid < n; tid++ {
		b.Label(fmt.Sprintf("__mt_start%d", tid))
		if tid == 0 {
			b.Call("__rt_init")
			b.MoviGlobal(isa.R2, "__rt_ready", 0)
			b.Movi(isa.R3, 1)
			b.St(asm.Mem(isa.R2, 0, 8), isa.R3)
		} else {
			wait := fmt.Sprintf("__mt_wait%d", tid)
			b.Label(wait)
			b.MoviGlobal(isa.R2, "__rt_ready", 0)
			b.Ld(isa.R3, asm.Mem(isa.R2, 0, 8))
			b.Brz(isa.R3, wait)
		}
		b.Call(fmt.Sprintf("thread%d", tid))
		b.Halt()
	}
}

// emitInit crafts the arena pointers: wide-bounds pointers (global
// identifier) through which the allocator accesses heap headers and
// lock locations. Values are rebased from a global address via lea so
// the pointers carry valid provenance.
func (r *Build) emitInit() {
	b := r.B
	b.Label("__rt_init")

	craft := func(slot string, base, limit uint64) {
		anchor := b.GlobalAddrOf("__rt_arena")
		b.MoviGlobal(isa.R2, "__rt_arena", 0)
		b.Lea(isa.R2, asm.Mem(isa.R2, int64(base-anchor), 8))
		b.Movi(isa.R3, int64(base))
		b.Movi(isa.R8, int64(limit))
		b.Setbound(isa.R2, isa.R2, isa.R3, isa.R8)
		b.MoviGlobal(isa.R1, slot, 0)
		b.StP(asm.Mem(isa.R1, 0, 8), isa.R2)
	}
	craft("__rt_arena", mem.HeapBase, mem.HeapBase+mem.HeapMax)
	craft("__rt_lockarena", mem.LockBase, mem.LockBase+mem.LockMax)
	b.Ret()
}

// loadArena emits: dst <- the named arena pointer (annotated load).
func (r *Build) loadArena(dst isa.Reg, slot string) {
	b := r.B
	b.MoviGlobal(dst, slot, 0)
	b.LdP(dst, asm.Mem(dst, 0, 8))
}

// emitMalloc emits the allocator. Size in R1, result in R1.
func (r *Build) emitMalloc() {
	b := r.B
	b.Label("malloc")
	// Round the size up to 16 and force a minimum of 16.
	b.Addi(isa.R2, isa.R1, 15)
	b.Andi(isa.R2, isa.R2, ^int64(15))
	b.Brnz(isa.R2, "malloc.szok")
	b.Movi(isa.R2, 16)
	b.Label("malloc.szok")
	r.emitLock()

	r.loadArena(isa.R10, "__rt_arena")

	// First-fit search of the free list (offsets from HeapBase; 0 is
	// the empty sentinel).
	b.MoviGlobal(isa.R11, "__rt_freelist", 0)
	b.Ld(isa.R3, asm.Mem(isa.R11, 0, 8))
	b.Movi(isa.R12, 0) // predecessor offset (0 = head)
	b.Label("malloc.search")
	b.Brz(isa.R3, "malloc.bump")
	b.Ld(isa.R8, asm.MemIdx(isa.R10, isa.R3, 1, 0, 8)) // block size
	b.Br(isa.CondAE, isa.R8, isa.R2, "malloc.found")
	b.Mov(isa.R12, isa.R3)
	b.Ld(isa.R3, asm.MemIdx(isa.R10, isa.R3, 1, 8, 8)) // next offset
	b.Jmp("malloc.search")

	b.Label("malloc.found")
	// Unlink the block.
	b.Ld(isa.R9, asm.MemIdx(isa.R10, isa.R3, 1, 8, 8)) // successor
	b.Brz(isa.R12, "malloc.unlinkhead")
	b.St(asm.MemIdx(isa.R10, isa.R12, 1, 8, 8), isa.R9)
	b.Jmp("malloc.linked")
	b.Label("malloc.unlinkhead")
	b.St(asm.Mem(isa.R11, 0, 8), isa.R9)
	b.Label("malloc.linked")

	// Split when the remainder can hold a header plus a minimum block.
	b.Sub(isa.R9, isa.R8, isa.R2)
	b.Movi(isa.R13, 48)
	b.Br(isa.CondB, isa.R9, isa.R13, "malloc.nosplit")
	b.Add(isa.R13, isa.R3, isa.R2)
	b.Addi(isa.R13, isa.R13, 16) // remainder offset
	b.Subi(isa.R9, isa.R9, 16)   // remainder size
	b.St(asm.MemIdx(isa.R10, isa.R13, 1, 0, 8), isa.R9)
	b.Ld(isa.R9, asm.Mem(isa.R11, 0, 8)) // old head
	b.St(asm.MemIdx(isa.R10, isa.R13, 1, 8, 8), isa.R9)
	b.St(asm.Mem(isa.R11, 0, 8), isa.R13)
	b.Mov(isa.R8, isa.R2)
	b.Label("malloc.nosplit")
	// Mark allocated: header.size = size | 1.
	b.Ori(isa.R9, isa.R8, 1)
	b.St(asm.MemIdx(isa.R10, isa.R3, 1, 0, 8), isa.R9)
	b.Jmp("malloc.got")

	// Bump allocation from the wilderness.
	b.Label("malloc.bump")
	b.MoviGlobal(isa.R12, "__rt_brk", 0)
	b.Ld(isa.R3, asm.Mem(isa.R12, 0, 8))
	b.Add(isa.R9, isa.R3, isa.R2)
	b.Addi(isa.R9, isa.R9, 16)
	b.Movi(isa.R13, int64(mem.HeapMax))
	b.Br(isa.CondA, isa.R9, isa.R13, "malloc.oom")
	b.St(asm.Mem(isa.R12, 0, 8), isa.R9)
	b.Ori(isa.R9, isa.R2, 1)
	b.St(asm.MemIdx(isa.R10, isa.R3, 1, 0, 8), isa.R9)

	b.Label("malloc.got")
	// p = arena + off + 16 (inherits the arena's provenance until the
	// fresh identifier overrides it).
	b.Lea(isa.R1, asm.MemIdx(isa.R10, isa.R3, 1, 16, 8))

	// The xtag and dangkiller comparators run the same Figure 3a/3b
	// protocol as Watchdog: xtag's pointer tag and dangkiller's
	// implicit key are both modeled as views of the allocation key.
	if r.opts.Policy.Idents() {
		r.emitMallocIdent()
	}
	if r.opts.Policy.AllocHooks() {
		b.Sys(isa.SysMarkAlloc, isa.R1) // R1 = ptr (with its identifier), R2 = rounded size
	}
	r.emitUnlock()
	b.Ret()

	b.Label("malloc.oom")
	b.Movi(isa.R1, 3)
	b.Sys(isa.SysAbort, isa.R1)
}

// emitMallocIdent is the Figure 3a protocol: unique key, lock location
// from a LIFO free list, key written to the lock location, setident
// (and setbound when configured).
func (r *Build) emitMallocIdent() {
	b := r.B
	if r.opts.MT {
		// key = nextkeys[tid]++ (partitioned per-thread key spaces)
		b.Sys(isa.SysTid, isa.R13) // tid -> R13
		b.MoviGlobal(isa.R12, "__rt_nextkeys", 0)
		b.Ld(isa.R9, asm.MemIdx(isa.R12, isa.R13, 8, 0, 8))
		b.Addi(isa.R8, isa.R9, 1)
		b.St(asm.MemIdx(isa.R12, isa.R13, 8, 0, 8), isa.R8)
	} else {
		// key = *nextkey++
		b.MoviGlobal(isa.R12, "__rt_nextkey", 0)
		b.Ld(isa.R9, asm.Mem(isa.R12, 0, 8))
		b.Addi(isa.R8, isa.R9, 1)
		b.St(asm.Mem(isa.R12, 0, 8), isa.R8)
	}

	r.loadArena(isa.R11, "__rt_lockarena")

	// lock offset: pop the LIFO free list, else bump.
	b.MoviGlobal(isa.R12, "__rt_lockfree", 0)
	b.Ld(isa.R13, asm.Mem(isa.R12, 0, 8))
	b.Brnz(isa.R13, "malloc.lockpop")
	b.MoviGlobal(isa.R12, "__rt_lockbrk", 0)
	b.Ld(isa.R13, asm.Mem(isa.R12, 0, 8))
	b.Addi(isa.R8, isa.R13, 8)
	b.St(asm.Mem(isa.R12, 0, 8), isa.R8)
	b.Jmp("malloc.lockgot")
	b.Label("malloc.lockpop")
	// head = *(lockarena + off): a free lock location holds the next
	// free offset.
	b.Ld(isa.R8, asm.MemIdx(isa.R11, isa.R13, 1, 0, 8))
	b.St(asm.Mem(isa.R12, 0, 8), isa.R8)
	b.Label("malloc.lockgot")

	// *(lockarena + off) = key; lock address = lockarena + off.
	b.St(asm.MemIdx(isa.R11, isa.R13, 1, 0, 8), isa.R9)
	b.Lea(isa.R13, asm.MemIdx(isa.R11, isa.R13, 1, 0, 8))
	b.Setident(isa.R1, isa.R1, isa.R9, isa.R13)
	if r.opts.Bounds {
		b.Add(isa.R8, isa.R1, isa.R2)
		b.Setbound(isa.R1, isa.R1, isa.R1, isa.R8)
	}
}

// emitFree emits free (pointer in R1).
func (r *Build) emitFree() {
	b := r.B
	b.Label("free")
	b.Brz(isa.R1, "free.noop") // free(NULL)
	r.emitLock()

	r.loadArena(isa.R10, "__rt_arena")

	if r.opts.Policy.Idents() {
		r.loadArena(isa.R11, "__rt_lockarena")
		// Validate the identifier first: catches double frees, frees
		// of stale pointers and frees of non-heap memory (Figure 3b).
		b.Getident(isa.R2, isa.R3, isa.R1)
		b.Brz(isa.R3, "free.bad")
		b.Movi(isa.R8, int64(mem.LockBase))
		b.Br(isa.CondB, isa.R3, isa.R8, "free.bad") // lock below the region: stack/global ident
		b.Sub(isa.R8, isa.R3, isa.R8)               // lock offset
		b.Movi(isa.R9, int64(mem.LockMax))
		b.Br(isa.CondAE, isa.R8, isa.R9, "free.bad")
		b.Ld(isa.R9, asm.MemIdx(isa.R11, isa.R8, 1, 0, 8))
		b.Br(isa.CondNE, isa.R9, isa.R2, "free.bad") // lock != key: already freed
		// Invalidate and push the lock location LIFO: the lock word
		// takes the old free-list head (any value != key invalidates).
		b.MoviGlobal(isa.R12, "__rt_lockfree", 0)
		b.Ld(isa.R9, asm.Mem(isa.R12, 0, 8))
		b.St(asm.MemIdx(isa.R11, isa.R8, 1, 0, 8), isa.R9)
		b.St(asm.Mem(isa.R12, 0, 8), isa.R8)
	}

	// Block bookkeeping: clear the allocated bit, push onto the block
	// free list. Header accesses go through the arena pointer.
	b.Movi(isa.R8, int64(mem.HeapBase))
	b.Sub(isa.R8, isa.R1, isa.R8)
	b.Subi(isa.R8, isa.R8, 16) // header offset
	b.Ld(isa.R9, asm.MemIdx(isa.R10, isa.R8, 1, 0, 8))
	b.Andi(isa.R13, isa.R9, 1)
	b.Brz(isa.R13, "free.bad") // block-level double free
	b.Subi(isa.R9, isa.R9, 1)  // clear allocated bit -> size
	b.St(asm.MemIdx(isa.R10, isa.R8, 1, 0, 8), isa.R9)

	if r.opts.Policy.AllocHooks() {
		b.Mov(isa.R2, isa.R9) // size for the hook (xtag: retag the freed words)
		b.Sys(isa.SysMarkFree, isa.R1)
	}

	b.MoviGlobal(isa.R12, "__rt_freelist", 0)
	b.Ld(isa.R9, asm.Mem(isa.R12, 0, 8))
	b.St(asm.MemIdx(isa.R10, isa.R8, 1, 8, 8), isa.R9)
	b.St(asm.Mem(isa.R12, 0, 8), isa.R8)

	b.Label("free.ret")
	r.emitUnlock()
	b.Label("free.noop")
	b.Ret()
	b.Label("free.bad")
	b.Movi(isa.R1, 1)
	b.Sys(isa.SysAbort, isa.R1)
}

// emitCalloc emits calloc_words: malloc + zero fill (word count in the
// size: R1 = bytes, must be a multiple of 8).
func (r *Build) emitCalloc() {
	b := r.B
	b.Label("calloc_words")
	b.PushP(isa.R4) // the caller's R4 may hold a pointer
	b.Mov(isa.R4, isa.R1)
	b.Call("malloc")
	// Zero R4/8 words at R1.
	b.Shri(isa.R4, isa.R4, 3)
	b.Movi(isa.R2, 0)
	b.Movi(isa.R3, 0)
	b.Label("calloc.loop")
	b.Brz(isa.R4, "calloc.done")
	b.St(asm.MemIdx(isa.R1, isa.R3, 8, 0, 8), isa.R2)
	b.Addi(isa.R3, isa.R3, 1)
	b.Subi(isa.R4, isa.R4, 1)
	b.Jmp("calloc.loop")
	b.Label("calloc.done")
	b.PopP(isa.R4)
	b.Ret()
}

// emitRand emits a 64-bit LCG; result (33 bits) in R1.
func (r *Build) emitRand() {
	b := r.B
	b.Label("rand")
	b.MoviGlobal(isa.R12, "__rt_seed", 0)
	b.Ld(isa.R13, asm.Mem(isa.R12, 0, 8))
	b.Muli(isa.R13, isa.R13, 6364136223846793005)
	b.Movi(isa.R1, 1442695040888963407)
	b.Add(isa.R13, isa.R13, isa.R1)
	b.St(asm.Mem(isa.R12, 0, 8), isa.R13)
	b.Shri(isa.R1, isa.R13, 33)
	b.Ret()
}
