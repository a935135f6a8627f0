package core

import (
	"watchdog/internal/isa"
	"watchdog/internal/mem"
	"watchdog/internal/trace"
)

// Stats aggregates engine-side accounting (Figure 5 inputs).
type Stats struct {
	// MemAccesses counts dynamic macro-level memory accesses subject
	// to checking.
	MemAccesses uint64
	// PtrOps counts memory accesses classified as pointer loads or
	// stores (and thus carrying metadata µops).
	PtrOps uint64
	// PtrLoads and PtrStores split PtrOps by direction (the per-kind
	// injected-µop accounting of the metrics record).
	PtrLoads  uint64
	PtrStores uint64
	// Checks counts injected check µops.
	Checks uint64
	// Violations counts raised exceptions (the run stops at the first).
	Violations uint64
}

// Engine implements the per-instruction Watchdog semantics: metadata
// propagation, µop injection, and checks. The machine drives it while
// interpreting macro instructions.
type Engine struct {
	cfg  Config
	info policyInfo // cfg.Policy's row of policyTable
	mem  *mem.Memory

	// Sidecar register metadata (decoupled metadata registers).
	regMeta [isa.NumIntRegs]Meta

	// Hardware stack-frame identifier state (Figure 3c/d): control
	// registers stack_key and stack_lock.
	stackKey  uint64
	stackLock uint64

	globalMeta Meta

	// Location-policy allocation state: allocated heap words.
	locAlloc map[uint64]bool

	// softMeta is the pointer metadata flowing through memory under the
	// policies that keep it in a Go-side table (xtag and dangkiller).
	// Neither scheme keeps a simulated shadow space — xtag's identifier
	// rides the pointer's unused high bits and dangkiller's is implicit
	// in the allocation site — so pointer loads/stores cost no simulated
	// metadata traffic.
	softMeta map[uint64]Meta

	// Instructions in [0, uncheckedBelow) are runtime-library code,
	// exempt from checking under the policies that say so. The
	// Watchdog hardware checks everything, including the runtime.
	uncheckedBelow int

	entrySize uint64
	stats     Stats
	// sink, when non-nil, receives check-outcome and shadow-traffic
	// events. Every emission is nil-guarded so the disabled path stays
	// allocation-free.
	sink *trace.Sink
	// buf backs every injected-µop slice the engine returns. The
	// machine feeds each returned slice to the timing model before the
	// next engine call, so a single reused buffer keeps the hot path
	// allocation-free (TestStepZeroAlloc pins this). Callers must not
	// retain returned slices across engine calls.
	buf []isa.Uop
}

// NewEngine builds an engine over the given memory.
func NewEngine(cfg Config, memory *mem.Memory) *Engine {
	e := &Engine{cfg: cfg, info: cfg.Policy.info(), mem: memory}
	e.entrySize = mem.ShadowEntrySize
	if cfg.Bounds != BoundsOff {
		e.entrySize = mem.ShadowEntrySizeBounds
	}
	if cfg.Policy == PolicyLocation {
		e.locAlloc = make(map[uint64]bool)
	}
	if e.info.meta == metaTable {
		e.softMeta = make(map[uint64]Meta)
	}
	return e
}

// ShareTables makes e use src's Go-side tables: the pointer metadata of
// the policies that keep it there and the location policy's allocation
// status. The multi-context machine points every context at context
// 0's tables, so a pointer one thread stores, or a block it allocates,
// checks out when another thread uses it — the sharing the simulated
// shadow space gives the other policies for free.
func (e *Engine) ShareTables(src *Engine) {
	e.softMeta, e.locAlloc = src.softMeta, src.locAlloc
}

// tagMask is the xtag comparison mask: the low TagBits bits of the
// allocation key are the pointer's tag.
func (e *Engine) tagMask() uint64 {
	w := e.cfg.TagBits
	if w <= 0 || w > 8 {
		w = DefaultTagBits
	}
	return 1<<uint(w) - 1
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetSink attaches a trace sink (nil detaches).
func (e *Engine) SetSink(s *trace.Sink) { e.sink = s }

// TraceOutcome maps a check result (nil or *MemoryError) to the trace
// event outcome.
func TraceOutcome(err error) trace.CheckOutcome {
	me, ok := err.(*MemoryError)
	if !ok || me == nil {
		return trace.OutcomeOK
	}
	switch me.Kind {
	case ErrUseAfterFree:
		return trace.OutcomeUseAfterFree
	case ErrOutOfBounds:
		return trace.OutcomeOutOfBounds
	case ErrNoMetadata:
		return trace.OutcomeNoMetadata
	case ErrUnallocated:
		return trace.OutcomeUnallocated
	}
	return trace.OutcomeOK
}

// Stats returns the accumulated counters.
func (e *Engine) Stats() Stats { return e.stats }

// EntrySize returns the shadow-entry size in bytes (16, or 32 with
// bounds).
func (e *Engine) EntrySize() uint64 { return e.entrySize }

// SetUncheckedBelow marks instructions below n as runtime-library code,
// which the policies that exempt the runtime do not check.
func (e *Engine) SetUncheckedBelow(n int) { e.uncheckedBelow = n }

// Init establishes the initial metadata state: the always-valid global
// identifier (its lock location permanently holds its key), shadow
// metadata for the initialized global segment, and the identifier of
// the initial stack frame.
func (e *Engine) Init(globalEnd uint64) {
	e.globalMeta = Meta{
		Ident: Ident{Key: GlobalKey, Lock: GlobalLockLoc},
		Base:  mem.GlobalBase,
		Bound: mem.GlobalBase + mem.GlobalMax,
	}
	if e.info.checks == checkNone {
		return
	}
	e.mem.WriteU64(GlobalLockLoc, GlobalKey)

	// Initial stack frame identifier (frame of _start/main).
	e.stackKey = StackKeyBase
	e.stackLock = mem.StackLockBase
	e.mem.WriteU64(e.stackLock, e.stackKey)
	e.regMeta[isa.SP] = e.stackMeta()
}

// InitShadowRange initializes the shadow metadata of an initialized
// global data range with the global identifier, so that initialized
// global pointers (pointers to other globals baked into the data
// segment) check out when loaded (Section 7). Zero-initialized global
// memory keeps invalid (null-pointer) metadata.
func (e *Engine) InitShadowRange(addr, size uint64) {
	if e.info.meta == metaNowhere {
		return
	}
	for a := addr &^ 7; a < addr+size; a += 8 {
		e.storeMeta(a, e.globalMeta)
	}
}

// SetContext repositions the stack-identifier state for hardware
// context tid, implementing requirement #1 of the paper's
// multithreading discussion (Section 7): each thread allocates
// identifiers from a partitioned key space (thread id in the upper
// bits) and maintains its own in-memory lock-location stack, so
// identifier allocation needs no cross-thread synchronization and keys
// remain globally unique. Call after Init.
func (e *Engine) SetContext(tid int) {
	if e.info.checks == checkNone {
		return
	}
	e.stackKey = StackKeyBase + uint64(tid)<<40
	e.stackLock = mem.StackLockBase + uint64(tid)*(1<<20)
	e.mem.WriteU64(e.stackLock, e.stackKey)
	e.regMeta[isa.SP] = e.stackMeta()
}

func (e *Engine) stackMeta() Meta {
	return Meta{
		Ident: Ident{Key: e.stackKey, Lock: e.stackLock},
		Base:  mem.StackTop - mem.StackMax,
		Bound: mem.StackTop,
	}
}

// GlobalMeta returns the global identifier's metadata.
func (e *Engine) GlobalMeta() Meta { return e.globalMeta }

// RegMeta returns the sidecar metadata of an integer register.
func (e *Engine) RegMeta(r isa.Reg) Meta {
	if r.IsInt() {
		return e.regMeta[r]
	}
	return Meta{}
}

// SetRegMeta overrides a register's metadata (loader/test use).
func (e *Engine) SetRegMeta(r isa.Reg, m Meta) {
	if r.IsInt() {
		e.regMeta[r] = m
	}
}

// --- pointer metadata in memory ---

// loadMeta reads the metadata of the pointer stored at addr from where
// the policy keeps it: the Go-side table or the shadow space.
func (e *Engine) loadMeta(addr uint64) Meta {
	if e.info.meta == metaTable {
		return e.softMeta[addr&^7]
	}
	sa := mem.ShadowAddr(addr&^7, e.entrySize)
	m := Meta{Ident: Ident{Key: e.mem.ReadU64(sa), Lock: e.mem.ReadU64(sa + 8)}}
	if e.cfg.Bounds != BoundsOff {
		m.Base = e.mem.ReadU64(sa + 16)
		m.Bound = e.mem.ReadU64(sa + 24)
	}
	return m
}

// storeMeta is the store-side counterpart of loadMeta.
func (e *Engine) storeMeta(addr uint64, m Meta) {
	if e.info.meta == metaTable {
		e.softMeta[addr&^7] = m
		return
	}
	sa := mem.ShadowAddr(addr&^7, e.entrySize)
	e.mem.WriteU64(sa, m.Key)
	e.mem.WriteU64(sa+8, m.Lock)
	if e.cfg.Bounds != BoundsOff {
		e.mem.WriteU64(sa+16, m.Base)
		e.mem.WriteU64(sa+24, m.Bound)
	}
}

// --- pointer identification (Section 5) ---

// Classify decides whether the memory macro instruction at pc is
// treated as a pointer load/store for this run.
func (e *Engine) Classify(pc int, in *isa.Inst) bool {
	if e.info.meta == metaNowhere {
		return false // no pointer metadata to move
	}
	if !in.IsPointerWidthIntMem() {
		return false // FP and sub-word accesses are never pointer ops
	}
	switch e.cfg.PtrPolicy {
	case PtrConservative:
		return true
	default: // PtrISAAssisted
		switch in.Ptr {
		case isa.PtrYes:
			return true
		case isa.PtrNo:
			return false
		default:
			return e.cfg.Profile.IsPointerOp(pc)
		}
	}
}

// --- checks (Sections 3.2, 4.1, 8) ---

// checkClass is the port class of a check µop.
func (e *Engine) checkClass() isa.ExecClass {
	if e.cfg.LockCache {
		return isa.ExecLock
	}
	return isa.ExecLoad
}

// pickMeta selects the governing metadata among the addressing
// registers: the base register's if valid, else the index register's
// (the select rule of Figure 2d applied to address generation).
func (e *Engine) pickMeta(base, index isa.Reg) (Meta, isa.Reg) {
	if base.IsInt() && e.regMeta[base].Valid() {
		return e.regMeta[base], base
	}
	if index.IsInt() && e.regMeta[index].Valid() {
		return e.regMeta[index], index
	}
	if base.IsInt() {
		return e.regMeta[base], base
	}
	return Meta{}, isa.NoReg
}

// Access performs the functional check for one memory access and
// returns the injected check µops. A non-nil error is the raised
// exception. pc is the macro-instruction index; base/index are the
// addressing registers.
func (e *Engine) Access(pc int, base, index isa.Reg, addr uint64, width uint8, isWrite bool) ([]isa.Uop, error) {
	e.stats.MemAccesses++
	if e.info.checks == checkNone || e.info.exempt && pc < e.uncheckedBelow {
		return nil, nil
	}
	meta, ptrReg := e.pickMeta(base, index)
	uops := e.buf[:0]
	var err error
	switch e.cfg.Policy {
	case PolicyLocation:
		// A shadow allocation-status lookup of the target address. It
		// only tracks the heap, and it cannot know which allocation a
		// pointer was derived from, so a dangling dereference into
		// reallocated memory passes silently — the limitation the
		// identifier approach removes. No identifier takes part.
		meta = Meta{}
		uops = append(uops, byteCheck(addr, isa.NoReg))
		if mem.RegionOf(addr) == mem.RegionHeap && !e.locAlloc[addr&^7] {
			err = &MemoryError{Kind: ErrUnallocated, PC: pc, Addr: addr, Write: isWrite}
		}
	case PolicyXTag:
		// The tag carried in the pointer's unused high bits (the low
		// TagBits bits of the allocation key) against the word's entry
		// in a one-byte-per-word tag table. A reallocation whose key
		// aliases the freed one modulo 2^TagBits passes; only the heap
		// is tagged, so stack dereferences after return (CWE-562) pass
		// unchecked.
		uops = append(uops, byteCheck(addr, ptrReg))
		if mem.RegionOf(addr) == mem.RegionHeap && (meta.Key^e.mem.Read(uops[0].Addr, 1))&e.tagMask() != 0 {
			err = &MemoryError{Kind: ErrUseAfterFree, PC: pc, Addr: addr, Write: isWrite, Ident: meta.Ident}
		}
	case PolicyDangKiller:
		// The key is implicit in the allocation site, so one ALU µop
		// compares it with no metadata load; the verdict is Watchdog's.
		uops = append(uops, checkUop(isa.UopCheck, isa.ExecALU, ptrReg))
		err = e.evalCheck(pc, meta, addr, width, isWrite)
	case PolicySoftware:
		// The instruction sequence a compiler-based scheme executes on
		// ordinary ports: compute the metadata location, load the lock
		// value, compare with the key, branch to abort (never taken).
		a := isa.NewUop(isa.UopAlu, isa.ExecALU)
		a.Dst = isa.Tmp1
		ld := isa.NewUop(isa.UopLoad, isa.ExecLoad)
		ld.Dst, ld.Src1 = isa.Tmp1, isa.Tmp1
		ld.IsMem, ld.Width = true, 8
		ld.Addr, ld.Lock = meta.Lock, true
		cmp := isa.NewUop(isa.UopAlu, isa.ExecALU)
		cmp.Dst, cmp.Src1 = isa.Tmp1, isa.Tmp1
		br := isa.NewUop(isa.UopBranch, isa.ExecBr)
		br.Src1 = isa.Tmp1
		br.IsBranch = true
		uops = append(uops, a, ld, cmp, br)
		for i := range uops {
			uops[i].Meta = isa.MetaCheck
		}
		err = e.evalCheck(pc, meta, addr, width, isWrite)
	default: // PolicyWatchdog
		op := isa.UopCheck
		if e.cfg.Bounds == BoundsFused {
			op = isa.UopCheckFull
		}
		chk := checkUop(op, e.checkClass(), ptrReg)
		chk.Addr = meta.Lock
		chk.Lock = true // the lock read is folded into the check µop's latency
		uops = append(uops, chk)
		if e.cfg.Bounds == BoundsSeparate {
			uops = append(uops, checkUop(isa.UopBoundCheck, isa.ExecALU, ptrReg))
			e.stats.Checks++
		}
		err = e.evalCheck(pc, meta, addr, width, isWrite)
	}
	e.stats.Checks++
	e.buf = uops
	if e.sink != nil {
		// The event carries the lock value the check compared against
		// (a re-read of an already-touched word, so footprint
		// accounting is unperturbed).
		var lockVal uint64
		if meta.Lock != 0 {
			lockVal = e.mem.ReadU64(meta.Lock)
		}
		e.sink.Check(pc, addr, meta.Key, meta.Lock, lockVal, isWrite, TraceOutcome(err))
	}
	if err != nil {
		e.stats.Violations++
	}
	return uops, err
}

// checkUop is a check µop reading the metadata register of ptr.
func checkUop(op isa.UopOp, class isa.ExecClass, ptr isa.Reg) isa.Uop {
	u := isa.NewUop(op, class)
	u.MSrc = isa.MetaReg(ptr)
	u.Meta = isa.MetaCheck
	return u
}

// byteCheck is the check µop of the schemes that keep one byte of state
// per heap word in the shadow space: it loads addr's byte and compares
// it in the same µop.
func byteCheck(addr uint64, ptr isa.Reg) isa.Uop {
	u := checkUop(isa.UopCheck, isa.ExecLoad, ptr)
	u.Addr = mem.ShadowAddr(addr&^7, 1)
	u.Shadow = true
	u.IsMem, u.Width = true, 1
	return u
}

// evalCheck is the functional semantics of the lock-and-key check
// µop(s).
func (e *Engine) evalCheck(pc int, meta Meta, addr uint64, width uint8, isWrite bool) error {
	if !meta.Valid() {
		return &MemoryError{Kind: ErrNoMetadata, PC: pc, Addr: addr, Write: isWrite, Ident: meta.Ident}
	}
	if e.mem.ReadU64(meta.Lock) != meta.Key {
		return &MemoryError{Kind: ErrUseAfterFree, PC: pc, Addr: addr, Write: isWrite, Ident: meta.Ident}
	}
	if e.cfg.Bounds != BoundsOff {
		if addr < meta.Base || addr+uint64(width) > meta.Bound {
			return &MemoryError{Kind: ErrOutOfBounds, PC: pc, Addr: addr, Write: isWrite, Ident: meta.Ident}
		}
	}
	return nil
}

// --- metadata movement for pointer loads/stores (Section 3.3) ---

// PtrLoad performs the functional metadata load for a pointer-
// classified load into dst and returns the µops that move it.
func (e *Engine) PtrLoad(pc int, dst isa.Reg, addr uint64) []isa.Uop {
	e.stats.PtrOps++
	e.stats.PtrLoads++
	m := e.loadMeta(addr)
	e.mark(pc, m)
	if dst.IsInt() {
		e.regMeta[dst] = m
	}
	return e.metaUops(pc, dst, addr, false)
}

// PtrStore performs the functional metadata store for a pointer-
// classified store of src and returns the µops that move it.
func (e *Engine) PtrStore(pc int, src isa.Reg, addr uint64) []isa.Uop {
	e.stats.PtrOps++
	e.stats.PtrStores++
	var m Meta
	if src.IsInt() {
		m = e.regMeta[src]
	}
	e.mark(pc, m)
	e.storeMeta(addr, m)
	return e.metaUops(pc, src, addr, true)
}

// mark records the static instruction at pc in the profile when it
// moved valid metadata.
func (e *Engine) mark(pc int, m Meta) {
	if e.cfg.Profiling && m.Valid() {
		e.cfg.Profile.Mark(pc)
	}
}

// metaUops returns the µops that move one pointer's metadata between
// register r and the shadow entry of addr, and traces the access: one
// shadow µop of the entry's width when checks are injected µops, and
// the software scheme's address arithmetic plus two 8-byte accesses
// when they are instructions. Metadata in the Go-side table moves at
// no simulated cost.
func (e *Engine) metaUops(pc int, r isa.Reg, addr uint64, write bool) []isa.Uop {
	if e.info.meta == metaTable {
		return nil
	}
	sa := mem.ShadowAddr(addr&^7, e.entrySize)
	class := isa.MetaPtrLoad
	if write {
		class = isa.MetaPtrStore
	}
	uops := e.buf[:0]
	if e.info.checks == checkInsts {
		a := isa.NewUop(isa.UopAlu, isa.ExecALU)
		a.Dst = isa.Tmp1
		a.Meta = class
		uops = append(uops, a)
		for i := uint64(0); i < 2; i++ {
			u := metaAccess(isa.UopLoad, isa.UopStore, r, sa+8*i, 8, write)
			u.Src1 = isa.Tmp1
			u.Meta = class
			uops = append(uops, u)
		}
	} else {
		u := metaAccess(isa.UopShadowLoad, isa.UopShadowStore, r, sa, uint8(e.entrySize), write)
		u.Meta = class
		uops = append(uops, u)
	}
	e.buf = uops
	if e.sink != nil {
		e.sink.Shadow(pc, sa, write)
	}
	return uops
}

// metaAccess is one shadow-space access of width bytes at sa: a load
// (op ld) into r's metadata register, or a store (op st) from it.
func metaAccess(ld, st isa.UopOp, r isa.Reg, sa uint64, width uint8, write bool) isa.Uop {
	u := isa.NewUop(ld, isa.ExecLoad)
	u.MDst = isa.MetaReg(r)
	if write {
		u = isa.NewUop(st, isa.ExecStore)
		u.MSrc = isa.MetaReg(r)
		u.IsWr = true
	}
	u.IsMem, u.Width = true, width
	u.Addr, u.Shadow = sa, true
	return u
}

// NonPtrLoad invalidates dst's metadata for a load not classified as a
// pointer load (the loaded value has no pointer provenance).
func (e *Engine) NonPtrLoad(dst isa.Reg) {
	if dst.IsInt() {
		e.regMeta[dst] = Meta{}
	}
}

// --- register metadata propagation (Sections 3.4, 6) ---

// CopyPropagate handles dst <- f(src) where the metadata is
// unambiguously copied (moves, add-immediate). With copy elimination
// the rename stage handles it and no µop is emitted; otherwise a
// select µop is charged.
func (e *Engine) CopyPropagate(dst, src isa.Reg) []isa.Uop {
	if !dst.IsInt() {
		return nil
	}
	var m Meta
	if src.IsInt() {
		m = e.regMeta[src]
	}
	e.regMeta[dst] = m
	if !e.info.selects() || e.cfg.CopyElim || !m.Valid() {
		return nil
	}
	u := isa.NewUop(isa.UopSelectID, isa.ExecALU)
	u.MDst, u.MSrc = isa.MetaReg(dst), isa.MetaReg(src)
	u.Meta = isa.MetaOther
	e.buf = append(e.buf[:0], u)
	return e.buf
}

// SelectPropagate handles dst <- f(s1, s2) where either register might
// be the pointer (Figure 2d): the destination inherits s1's metadata
// if valid, else s2's. When both inputs hold valid metadata a select
// µop is required even with copy elimination.
func (e *Engine) SelectPropagate(dst, s1, s2 isa.Reg) []isa.Uop {
	if !dst.IsInt() {
		return nil
	}
	var m1, m2 Meta
	if s1.IsInt() {
		m1 = e.regMeta[s1]
	}
	if s2.IsInt() {
		m2 = e.regMeta[s2]
	}
	chosen, from := m1, s1
	if !m1.Valid() {
		chosen, from = m2, s2
	}
	e.regMeta[dst] = chosen
	if !e.info.selects() {
		return nil
	}
	needUop := (m1.Valid() && m2.Valid()) || (!e.cfg.CopyElim && chosen.Valid())
	if !needUop {
		return nil
	}
	u := isa.NewUop(isa.UopSelectID, isa.ExecALU)
	u.MDst, u.MSrc = isa.MetaReg(dst), isa.MetaReg(from)
	u.Meta = isa.MetaOther
	e.buf = append(e.buf[:0], u)
	return e.buf
}

// CopyEliminated reports whether a metadata copy into dst that charged
// no µop was absorbed by rename-stage copy elimination: dst holds valid
// metadata, under a policy whose register metadata moves through select
// µops, with copy elimination on.
func (e *Engine) CopyEliminated(dst isa.Reg) bool {
	return e.info.selects() && e.cfg.CopyElim && e.RegMeta(dst).Valid()
}

// ImmPropagate handles constant materialization: global-address
// materialization receives the global identifier (PC-relative
// addressing, Section 7); anything else is a non-pointer.
func (e *Engine) ImmPropagate(dst isa.Reg, globalAddr bool) {
	if !dst.IsInt() {
		return
	}
	if globalAddr {
		e.regMeta[dst] = e.globalMeta
	} else {
		e.regMeta[dst] = Meta{}
	}
}

// InvalidateReg marks dst as holding a non-pointer (outputs of
// sub-word ops, divides, compares...). Handled at rename; no µop.
func (e *Engine) InvalidateReg(dst isa.Reg) {
	if dst.IsInt() {
		e.regMeta[dst] = Meta{}
	}
}

// --- stack frame identifiers (Figure 3c/d) ---

// Call allocates a stack-frame identifier: four injected µops that
// bump stack_key, push it onto the in-memory lock-location stack, and
// attach the new identifier to the stack pointer. The software and
// dangkiller comparators perform the same work as instrumentation
// emitted at function entry (as CETS does); xtag tags the heap only,
// so stale stack dereferences (CWE-562) pass unchecked there.
func (e *Engine) Call() []isa.Uop {
	if !e.info.frames {
		return nil
	}
	e.stackKey++
	e.stackLock += 8
	e.mem.WriteU64(e.stackLock, e.stackKey)
	e.regMeta[isa.SP] = e.stackMeta()

	uops := e.buf[:0]
	a1 := isa.NewUop(isa.UopAlu, isa.ExecALU) // stack_key++
	a1.Meta = isa.MetaOther
	a2 := isa.NewUop(isa.UopAlu, isa.ExecALU) // stack_lock += 8
	a2.Meta = isa.MetaOther
	st := isa.NewUop(isa.UopStore, isa.ExecStore) // mem[stack_lock] = stack_key
	st.IsMem, st.IsWr, st.Width = true, true, 8
	st.Addr, st.Lock = e.stackLock, true
	st.Meta = isa.MetaOther
	sel := isa.NewUop(isa.UopSelectID, isa.ExecALU) // sp.id = (key, lock)
	sel.MDst = isa.MetaReg(isa.SP)
	sel.Meta = isa.MetaOther
	e.buf = append(uops, a1, a2, st, sel)
	return e.buf
}

// Ret deallocates the frame identifier: invalidate the lock location,
// pop the lock stack, and restore the caller frame's identifier to the
// stack pointer (function-exit instrumentation under the software
// comparator).
func (e *Engine) Ret() []isa.Uop {
	if !e.info.frames {
		return nil
	}
	e.mem.WriteU64(e.stackLock, uint64(InvalidKey))
	invAddr := e.stackLock
	e.stackLock -= 8
	key := e.mem.ReadU64(e.stackLock)
	e.regMeta[isa.SP] = Meta{
		Ident: Ident{Key: key, Lock: e.stackLock},
		Base:  mem.StackTop - mem.StackMax,
		Bound: mem.StackTop,
	}

	uops := e.buf[:0]
	st := isa.NewUop(isa.UopStore, isa.ExecStore) // mem[stack_lock] = INVALID
	st.IsMem, st.IsWr, st.Width = true, true, 8
	st.Addr, st.Lock = invAddr, true
	st.Meta = isa.MetaOther
	a1 := isa.NewUop(isa.UopAlu, isa.ExecALU) // stack_lock -= 8
	a1.Meta = isa.MetaOther
	ld := isa.NewUop(isa.UopLoad, isa.ExecLoad) // current_key = mem[stack_lock]
	ld.IsMem, ld.Width = true, 8
	ld.Addr, ld.Lock = e.stackLock, true
	ld.Meta = isa.MetaOther
	sel := isa.NewUop(isa.UopSelectID, isa.ExecALU) // sp.id = (key, lock)
	sel.MDst = isa.MetaReg(isa.SP)
	sel.Meta = isa.MetaOther
	e.buf = append(uops, st, a1, ld, sel)
	return e.buf
}

// --- runtime interface (Figure 3a/b) ---

// SetIdent implements the setident instruction: dst receives ptr's
// value (handled by the machine) and the identifier (key, lock); with
// bounds enabled the bounds are attached separately via SetBound.
func (e *Engine) SetIdent(dst isa.Reg, key, lock uint64) {
	if !dst.IsInt() {
		return
	}
	m := Meta{Ident: Ident{Key: key, Lock: lock}}
	if e.cfg.Bounds != BoundsOff {
		// Until SetBound arrives, inherit maximal bounds so that a
		// runtime that never conveys bounds still functions.
		m.Base, m.Bound = 0, ^uint64(0)
	}
	e.regMeta[dst] = m
}

// GetIdent implements the getident instruction.
func (e *Engine) GetIdent(ptr isa.Reg) (key, lock uint64) {
	if !ptr.IsInt() {
		return 0, 0
	}
	m := e.regMeta[ptr]
	return m.Key, m.Lock
}

// SetBound attaches bounds to dst's existing identifier.
func (e *Engine) SetBound(dst isa.Reg, base, bound uint64) {
	if !dst.IsInt() {
		return
	}
	e.regMeta[dst].Base = base
	e.regMeta[dst].Bound = bound
}

// --- location/xtag allocation hooks ---

// MarkAlloc records [ptr, ptr+size) as allocated. Under the location
// policy it sets the allocation-status state; under xtag it writes the
// new allocation's tag into the per-word tag table (the syscall
// convention leaves the fresh pointer in R1, whose setident just
// attached the new key — the tag is its low byte, masked to TagBits at
// check time).
func (e *Engine) MarkAlloc(ptr, size uint64) {
	switch e.cfg.Policy {
	case PolicyLocation:
		for a := ptr &^ 7; a < ptr+size; a += 8 {
			e.locAlloc[a] = true
		}
	case PolicyXTag:
		tag := e.regMeta[isa.R1].Key
		for a := ptr &^ 7; a < ptr+size; a += 8 {
			e.mem.Write(mem.ShadowAddr(a, 1), 1, tag)
		}
	}
}

// MarkFree records [ptr, ptr+size) as deallocated. Under xtag the
// freed words are retagged (tag+1) so a dangling dereference misses
// only once the block is reallocated under an aliasing key.
func (e *Engine) MarkFree(ptr, size uint64) {
	switch e.cfg.Policy {
	case PolicyLocation:
		for a := ptr &^ 7; a < ptr+size; a += 8 {
			delete(e.locAlloc, a)
		}
	case PolicyXTag:
		for a := ptr &^ 7; a < ptr+size; a += 8 {
			sa := mem.ShadowAddr(a, 1)
			e.mem.Write(sa, 1, e.mem.Read(sa, 1)+1)
		}
	}
}

// StackIdentState exposes the control registers (tests).
func (e *Engine) StackIdentState() (key, lock uint64) { return e.stackKey, e.stackLock }
