// Package machine is the WD64 functional simulator: it interprets
// macro instructions over the simulated memory and registers, drives
// the Watchdog engine (metadata semantics, µop injection, checks), and
// feeds the annotated µop stream to the pipeline timing model.
package machine

import (
	"context"
	"fmt"
	"math"
	"slices"

	"watchdog/internal/asm"
	"watchdog/internal/bpred"
	"watchdog/internal/core"
	"watchdog/internal/isa"
	"watchdog/internal/mem"
	"watchdog/internal/pipeline"
	"watchdog/internal/trace"
)

// Result summarizes a completed (or faulted) run.
type Result struct {
	// Sampled* are filled by sampled runs (SetSampling): cycles, µops
	// and instructions measured inside sample windows. Use
	// EstimatedCycles for the whole-program extrapolation.
	SampledCycles int64
	SampledInsts  uint64
	SampledUops   uint64

	// Partial marks a run that did not reach its natural end (halt,
	// fault, or abort) — today that means cooperative cancellation
	// landed mid-flight. The statistics are whatever had accumulated
	// when the run stopped; for a sampled run canceled mid-fast-forward
	// the Sampled* counters may cover no window at all, so consumers
	// must never present a Partial result as a completed measurement.
	Partial bool

	// MemErr is the memory-safety exception that stopped the run, nil
	// if the program ran to completion.
	MemErr *core.MemoryError
	// Aborted reports a runtime-library abort (double free, invalid
	// free) via SysAbort, with its code.
	Aborted   bool
	AbortCode int64
	ExitCode  int64
	Output    []int64
	Text      string

	Insts uint64
	Uops  uint64

	Timing pipeline.Stats
	Engine core.Stats
	// Footprint is the per-region memory touch accounting (Fig. 10).
	Footprint map[mem.Region]mem.Footprint

	// Trace is the sink that observed the run (nil when tracing was
	// off); it carries the timeline and flight-recorder contents.
	Trace *trace.Sink
}

// Machine executes one program.
type Machine struct {
	Mem  *mem.Memory
	Regs [isa.NumRegs]uint64

	prog  *asm.Program
	eng   *core.Engine
	model *pipeline.Model
	bp    *bpred.Predictor

	// Tid is the hardware-context id (SysTid result); context 0 unless
	// running under the multi-context machine.
	Tid int

	pc     int
	halted bool
	res    Result

	// InstLimit bounds the run (default instLimit).
	InstLimit uint64

	// sink, when set, observes the run: one event per macro
	// instruction plus the violation/abort that ends it. Nil-guarded
	// at every use so the disabled path stays allocation-free.
	sink *trace.Sink

	// sampler, when set, gates the timing model per the paper's
	// periodic-sampling methodology (see SetSampling).
	sampler *sampler

	// cancel is the cooperative-cancellation state (see SetContext).
	// cancelDone is nil when no cancellable context is attached, which
	// keeps the uncancellable path to a single pointer compare per
	// macro instruction in Run.
	cancelDone <-chan struct{}
	cancelErr  func() error
	nextCheck  uint64

	// crack serves each static instruction's base µop sequence,
	// cracked once per machine, or once per process for the runtime
	// prelude (asm.Prefix); step copies it into uopArr (a fixed
	// buffer, so the steady-state path never allocates) before the
	// dynamic annotations are filled in.
	crack  *isa.CrackCache
	uopArr [isa.MaxUopsPerInst]isa.Uop
}

// instLimit is the default bound on the macro instructions one run
// executes, across all contexts of a multi-context run.
const instLimit = 200_000_000

// New builds a machine. model and bp may be nil for functional-only
// runs (e.g. the profiling pass).
func New(prog *asm.Program, memory *mem.Memory, eng *core.Engine, model *pipeline.Model, bp *bpred.Predictor) *Machine {
	m := &Machine{
		Mem:       memory,
		prog:      prog,
		eng:       eng,
		model:     model,
		bp:        bp,
		pc:        prog.Entry,
		InstLimit: instLimit,
		crack:     prog.CrackCache(),
	}
	m.Regs[isa.SP] = mem.StackTop
	return m
}

// Load initializes memory from the program's data directives and the
// engine's global metadata. Call once before Run.
func (m *Machine) Load() {
	m.eng.Init(m.prog.GlobalEnd)
	for _, d := range m.prog.Data {
		m.Mem.WriteBytes(d.Addr, d.Bytes)
		m.eng.InitShadowRange(d.Addr, uint64(len(d.Bytes)))
	}
}

func (m *Machine) reg(r isa.Reg) uint64 {
	if r == isa.NoReg {
		return 0
	}
	return m.Regs[r]
}

func (m *Machine) setReg(r isa.Reg, v uint64) {
	if r != isa.NoReg && r.Valid() {
		m.Regs[r] = v
	}
}

func (m *Machine) effAddr(mr isa.MemRef) uint64 {
	a := m.reg(mr.Base) + uint64(mr.Disp)
	if mr.Index != isa.NoReg {
		a += m.reg(mr.Index) * uint64(mr.Scale)
	}
	return a
}

// feed hands µops to the timing model.
func (m *Machine) feed(uops []isa.Uop) {
	m.res.Uops += uint64(len(uops))
	if !m.timingOn() {
		if m.model != nil && m.sampler != nil {
			// Fast-forward functional warming: replay the access stream
			// against the cache hierarchy with timing off, so the next
			// warmup window opens on architecturally current cache state.
			for i := range uops {
				m.model.Warm(&uops[i])
			}
		}
		return
	}
	// A policy whose checking work runs as real instructions has each
	// metadata µop occupy a fetch slot too; Watchdog's injected µops
	// ride the macro instruction's own slot.
	instChecks := m.eng.Config().Policy.InstChecks()
	ca := mem.CodeAddr(m.pc)
	for i := range uops {
		if instChecks && uops[i].Meta != isa.MetaNone {
			m.model.OnInst(ca)
		}
		m.model.OnUop(&uops[i])
	}
}

// SetSink attaches a trace sink to the machine and its engine (nil
// detaches both).
func (m *Machine) SetSink(s *trace.Sink) {
	m.sink = s
	m.eng.SetSink(s)
}

// CancelCheckInterval is how many macro instructions Run executes
// between cooperative cancellation checks when a context is attached.
// The check itself is a non-blocking channel poll, so the amortized
// cost is one compare per instruction plus one poll per interval; at
// simulator speeds an interval is well under a millisecond of wall
// time, so cancellation still lands mid-simulation.
const CancelCheckInterval = 8192

// SetContext attaches a cancellable context to the run: Run polls
// ctx.Done() every CancelCheckInterval macro instructions and returns
// an error wrapping ctx.Err() once it fires, so callers can cancel a
// simulation mid-flight (deadline, SIGINT, server drain) instead of
// only between runs. Contexts that can never be cancelled
// (context.Background has a nil Done channel) leave the hot loop
// untouched, byte-identical results included.
func (m *Machine) SetContext(ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		m.cancelDone = nil
		m.cancelErr = nil
		return
	}
	m.cancelDone = ctx.Done()
	m.cancelErr = ctx.Err
	m.nextCheck = m.res.Insts + CancelCheckInterval
}

// fault records a memory-safety exception and halts.
func (m *Machine) fault(err error) {
	if me, ok := err.(*core.MemoryError); ok {
		m.res.MemErr = me
		if m.sink != nil {
			m.sink.Violation(me.PC, me.Addr, me.Ident.Key, me.Ident.Lock, me.Write, core.TraceOutcome(me))
		}
	}
	m.halted = true
}

// Run executes until halt, fault, or the instruction or memory limit.
// The returned error reports machine-level problems (illegal jumps,
// divide by zero, instruction- or memory-limit exhaustion), not
// memory-safety violations — those are reported in Result.MemErr.
//
// The returned Result is a copy that holds no pointer into the
// machine: a caller may keep it (a sweep keeps every cell's) without
// keeping the machine's memory pages, engine, pipeline model and cache
// hierarchy alive, and a later Run on the same machine leaves it as it
// was.
func (m *Machine) Run() (*Result, error) {
	for !m.halted {
		if m.cancelDone != nil && m.res.Insts >= m.nextCheck {
			m.nextCheck = m.res.Insts + CancelCheckInterval
			select {
			case <-m.cancelDone:
				// Close out the run as partial: fold whatever sample
				// window was open and capture the stats accumulated so
				// far, but flag them so no consumer mistakes an
				// interrupted sampled run for a completed measurement.
				m.res.Partial = true
				m.finish()
				return m.result(), fmt.Errorf("machine: canceled after %d instructions at pc %d: %w",
					m.res.Insts, m.pc, m.cancelErr())
			default:
			}
		}
		if m.res.Insts >= m.InstLimit {
			return m.result(), fmt.Errorf("machine: instruction limit (%d) exceeded at pc %d", m.InstLimit, m.pc)
		}
		if m.pc < 0 || m.pc >= len(m.prog.Insts) {
			return m.result(), fmt.Errorf("machine: pc %d out of range", m.pc)
		}
		if err := m.step(); err != nil {
			return m.result(), err
		}
	}
	m.finish()
	return m.result(), nil
}

// result copies the run's result out of the machine. Output keeps its
// backing array but is clipped to its length, so a later append by the
// machine or by the caller cannot write into the other's elements.
func (m *Machine) result() *Result {
	r := m.res
	r.Output = slices.Clip(r.Output)
	return &r
}

// timingOn reports whether µops should be fed to the timing model for
// the current instruction.
func (m *Machine) timingOn() bool {
	if m.model == nil {
		return false
	}
	return m.sampler == nil || m.sampler.timingOn()
}

func (m *Machine) finish() {
	m.closeSampling()
	if m.model != nil {
		m.res.Timing = m.model.Stats()
	}
	m.res.Engine = m.eng.Stats()
	m.res.Footprint = m.Mem.FootprintByRegion()
	m.res.Trace = m.sink
}

// step interprets one macro instruction.
func (m *Machine) step() error {
	pc := m.pc
	if m.Mem.Full() {
		return fmt.Errorf("machine: memory limit (%d pages of %d bytes) exceeded at pc %d", mem.MaxPages, mem.PageSize, pc)
	}
	in := &m.prog.Insts[pc]
	if m.sink != nil {
		m.sink.Inst(pc, in.Op)
	}
	m.res.Insts++
	ca := mem.CodeAddr(pc)
	if m.sampler != nil {
		m.sampleTick()
	}
	if m.timingOn() {
		m.model.OnInst(ca)
	} else if m.model != nil && m.sampler != nil {
		m.model.WarmFetch(ca) // fast-forward functional warming (I-side)
	}
	next := pc + 1

	// Serve the cached base µops (cracked once per static instruction)
	// into the reusable buffer; dynamic annotations are filled below.
	seq := m.crack.Cached(pc)
	base := m.uopArr[:len(seq)]
	copy(base, seq)

	switch in.Op {
	case isa.OpNop, isa.OpInvalid:
		m.feed(base)

	case isa.OpMov:
		m.setReg(in.Dst, m.reg(in.Src1))
		m.propCopy(in.Dst, in.Src1, base)

	case isa.OpMovi:
		m.setReg(in.Dst, uint64(in.Imm))
		m.eng.ImmPropagate(in.Dst, in.GlobalAddr)
		if m.model != nil {
			m.model.InvalidateMeta(in.Dst)
		}
		m.feed(base)

	case isa.OpLea:
		m.setReg(in.Dst, m.effAddr(in.Mem))
		m.propSelect(in.Dst, in.Mem.Base, in.Mem.Index, base)

	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor:
		if in.HasMem {
			if err := m.aluMem(in, base); err != nil {
				return err
			}
			break
		}
		m.setReg(in.Dst, intALU(in.Op, m.reg(in.Src1), m.reg(in.Src2)))
		m.propSelect(in.Dst, in.Src1, in.Src2, base)

	case isa.OpAddi, isa.OpSubi, isa.OpAndi, isa.OpOri, isa.OpXori:
		m.setReg(in.Dst, intALUImm(in.Op, m.reg(in.Src1), in.Imm))
		m.propCopy(in.Dst, in.Src1, base)

	case isa.OpShl, isa.OpShr, isa.OpSar, isa.OpMul:
		if in.HasMem && in.Op == isa.OpMul {
			if err := m.aluMem(in, base); err != nil {
				return err
			}
			break
		}
		m.setReg(in.Dst, intALU(in.Op, m.reg(in.Src1), m.reg(in.Src2)))
		m.propInvalidate(in.Dst, base)

	case isa.OpShli, isa.OpShri, isa.OpSari, isa.OpMuli:
		m.setReg(in.Dst, intALUImm(in.Op, m.reg(in.Src1), in.Imm))
		m.propInvalidate(in.Dst, base)

	case isa.OpDiv, isa.OpRem:
		d := int64(m.reg(in.Src2))
		if d == 0 {
			return fmt.Errorf("machine: divide by zero at pc %d", pc)
		}
		n := int64(m.reg(in.Src1))
		if in.Op == isa.OpDiv {
			m.setReg(in.Dst, uint64(n/d))
		} else {
			m.setReg(in.Dst, uint64(n%d))
		}
		m.propInvalidate(in.Dst, base)

	case isa.OpSetcc:
		v := uint64(0)
		if in.Cond.Eval(m.reg(in.Src1), m.reg(in.Src2)) {
			v = 1
		}
		m.setReg(in.Dst, v)
		m.propInvalidate(in.Dst, base)

	case isa.OpLd, isa.OpLds:
		if err := m.load(in, base); err != nil {
			return err
		}

	case isa.OpXchg:
		// Atomic exchange: macro instructions execute atomically on
		// the interleaved multi-context machine, so no other context
		// observes the intermediate state.
		addr := m.effAddr(in.Mem)
		if m.checkedAccess(in.Mem.Base, in.Mem.Index, addr, 8, true, base) {
			old := m.Mem.ReadU64(addr)
			m.Mem.WriteU64(addr, m.reg(in.Dst))
			m.setReg(in.Dst, old)
			m.eng.NonPtrLoad(in.Dst)
			if m.model != nil {
				m.model.InvalidateMeta(in.Dst)
			}
		}

	case isa.OpSt:
		if err := m.store(in, base); err != nil {
			return err
		}

	case isa.OpFld:
		addr := m.effAddr(in.Mem)
		if m.checkedAccess(in.Mem.Base, in.Mem.Index, addr, 8, false, base) {
			m.setReg(in.Dst, m.Mem.ReadU64(addr))
		}

	case isa.OpFst:
		addr := m.effAddr(in.Mem)
		if m.checkedAccess(in.Mem.Base, in.Mem.Index, addr, 8, true, base) {
			m.Mem.WriteU64(addr, m.reg(in.Src1))
		}

	case isa.OpFmov:
		m.setReg(in.Dst, m.reg(in.Src1))
		m.feed(base)
	case isa.OpFmovi:
		m.setReg(in.Dst, uint64(in.Imm))
		m.feed(base)
	case isa.OpFadd, isa.OpFsub, isa.OpFmul, isa.OpFdiv:
		a := math.Float64frombits(m.reg(in.Src1))
		b := math.Float64frombits(m.reg(in.Src2))
		var v float64
		switch in.Op {
		case isa.OpFadd:
			v = a + b
		case isa.OpFsub:
			v = a - b
		case isa.OpFmul:
			v = a * b
		default:
			v = a / b
		}
		m.setReg(in.Dst, math.Float64bits(v))
		m.feed(base)
	case isa.OpI2f:
		m.setReg(in.Dst, math.Float64bits(float64(int64(m.reg(in.Src1)))))
		m.feed(base)
	case isa.OpF2i:
		m.setReg(in.Dst, uint64(int64(math.Float64frombits(m.reg(in.Src1)))))
		m.propInvalidate(in.Dst, base)
	case isa.OpFcmp:
		a := math.Float64frombits(m.reg(in.Src1))
		b := math.Float64frombits(m.reg(in.Src2))
		var v int64
		switch {
		case a < b:
			v = -1
		case a > b:
			v = 1
		}
		m.setReg(in.Dst, uint64(v))
		m.propInvalidate(in.Dst, base)

	case isa.OpBr:
		taken := in.Cond.Eval(m.reg(in.Src1), m.reg(in.Src2))
		if m.bp != nil {
			pred := m.bp.PredictCond(ca)
			m.bp.UpdateCond(ca, taken, pred)
			base[0].Taken = taken
			base[0].Mispredict = pred != taken
		}
		if taken {
			next = int(in.Imm)
		}
		m.feed(base)

	case isa.OpJmp:
		next = int(in.Imm)
		base[0].Taken = true
		m.feed(base)

	case isa.OpJmpr:
		tgt, ok := mem.InstIndex(m.reg(in.Src1))
		if !ok {
			return fmt.Errorf("machine: indirect jump to non-code address %#x at pc %d", m.reg(in.Src1), pc)
		}
		m.annotateIndirect(ca, m.reg(in.Src1), &base[0])
		next = tgt
		m.feed(base)

	case isa.OpCall, isa.OpCallr:
		n, err := m.call(in, pc, ca, base)
		if err != nil {
			return err
		}
		next = n

	case isa.OpRet:
		n, err := m.ret(in, pc, ca, base)
		if err != nil {
			return err
		}
		next = n

	case isa.OpPush:
		addr := m.Regs[isa.SP] - 8
		if m.memInst(in, addr, true, in.Src1, isa.NoReg, base) {
			m.Regs[isa.SP] = addr
			m.Mem.WriteU64(addr, m.reg(in.Src1))
		}

	case isa.OpPop:
		addr := m.Regs[isa.SP]
		if m.memInst(in, addr, false, isa.NoReg, in.Dst, base) {
			m.setReg(in.Dst, m.Mem.ReadU64(addr))
			m.Regs[isa.SP] = addr + 8
		}

	case isa.OpSetident:
		m.setReg(in.Dst, m.reg(in.Src1))
		m.eng.SetIdent(in.Dst, m.reg(in.Src2), m.reg(in.Src3))
		m.feed(base)
	case isa.OpGetident:
		key, lock := m.eng.GetIdent(in.Src1)
		m.setReg(in.Dst, key)
		m.setReg(in.Src3, lock)
		m.eng.InvalidateReg(in.Dst)
		m.eng.InvalidateReg(in.Src3)
		m.feed(base)
	case isa.OpSetbound:
		m.setReg(in.Dst, m.reg(in.Src1))
		// Preserve the identifier already on Src1, attach bounds.
		if in.Dst != in.Src1 {
			m.eng.SetRegMeta(in.Dst, m.eng.RegMeta(in.Src1))
		}
		m.eng.SetBound(in.Dst, m.reg(in.Src2), m.reg(in.Src3))
		m.feed(base)

	case isa.OpSys:
		m.syscall(in)
		m.feed(base)

	case isa.OpHalt:
		m.halted = true
		m.feed(base)

	default:
		return fmt.Errorf("machine: unimplemented opcode %s at pc %d", in.Op.Name(), pc)
	}

	if !m.halted {
		m.pc = next
	}
	return nil
}

// propCopy applies unambiguous metadata copy propagation.
func (m *Machine) propCopy(dst, src isa.Reg, base []isa.Uop) {
	uops := m.eng.CopyPropagate(dst, src)
	if len(uops) == 0 {
		if m.model != nil {
			m.model.PropagateMeta(dst, src)
		}
		m.traceCopyElim(dst, src)
	}
	m.feed(base)
	m.feed(uops)
}

// propSelect applies the either-input-might-be-a-pointer rule.
func (m *Machine) propSelect(dst, s1, s2 isa.Reg, base []isa.Uop) {
	uops := m.eng.SelectPropagate(dst, s1, s2)
	if len(uops) == 0 {
		if meta := m.eng.RegMeta(dst); meta.Valid() {
			src := s1
			if !(s1.IsInt() && m.eng.RegMeta(s1) == meta) {
				src = s2
			}
			if m.model != nil {
				m.model.PropagateMeta(dst, src)
			}
			m.traceCopyElim(dst, src)
		} else if m.model != nil {
			m.model.InvalidateMeta(dst)
		}
	}
	m.feed(base)
	m.feed(uops)
}

// traceCopyElim emits a copy-elimination event when the rename stage
// absorbed a metadata copy that would otherwise have been a select µop.
func (m *Machine) traceCopyElim(dst, src isa.Reg) {
	if m.sink != nil && m.eng.CopyEliminated(dst) {
		m.sink.CopyElim(m.pc, dst, src)
	}
}

// propInvalidate marks dst as never-a-pointer.
func (m *Machine) propInvalidate(dst isa.Reg, base []isa.Uop) {
	m.eng.InvalidateReg(dst)
	if m.model != nil {
		m.model.InvalidateMeta(dst)
	}
	m.feed(base)
}

func intALU(op isa.Opcode, a, b uint64) uint64 {
	switch op {
	case isa.OpAdd:
		return a + b
	case isa.OpSub:
		return a - b
	case isa.OpAnd:
		return a & b
	case isa.OpOr:
		return a | b
	case isa.OpXor:
		return a ^ b
	case isa.OpShl:
		return a << (b & 63)
	case isa.OpShr:
		return a >> (b & 63)
	case isa.OpSar:
		return uint64(int64(a) >> (b & 63))
	case isa.OpMul:
		return a * b
	}
	return 0
}

func intALUImm(op isa.Opcode, a uint64, imm int64) uint64 {
	switch op {
	case isa.OpAddi:
		return a + uint64(imm)
	case isa.OpSubi:
		return a - uint64(imm)
	case isa.OpAndi:
		return a & uint64(imm)
	case isa.OpOri:
		return a | uint64(imm)
	case isa.OpXori:
		return a ^ uint64(imm)
	case isa.OpShli:
		return a << (uint64(imm) & 63)
	case isa.OpShri:
		return a >> (uint64(imm) & 63)
	case isa.OpSari:
		return uint64(int64(a) >> (uint64(imm) & 63))
	case isa.OpMuli:
		return a * uint64(imm)
	}
	return 0
}
