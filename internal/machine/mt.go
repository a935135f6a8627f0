package machine

import (
	"fmt"

	"watchdog/internal/asm"
	"watchdog/internal/core"
	"watchdog/internal/isa"
	"watchdog/internal/mem"
)

// MT interleaves several hardware contexts (threads) over one shared
// memory, executing macro instructions round-robin, one per context
// per turn — each macro instruction is atomic, which is what makes the
// xchg spinlock primitive work. This implements the multithreading
// requirements the paper lays out in Section 7: (1) identifiers are
// allocated from partitioned per-thread key spaces (Engine.SetContext
// for stack frames, per-thread key counters in the MT runtime for the
// heap), and (2)/(3) pointer metadata accesses and check+access pairs
// execute atomically because the machine interleaves at
// macro-instruction granularity (the paper's two-location atomic
// update, made trivial here by the execution model).
//
// MT runs functionally (no timing model): the paper does not evaluate
// multithreaded performance either.
type MT struct {
	Contexts []*Machine
}

// NewMT builds an n-context machine over shared memory. Each context
// gets its own engine (sidecar register state is per core) sharing the
// memory, a disjoint stack carved from the stack region, a partitioned
// stack-identifier space, and starts at the entry label
// "thread<tid>" (falling back to "main" if absent).
func NewMT(prog *asm.Program, memory *mem.Memory, cfg core.Config, n int) (*MT, error) {
	if n < 1 || n > 8 {
		return nil, fmt.Errorf("machine: context count %d out of range [1,8]", n)
	}
	mt := &MT{}
	for tid := 0; tid < n; tid++ {
		eng := core.NewEngine(cfg, memory)
		m := New(prog, memory, eng, nil, nil)
		m.Tid = tid
		entry, ok := prog.Symbols[fmt.Sprintf("__mt_start%d", tid)]
		if !ok {
			entry, ok = prog.Symbols[fmt.Sprintf("thread%d", tid)]
		}
		if !ok {
			entry, ok = prog.Symbols["main"]
		}
		if !ok {
			return nil, fmt.Errorf("machine: no entry for context %d", tid)
		}
		m.pc = entry
		// Disjoint per-thread stacks within the stack region.
		m.Regs[isa.SP] = mem.StackTop - uint64(tid)*(mem.StackMax/8)
		mt.Contexts = append(mt.Contexts, m)
	}
	// Shared memory is initialized once; each engine then takes its
	// per-context identifier state and context 0's Go-side tables.
	for tid, m := range mt.Contexts {
		if tid == 0 {
			m.Load()
		} else {
			m.eng.Init(prog.GlobalEnd)
			m.eng.ShareTables(mt.Contexts[0].eng)
		}
		m.eng.SetContext(tid)
	}
	return mt, nil
}

// SetRuntimeEnd marks instructions below end as runtime-library code
// in every context — the multi-context equivalent of
// sim.Config.RuntimeEnd. The policies that exempt the runtime from
// checking need this before Run, or the allocator's own bookkeeping
// writes fault.
func (mt *MT) SetRuntimeEnd(end int) {
	for _, c := range mt.Contexts {
		c.eng.SetUncheckedBelow(end)
	}
}

// Run interleaves the contexts until all halt, any context faults, or
// the instruction limit, counted across contexts, is exhausted. It
// returns the per-context results; a memory-safety exception in any
// context stops the whole machine (the process would trap). As with
// Machine.Run, each result is a copy that holds no pointer into its
// context.
func (mt *MT) Run() ([]*Result, error) {
	var total uint64
	for {
		active := false
		for _, c := range mt.Contexts {
			if c.halted {
				continue
			}
			active = true
			if total >= instLimit {
				return mt.finish(), fmt.Errorf("machine: multi-context instruction limit exceeded")
			}
			if c.pc < 0 || c.pc >= len(c.prog.Insts) {
				return mt.finish(), fmt.Errorf("machine: context %d pc %d out of range", c.Tid, c.pc)
			}
			if err := c.step(); err != nil {
				return mt.finish(), fmt.Errorf("context %d: %w", c.Tid, err)
			}
			total++
			if c.res.MemErr != nil {
				// A violation traps the whole process.
				return mt.finish(), nil
			}
		}
		if !active {
			return mt.finish(), nil
		}
	}
}

func (mt *MT) finish() []*Result {
	out := make([]*Result, len(mt.Contexts))
	for i, c := range mt.Contexts {
		c.finish()
		out[i] = c.result()
	}
	return out
}

// FirstViolation returns the first context result carrying a
// memory-safety exception, if any.
func FirstViolation(results []*Result) (int, *core.MemoryError) {
	for i, r := range results {
		if r.MemErr != nil {
			return i, r.MemErr
		}
	}
	return -1, nil
}
