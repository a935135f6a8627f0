package isa

import "fmt"

// UopOp identifies a µop produced by cracking a macro instruction or
// injected by the Watchdog engine.
type UopOp uint8

const (
	UopNop UopOp = iota

	// Data computation.
	UopAlu  // 1-cycle integer op (move, add, logic, shift, setcc, lea)
	UopMul  // integer multiply
	UopDiv  // integer divide/remainder
	UopFAlu // FP add/sub/convert/compare
	UopFMul
	UopFDiv

	// Memory.
	UopLoad
	UopStore
	UopFLoad
	UopFStore

	// Control.
	UopBranch // conditional
	UopJump   // unconditional / indirect / call-ret redirect

	// Watchdog-injected µops (Sections 3-6 of the paper).
	UopCheck       // lock-and-key validity check: load lock location, compare key
	UopBoundCheck  // bounds-only range check (2-µop bounds mode)
	UopCheckFull   // fused identifier + bounds check (1-µop bounds mode)
	UopShadowLoad  // load pointer metadata from the shadow space
	UopShadowStore // store pointer metadata to the shadow space
	UopSelectID    // metadata select/propagate (Figure 2d)
	UopSetIdent    // runtime -> hardware identifier association
	UopGetIdent    // hardware -> runtime identifier retrieval (one per half)
	UopSetBound    // runtime -> hardware bounds association

	// System.
	UopSys
	UopHalt

	// NumUopOps is the number of µop opcodes (array-sized accounting,
	// e.g. the per-kind µop counts in pipeline.Stats).
	NumUopOps
)

var uopNames = [NumUopOps]string{
	"nop", "alu", "mul", "div", "falu", "fmul", "fdiv",
	"load", "store", "fload", "fstore", "branch", "jump",
	"check", "boundcheck", "checkfull", "shadowload", "shadowstore",
	"selectid", "setident", "getident", "setbound", "sys", "halt",
}

// String returns the µop mnemonic.
func (u UopOp) String() string {
	if int(u) < len(uopNames) {
		return uopNames[u]
	}
	return fmt.Sprintf("uop?%d", uint8(u))
}

// ExecClass names the functional-unit / port class a µop issues to
// (Table 2 of the paper).
type ExecClass uint8

const (
	ExecNone   ExecClass = iota // nop, halt: dispatch and retire bandwidth only
	ExecALU                     // 6 units
	ExecBr                      // 1 unit
	ExecLoad                    // 2 load ports
	ExecStore                   // 1 store port
	ExecMulDiv                  // 2 units
	ExecFPAlu                   // 2 units
	ExecFPMul                   // 1 unit
	ExecFPDiv                   // 1 unit
	ExecLock                    // dedicated lock-location-cache port
	NumExecClasses
)

var execNames = [NumExecClasses]string{
	"none", "alu", "br", "load", "store", "muldiv", "fpalu", "fpmul", "fpdiv", "lock",
}

// String returns the class name.
func (c ExecClass) String() string {
	if int(c) < len(execNames) {
		return execNames[c]
	}
	return fmt.Sprintf("exec?%d", uint8(c))
}

// MetaClass buckets injected µops for the Figure 8 overhead breakdown.
type MetaClass uint8

const (
	MetaNone     MetaClass = iota // program µop, not injected
	MetaCheck                     // check / boundcheck / checkfull µops
	MetaPtrLoad                   // shadow-space metadata loads
	MetaPtrStore                  // shadow-space metadata stores
	MetaOther                     // propagation + allocation/deallocation management
	NumMetaClasses
)

var metaNames = [NumMetaClasses]string{"prog", "check", "ptrload", "ptrstore", "other"}

// String returns the bucket name.
func (m MetaClass) String() string { return metaNames[m] }

// Timing-only temporary registers used by cracking (e.g. the loaded
// operand of an ALU-with-memory macro op, the return address of ret).
// They exist only in the timing model's dependence table.
const (
	Tmp0 Reg = NumRegs + iota
	Tmp1
	// MetaRegBase is the offset of the decoupled metadata register
	// file in the timing dependence table: metadata mapping of integer
	// register r lives at MetaRegBase+r.
	MetaRegBase
	// NumTimingRegs is the size of the timing dependence table.
	NumTimingRegs = int(MetaRegBase) + NumIntRegs
)

// Uop is a single µop instance: the decode/crack output plus the
// dynamic annotations the machine fills in before handing it to the
// timing model (effective address, branch outcome).
type Uop struct {
	Op    UopOp
	Class ExecClass

	// Data-register dependencies (architectural; renaming removes
	// false dependencies so architectural names suffice for timing).
	Dst  Reg
	Src1 Reg
	Src2 Reg
	Src3 Reg // store-data register; NoReg elsewhere

	// Metadata-register dependencies (decoupled file; NoReg if none).
	MDst Reg
	MSrc Reg

	// Memory annotations, filled by the machine functionally.
	Addr   uint64
	Width  uint8
	IsMem  bool
	IsWr   bool
	Shadow bool // accesses the shadow metadata space
	Lock   bool // accesses the lock-location region

	// Branch annotations, filled by the machine.
	IsBranch   bool
	Taken      bool
	Mispredict bool

	// Meta is the Figure 8 accounting bucket.
	Meta MetaClass
}

// String renders the µop for traces.
func (u Uop) String() string {
	s := u.Op.String()
	if u.Dst.Valid() {
		s += " " + u.Dst.String()
	}
	if u.IsMem {
		s += fmt.Sprintf(" [%#x]:%d", u.Addr, u.Width)
	}
	if u.Meta != MetaNone {
		s += " <" + u.Meta.String() + ">"
	}
	return s
}
