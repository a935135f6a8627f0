// Package core implements Watchdog itself — the paper's contribution:
// lock-and-key allocation identifiers, disjoint shadow-space pointer
// metadata, µop injection for checking and metadata propagation,
// conservative and ISA-assisted pointer identification, decoupled
// register metadata with rename-stage copy elimination, and the
// pointer-based bounds-checking extension for full memory safety.
//
// The package also implements the comparison policies of Table 1: a
// location-based checker (allocation-status shadow state, which cannot
// detect use-after-free once memory is reallocated), a software-only
// identifier-based checker in the style of CETS (checks expanded to
// real instruction sequences instead of injected µops), pointer
// tagging (xTag) and implicit identifiers (DangKiller). What differs
// between the policies is declared once, in policyTable.
package core

import (
	"fmt"

	"watchdog/internal/mem"
)

// Policy selects the checking scheme.
type Policy uint8

const (
	// PolicyBaseline runs with no instrumentation at all.
	PolicyBaseline Policy = iota
	// PolicyWatchdog is the paper's hardware identifier-based checker.
	PolicyWatchdog
	// PolicyLocation is the location-based comparator: an
	// allocation-status lookup on every access (Table 1, top half).
	PolicyLocation
	// PolicySoftware is the software-only identifier-based comparator:
	// the same lock-and-key checks, but expanded into real instruction
	// sequences (loads, compares, branches) on the regular pipeline
	// resources, as a compiler-instrumentation scheme would emit.
	PolicySoftware
	// PolicyXTag is the pointer-tagging comparator: a small tag packed
	// into unused high address bits, matched against a per-word tag
	// table on every dereference. The tag is the low Config.TagBits
	// bits of the allocation key, so two allocations whose keys agree
	// modulo 2^TagBits alias and a dangling dereference into the
	// reallocated block passes silently (the tag-width false-negative
	// class the differential harness asserts).
	PolicyXTag
	// PolicyDangKiller is the implicit-identifier comparator: the key
	// is derived from the allocation site and checked without any
	// shadow-metadata load — the check is a single ALU µop against the
	// allocation-generation table, and pointer loads/stores carry no
	// metadata traffic at all.
	PolicyDangKiller
)

// checkExec is how a policy's checks execute.
type checkExec uint8

const (
	checkNone  checkExec = iota // no checks at all
	checkUops                   // µops injected into the checked macro instruction
	checkInsts                  // instructions, each taking its own fetch slot
)

// metaHome is where a policy keeps the metadata of pointers in memory.
type metaHome uint8

const (
	metaNowhere metaHome = iota // pointers carry no metadata
	metaShadow                  // the simulated shadow space
	metaTable                   // a Go-side table, at no simulated cost
)

// policyInfo is what differs between policies. Everything else —
// the register metadata, the verdict path, the trace — is shared.
type policyInfo struct {
	name string
	// idents: the runtime passes lock-and-key identifiers to the
	// hardware (setident/getident, Figure 3a/b).
	idents bool
	// frames: call and ret keep stack-frame identifiers (Figure 3c/d).
	frames bool
	// exempt: runtime-library code is not checked (software tools do
	// not instrument the allocator itself).
	exempt bool
	checks checkExec
	meta   metaHome
	// hooks: the runtime reports malloc and free (SysMarkAlloc,
	// SysMarkFree).
	hooks bool
}

// selects reports whether register metadata moves through select µops:
// only a hardware scheme that carries pointer metadata keeps it in
// decoupled metadata registers (Section 6), whose copies the rename
// stage can eliminate.
func (p policyInfo) selects() bool { return p.checks == checkUops && p.meta == metaShadow }

// policyTable declares each policy once. The engine, the machine and
// the runtime read their policy decisions from it; only what a check
// compares — Engine.Access, the allocation hooks and the location
// policy's status table — is written per policy.
var policyTable = [...]policyInfo{
	PolicyBaseline:   {name: "baseline"},
	PolicyWatchdog:   {name: "watchdog", idents: true, frames: true, checks: checkUops, meta: metaShadow},
	PolicyLocation:   {name: "location", exempt: true, checks: checkUops, hooks: true},
	PolicySoftware:   {name: "software", idents: true, frames: true, exempt: true, checks: checkInsts, meta: metaShadow},
	PolicyXTag:       {name: "xtag", idents: true, exempt: true, checks: checkInsts, meta: metaTable, hooks: true},
	PolicyDangKiller: {name: "dangkiller", idents: true, frames: true, exempt: true, checks: checkInsts, meta: metaTable},
}

// info returns the policy's row; an undeclared policy checks nothing.
func (p Policy) info() policyInfo {
	if int(p) < len(policyTable) {
		return policyTable[p]
	}
	return policyInfo{}
}

// String names the policy.
func (p Policy) String() string {
	if int(p) < len(policyTable) {
		return policyTable[p].name
	}
	return fmt.Sprintf("policy?%d", uint8(p))
}

// Idents reports whether the policy's runtime passes lock-and-key
// identifiers to the hardware with setident and checks them on free.
func (p Policy) Idents() bool { return p.info().idents }

// AllocHooks reports whether the policy's runtime reports each malloc
// and free to the engine (SysMarkAlloc, SysMarkFree).
func (p Policy) AllocHooks() bool { return p.info().hooks }

// InstChecks reports whether the policy's checking work runs as
// instructions, each taking a fetch slot of its own; injected µops ride
// the checked macro instruction's slot.
func (p Policy) InstChecks() bool { return p.info().checks == checkInsts }

// PtrPolicy selects how pointer loads/stores are identified
// (Section 5).
type PtrPolicy uint8

const (
	// PtrConservative treats every 8-byte integer load/store as a
	// potential pointer operation (Section 5.1).
	PtrConservative PtrPolicy = iota
	// PtrISAAssisted uses load/store pointer annotations where present
	// and a profile of static instructions that ever touched valid
	// metadata otherwise (Section 5.2).
	PtrISAAssisted
)

// String names the pointer-identification policy.
func (p PtrPolicy) String() string {
	if p == PtrConservative {
		return "conservative"
	}
	return "isa-assisted"
}

// BoundsMode selects the bounds-checking extension (Section 8).
type BoundsMode uint8

const (
	// BoundsOff checks use-after-free only.
	BoundsOff BoundsMode = iota
	// BoundsFused performs the identifier and bounds checks in a
	// single widened check µop.
	BoundsFused
	// BoundsSeparate injects an additional bounds-check µop per
	// memory operation.
	BoundsSeparate
)

// String names the bounds mode.
func (b BoundsMode) String() string {
	switch b {
	case BoundsOff:
		return "off"
	case BoundsFused:
		return "fused-1uop"
	case BoundsSeparate:
		return "separate-2uop"
	}
	return fmt.Sprintf("bounds?%d", uint8(b))
}

// Config selects the engine behaviour.
type Config struct {
	Policy    Policy
	PtrPolicy PtrPolicy
	Bounds    BoundsMode
	// LockCache routes check µops to the dedicated lock location
	// cache port; must match the hierarchy configuration.
	LockCache bool
	// CopyElim enables rename-stage metadata copy elimination
	// (Section 6.2); when false every metadata propagation costs a
	// select µop.
	CopyElim bool
	// Profiling records which static instructions touch valid
	// metadata into Profile (run with conservative identification).
	Profiling bool
	// Profile provides the static pointer-op set for ISA-assisted
	// identification of unannotated instructions.
	Profile *Profile
	// TagBits is the xTag pointer-tag width in bits (1..8; 0 selects
	// DefaultTagBits). Narrower tags alias more often: a dangling
	// pointer into a reallocated block passes whenever the old and new
	// keys agree modulo 2^TagBits.
	TagBits int
}

// DefaultTagBits is the xTag tag width when Config.TagBits is zero:
// one full byte per word, the widest tag the scheme's per-word tag
// table holds.
const DefaultTagBits = 8

// DefaultConfig returns the paper's primary configuration: Watchdog
// with ISA-assisted identification, lock location cache, copy
// elimination, and UAF checking only.
func DefaultConfig() Config {
	return Config{
		Policy:    PolicyWatchdog,
		PtrPolicy: PtrISAAssisted,
		Bounds:    BoundsOff,
		LockCache: true,
		CopyElim:  true,
	}
}

// Identifier keys. Key 0 is INVALID; key 1 is the global identifier;
// stack keys count up from StackKeyBase; the runtime allocates heap
// keys from HeapKeyBase so key spaces never collide (identifiers are
// never reused, Section 2.2).
const (
	InvalidKey    uint64 = 0
	GlobalKey     uint64 = 1
	StackKeyBase  uint64 = 2
	HeapKeyBase   uint64 = 1 << 32
	GlobalLockLoc        = mem.LockBase // reserved lock location for the global identifier
	// HeapLockBase is where the runtime's lock-location arena starts
	// (the word at mem.LockBase itself is the global lock location).
	HeapLockBase = mem.LockBase + 64
)

// Ident is a lock-and-key identifier (Section 4.1).
type Ident struct {
	Key  uint64
	Lock uint64 // address of the lock location
}

// Valid reports whether the identifier is structurally valid (a real
// key and a lock location). Whether it is *live* additionally requires
// mem[Lock] == Key.
func (id Ident) Valid() bool { return id.Key != InvalidKey && id.Lock != 0 }

// Meta is the full per-pointer metadata: identifier plus the bounds
// extension's base and bound (Section 8; 256 bits per pointer).
type Meta struct {
	Ident
	Base  uint64
	Bound uint64 // one past the last addressable byte
}

// ErrorKind classifies detected violations.
type ErrorKind uint8

const (
	// ErrUseAfterFree is a dereference through an identifier whose
	// lock location no longer holds its key.
	ErrUseAfterFree ErrorKind = iota
	// ErrOutOfBounds is a dereference outside [Base, Bound).
	ErrOutOfBounds
	// ErrNoMetadata is a dereference through a register with no valid
	// pointer metadata (e.g. a fabricated address).
	ErrNoMetadata
	// ErrUnallocated is the location-based checker's violation: the
	// target address is not currently allocated.
	ErrUnallocated
)

// String names the error kind.
func (k ErrorKind) String() string {
	switch k {
	case ErrUseAfterFree:
		return "use-after-free"
	case ErrOutOfBounds:
		return "out-of-bounds"
	case ErrNoMetadata:
		return "no-metadata"
	case ErrUnallocated:
		return "unallocated-access"
	}
	return fmt.Sprintf("err?%d", uint8(k))
}

// MemoryError is the exception a failed check raises.
type MemoryError struct {
	Kind  ErrorKind
	PC    int    // macro-instruction index
	Addr  uint64 // the faulting effective address
	Write bool
	Ident Ident
}

// Error implements the error interface.
func (e *MemoryError) Error() string {
	dir := "read"
	if e.Write {
		dir = "write"
	}
	return fmt.Sprintf("%s: %s of %#x at pc %d (key=%d lock=%#x)",
		e.Kind, dir, e.Addr, e.PC, e.Ident.Key, e.Ident.Lock)
}

// Profile is the set of static memory instructions observed to load or
// store valid pointer metadata — the paper's stand-in for compiler
// annotations (Section 5.2).
type Profile struct {
	ptr map[int]bool
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{ptr: make(map[int]bool)} }

// Mark records the static instruction at pc as a pointer operation.
func (p *Profile) Mark(pc int) { p.ptr[pc] = true }

// IsPointerOp reports whether pc was marked.
func (p *Profile) IsPointerOp(pc int) bool { return p != nil && p.ptr[pc] }

// Len returns the number of marked static instructions.
func (p *Profile) Len() int { return len(p.ptr) }
