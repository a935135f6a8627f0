package isa

// MaxUopsPerInst is the longest base µop sequence Crack produces for
// any macro instruction (xchg, ret and call crack into three µops).
// Machine-side step buffers are sized by it; TestCrackMaxUops asserts
// the bound over the whole opcode space.
const MaxUopsPerInst = 3

// CrackCache is the per-PC cracked-µop cache: every static instruction
// of a program is cracked exactly once, and the immutable base
// sequence is served for each dynamic execution. This mirrors a real
// front end's µop cache — the crack output depends only on the static
// instruction, so re-deriving it on every dynamic step (as the
// pre-cache simulator did) is pure redundancy. Callers must copy the
// returned sequence into a private buffer before filling dynamic
// annotations (effective addresses, branch outcomes).
type CrackCache struct {
	// off[pc]..off[pc+1] delimit pc's µops within buf; a flat backing
	// array keeps the whole cache cache-line-friendly.
	off []uint32
	buf []Uop
}

// NewCrackCache cracks every instruction of the program once.
func NewCrackCache(insts []Inst) *CrackCache { return NewCrackCacheFrom(nil, insts) }

// NewCrackCacheFrom builds the cache of a program whose first
// prefix.Len() instructions are the ones prefix was built from: it
// copies their µops and cracks only the rest. Crack reads no field a
// label fixup patches, so a prefix cracked before its labels were
// resolved serves every program that starts with it. A nil prefix
// cracks the whole program.
func NewCrackCacheFrom(prefix *CrackCache, insts []Inst) *CrackCache {
	var n int
	var uops []Uop
	if prefix != nil {
		n, uops = prefix.Len(), prefix.buf
	}
	// Room for two µops an instruction: programs average about 1.1,
	// so the buffer is allocated once.
	c := &CrackCache{
		off: make([]uint32, len(insts)+1),
		buf: make([]Uop, len(uops), len(uops)+2*(len(insts)-n)),
	}
	if prefix != nil {
		copy(c.off, prefix.off)
	}
	copy(c.buf, uops)
	for i := n; i < len(insts); i++ {
		c.buf = Crack(&insts[i], c.buf)
		c.off[i+1] = uint32(len(c.buf))
	}
	return c
}

// Len returns the number of instructions the cache covers.
func (c *CrackCache) Len() int { return len(c.off) - 1 }

// Cached returns the base µop sequence of the instruction at pc. The
// slice aliases the cache (full-slice expression, so appends cannot
// clobber a neighbour) and must not be mutated.
func (c *CrackCache) Cached(pc int) []Uop {
	lo, hi := c.off[pc], c.off[pc+1]
	return c.buf[lo:hi:hi]
}
