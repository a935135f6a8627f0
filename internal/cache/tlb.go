package cache

// TLB is a set-associative translation lookaside buffer over 4 KiB
// pages. A miss charges a fixed page-walk penalty.
type TLB struct {
	setArray
	stampCtr    uint64
	WalkPenalty int

	Accesses uint64
	Misses   uint64
}

// NewTLB builds a TLB with entries total entries.
func NewTLB(entries, ways, walkPenalty int) *TLB {
	sets := entries / ways
	if sets < 1 {
		sets = 1
	}
	return &TLB{setArray: newSetArray(sets, ways), WalkPenalty: walkPenalty}
}

// Lookup translates the page holding addr, returning the added
// latency (0 on hit, the walk penalty on miss).
func (t *TLB) Lookup(addr uint64) int {
	t.Accesses++
	t.stampCtr++
	page := addr >> 12
	set := t.set(page)
	if i := find(set, page); i >= 0 {
		set[i].stamp = t.stampCtr
		return 0
	}
	t.Misses++
	set = t.fill(page)
	set[victim(set)] = line{tag: page, stamp: t.stampCtr}
	return t.WalkPenalty
}
