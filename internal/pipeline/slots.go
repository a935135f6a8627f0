package pipeline

import "watchdog/internal/isa"

// Resource indices into a slotTable entry. The functional-unit and
// port classes come first, so an isa.ExecClass indexes its own count;
// index isa.ExecNone is unused, because ExecNone µops take no issue
// slot and no unit.
const (
	resDispatch = int(isa.NumExecClasses) + iota
	resIssue
	resRetire
	numResources
)

// slotRing is the number of consecutive cycles a slotTable tracks.
// Every live reservation lies in [rob.peek()+1, lastRetire], the span
// of one ROB's worth of retirements; even a ROB of dependent loads
// that miss every TLB and cache level spans well under 2^15 cycles
// (TestSlotSpanBound).
const slotRing = 1 << 15

// slotEntry is one cycle's usage of every bandwidth-limited resource.
type slotEntry struct {
	cycle int64
	n     [numResources]uint8
}

// slotTable tracks per-cycle usage of every bandwidth-limited resource
// (dispatch, issue and retire slots, functional units and cache ports)
// over a sliding window of slotRing cycles. Entry t&(slotRing-1)
// belongs to cycle t only while its cycle field says so; any other
// cycle reads as unused, and the first reservation at t resets the
// entry. One entry holds every resource's count, so the issue search's
// two probes read one entry.
type slotTable struct {
	width [numResources]uint8
	buf   []slotEntry
}

// newSlotTable builds a table with each resource's width clamped to
// 1..255.
func newSlotTable(width [numResources]int) slotTable {
	s := slotTable{buf: make([]slotEntry, slotRing)}
	for r, w := range width {
		s.width[r] = uint8(min(max(w, 1), 255))
	}
	return s
}

// count returns resource r's usage at cycle t.
func (s *slotTable) count(r int, t int64) uint8 {
	e := &s.buf[int(t)&(slotRing-1)]
	if e.cycle != t {
		return 0
	}
	return e.n[r]
}

// freeAt reports whether resource r has a free slot at cycle t.
func (s *slotTable) freeAt(r int, t int64) bool {
	return s.count(r, t) < s.width[r]
}

// entry returns cycle t's entry, resetting it if it last tracked
// another cycle.
func (s *slotTable) entry(t int64) *slotEntry {
	e := &s.buf[int(t)&(slotRing-1)]
	if e.cycle != t {
		*e = slotEntry{cycle: t}
	}
	return e
}

// reserve finds the earliest cycle >= t with a free slot of resource
// r, consumes it, and returns the cycle.
func (s *slotTable) reserve(r int, t int64) int64 {
	for !s.freeAt(r, t) {
		t++
	}
	s.entry(t).n[r]++
	return t
}

// take finds the earliest cycle >= t at which resources a and b (which
// must differ) both have a free slot, consumes one of each, and
// returns the cycle.
func (s *slotTable) take(a, b int, t int64) int64 {
	for {
		e := &s.buf[int(t)&(slotRing-1)]
		if e.cycle != t || e.n[a] < s.width[a] && e.n[b] < s.width[b] {
			break
		}
		t++
	}
	e := s.entry(t)
	e.n[a]++
	e.n[b]++
	return t
}

// iqTimes models issue-queue occupancy: the multiset of issue cycles
// of the current occupants. Entries free at issue, which is out of
// order, so dispatch needs pop-the-minimum — but the values are cycle
// numbers clustered near the pipeline's current time, so a flat ring
// of per-cycle occupant counts with a monotonic scan cursor replaces
// the former min-heap's O(log n) sift with O(1) amortized bucket
// arithmetic (minHeap.pop was ~14% of simulator CPU).
type iqTimes struct {
	// cnt[t & (iqRing-1)] = occupants issuing at cycle t.
	cnt []int32
	n   int
	// head is a lower bound on the minimum occupied cycle; pop scans
	// forward from it, push moves it back when an earlier cycle
	// arrives.
	head int64
}

// iqRing bounds the spread between the earliest and latest issue
// cycles of in-flight IQ occupants. The window holds at most IQSize
// (~54) µops whose issue times differ by at most a few hundred cycles
// (the worst single-µop latency chain), so 2^16 cycles of headroom can
// only be exceeded by a model bug — push asserts it.
const iqRing = 1 << 16

func newIQ() *iqTimes { return &iqTimes{cnt: make([]int32, iqRing)} }

func (q *iqTimes) len() int { return q.n }

// push records an occupant issuing at cycle t.
func (q *iqTimes) push(t int64) {
	if t < q.head {
		q.head = t
	}
	if t-q.head >= iqRing {
		panic("pipeline: issue-time spread exceeds IQ ring capacity")
	}
	q.cnt[int(t)&(iqRing-1)]++
	q.n++
}

// pop removes and returns the minimum occupied cycle.
func (q *iqTimes) pop() int64 {
	for q.cnt[int(q.head)&(iqRing-1)] == 0 {
		q.head++
	}
	q.cnt[int(q.head)&(iqRing-1)]--
	q.n--
	return q.head
}

// ring is a fixed-size ring of int64 timestamps used for window
// occupancy constraints (ROB/LQ/SQ): element i of the ring holds
// the freeing time of the entry allocated size positions ago.
type ring struct {
	buf []int64
	n   uint64
}

func newRing(size int) *ring {
	return &ring{buf: make([]int64, size)}
}

// push records the freeing time of the newest entry and returns the
// freeing time of the entry that must have drained for a new slot to
// exist (zero until the ring has wrapped).
func (r *ring) push(freeAt int64) (mustDrain int64) {
	mustDrain = r.peek()
	r.buf[r.n%uint64(len(r.buf))] = freeAt
	r.n++
	return mustDrain
}

// peek returns the freeing time of the oldest entry in the ring
// without modifying it (zero until the ring is full).
func (r *ring) peek() int64 {
	if r.n < uint64(len(r.buf)) {
		return 0
	}
	return r.buf[r.n%uint64(len(r.buf))]
}
