package pipeline

// slotWindow tracks per-cycle usage of a bandwidth-limited resource
// (issue slots, functional units, cache ports, retire slots) over a
// sliding window of cycles. Each ring slot packs the cycle it tracks
// and that cycle's usage count into one word, so a probe touches a
// single cache line and the lazy reset (a new cycle mapping onto a
// ring position) is a plain comparison — this is the flat structure
// the issue-search loop hammers on every µop.
type slotWindow struct {
	width uint64
	// buf[t & (slotRing-1)] = t<<slotCountBits | count. Counts are
	// bounded by width, which newSlots caps below 1<<slotCountBits.
	buf []uint64
}

const (
	slotRing = 1 << 15
	// slotCountBits is the low-bit budget for the usage count; cycles
	// occupy the remaining 54 bits (enough for ~10^16 cycles).
	slotCountBits = 10
	slotCountMask = 1<<slotCountBits - 1
)

func newSlots(width int) *slotWindow {
	if width < 1 {
		width = 1
	}
	if width > slotCountMask {
		width = slotCountMask
	}
	return &slotWindow{width: uint64(width), buf: make([]uint64, slotRing)}
}

// count returns the usage at cycle t (zero when the ring slot last
// tracked an older cycle).
func (s *slotWindow) count(t int64) uint64 {
	w := s.buf[int(t)&(slotRing-1)]
	if int64(w>>slotCountBits) != t {
		return 0
	}
	return w & slotCountMask
}

// reserve finds the earliest cycle >= t with a free slot, consumes it,
// and returns the cycle.
func (s *slotWindow) reserve(t int64) int64 {
	for {
		i := int(t) & (slotRing - 1)
		w := s.buf[i]
		var n uint64
		if int64(w>>slotCountBits) == t {
			n = w & slotCountMask
		}
		if n < s.width {
			s.buf[i] = uint64(t)<<slotCountBits | (n + 1)
			return t
		}
		t++
	}
}

// reserveAt consumes a slot at exactly cycle t, reporting whether one
// was free.
func (s *slotWindow) reserveAt(t int64) bool {
	i := int(t) & (slotRing - 1)
	w := s.buf[i]
	var n uint64
	if int64(w>>slotCountBits) == t {
		n = w & slotCountMask
	}
	if n >= s.width {
		return false
	}
	s.buf[i] = uint64(t)<<slotCountBits | (n + 1)
	return true
}

// freeAt reports whether a slot is free at cycle t without consuming.
func (s *slotWindow) freeAt(t int64) bool {
	w := s.buf[int(t)&(slotRing-1)]
	return int64(w>>slotCountBits) != t || w&slotCountMask < s.width
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
