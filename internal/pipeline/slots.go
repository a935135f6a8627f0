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

// windowInit is the number of cycles a slotTable or iqTimes tracks
// when built. Each doubles on demand: no kernel run spreads either
// over more than a few hundred cycles, but a large ROB, a slow DRAM or
// a long divide latency can spread them over hundreds of thousands.
const windowInit = 1 << 10

// slotEntry is one cycle's usage of every bandwidth-limited resource.
type slotEntry struct {
	cycle int64
	n     [numResources]uint8
}

// slotTable tracks per-cycle usage of every bandwidth-limited resource
// (dispatch, issue and retire slots, functional units and cache ports)
// over a sliding window of len(buf) cycles. Entry t&mask belongs to
// cycle t only while its cycle field says so; any other cycle reads as
// unused, and the first reservation at t resets the entry. One entry
// holds every resource's count, so the issue search's two probes read
// one entry.
//
// The table is exact while every cycle in play lies in one window
// [low, low+len(buf)), where low only rises and cycles before it are
// dead: no later probe touches them. A search passes fewer than reach
// full cycles, so one that starts at or before last(low) probes only
// cycles in the window; the caller grows the table before starting one
// later.
type slotTable struct {
	width [numResources]uint8
	buf   []slotEntry
	// mask is len(buf)-1, len(buf) being a power of two. Reading it
	// costs the inliner less than len(buf)-1, which would push
	// reserve out of line.
	mask  int
	reach int64
}

// newSlotTable builds a table with each resource's width clamped to
// 1..255, for searches that pass fewer than reach full cycles.
func newSlotTable(width [numResources]int, reach int64) slotTable {
	s := slotTable{buf: make([]slotEntry, windowInit), mask: windowInit - 1, reach: reach}
	for r, w := range width {
		s.width[r] = uint8(min(max(w, 1), 255))
	}
	return s
}

// last returns the latest cycle a search can start from and stay in
// the window that starts at low.
func (s *slotTable) last(low int64) int64 {
	return low + int64(len(s.buf)) - s.reach
}

// grow doubles the table until a search from start stays in the
// window that starts at low, and returns the new last(low). It carries
// each entry of a cycle in the old window [low, low+len(buf)) over:
// distinct cycles in a window of n stay distinct modulo 2n, so no
// entry displaces another. It stays out of line, so that the checks
// before each search cost a compare.
//
//go:noinline
func (s *slotTable) grow(low, start int64) int64 {
	n := len(s.buf)
	for start+s.reach-low > int64(n) {
		n *= 2
	}
	buf := make([]slotEntry, n)
	for c := low; c < low+int64(len(s.buf)); c++ {
		if e := &s.buf[int(c)&s.mask]; e.cycle == c {
			buf[int(c)&(n-1)] = *e
		}
	}
	s.buf, s.mask = buf, n-1
	return s.last(low)
}

// count returns resource r's usage at cycle t.
func (s *slotTable) count(r int, t int64) uint8 {
	e := &s.buf[int(t)&s.mask]
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
	e := &s.buf[int(t)&s.mask]
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
		e := &s.buf[int(t)&s.mask]
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
	// cnt[t & (len(cnt)-1)] = occupants issuing at cycle t; the
	// length is a power of two.
	cnt []int32
	n   int
	// Every occupant lies in [head, head+len(cnt)). head is a lower
	// bound on the minimum occupied cycle: pop scans forward from it,
	// and cover moves it back when an earlier cycle arrives.
	head int64
}

func newIQ() *iqTimes { return &iqTimes{cnt: make([]int32, windowInit)} }

func (q *iqTimes) len() int { return q.n }

// cover makes room for an occupant at cycle t: afterwards t lies in
// [head, head+len(cnt)).
func (q *iqTimes) cover(t int64) {
	if uint64(t-q.head) >= uint64(len(q.cnt)) {
		q.grow(t)
	}
}

// grow is cover's slow path. It moves head back to t when no occupant
// lies at or past t+len(cnt), and otherwise doubles the ring, carrying
// every count over, until t fits. It stays out of line so that cover
// inlines.
//
//go:noinline
func (q *iqTimes) grow(t int64) {
	if q.n == 0 {
		q.head = t
		return
	}
	for {
		n := int64(len(q.cnt))
		if t >= q.head && t-q.head < n {
			return
		}
		if t < q.head && q.head-t < n {
			// The positions of [t, head) hold no occupant of their
			// own, only those of [t+n, head+n); when they are empty,
			// every occupant lies in [t, t+n).
			empty := true
			for c := t; c < q.head && empty; c++ {
				empty = q.cnt[int(c)&int(n-1)] == 0
			}
			if empty {
				q.head = t
				return
			}
		}
		cnt := make([]int32, 2*n)
		for c := q.head; c < q.head+n; c++ {
			cnt[int(c)&int(2*n-1)] = q.cnt[int(c)&int(n-1)]
		}
		q.cnt = cnt
	}
}

// push records an occupant issuing at cycle t, which cover(t) must
// have made room for.
func (q *iqTimes) push(t int64) {
	q.cnt[int(t)&(len(q.cnt)-1)]++
	q.n++
}

// pop removes and returns the minimum occupied cycle.
func (q *iqTimes) pop() int64 {
	for q.cnt[int(q.head)&(len(q.cnt)-1)] == 0 {
		q.head++
	}
	q.cnt[int(q.head)&(len(q.cnt)-1)]--
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
