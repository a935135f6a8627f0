package pipeline

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"watchdog/internal/isa"
	"watchdog/internal/mem"
)

// widths gives every resource the same width.
func widths(w int) [numResources]int {
	var ws [numResources]int
	for r := range ws {
		ws[r] = w
	}
	return ws
}

func TestSlotTableWidth(t *testing.T) {
	s := newSlotTable(widths(2), 1)
	if got := s.reserve(resIssue, 10); got != 10 {
		t.Fatalf("first reserve at %d", got)
	}
	if got := s.reserve(resIssue, 10); got != 10 {
		t.Fatalf("second reserve at %d", got)
	}
	if got := s.reserve(resIssue, 10); got != 11 {
		t.Fatalf("third reserve must spill to 11, got %d", got)
	}
	if s.freeAt(resIssue, 10) {
		t.Fatal("cycle 10 must be full")
	}
	if !s.freeAt(resIssue, 12) {
		t.Fatal("cycle 12 must be free")
	}
	if !s.freeAt(resRetire, 10) {
		t.Fatal("a full issue slot must leave the retire slots free")
	}
	// Widths clamp to 1..255.
	var ws [numResources]int
	ws[resDispatch], ws[resIssue] = 0, 1000
	s = newSlotTable(ws, 1)
	if s.width[resDispatch] != 1 || s.width[resIssue] != 255 {
		t.Fatalf("widths clamp to %d and %d, want 1 and 255", s.width[resDispatch], s.width[resIssue])
	}
}

func TestSlotTableLazyReset(t *testing.T) {
	s := newSlotTable(widths(1), 1)
	s.reserve(resIssue, 5)
	// Once cycle 5 is dead, a cycle mapping to the same ring slot
	// must be fresh.
	far := 5 + int64(len(s.buf))
	if !s.freeAt(resIssue, far) {
		t.Fatal("ring slot must lazily reset for a new cycle")
	}
	// The first reservation there resets every resource's count.
	s.reserve(resRetire, far)
	if got := s.count(resIssue, far); got != 0 {
		t.Fatalf("reset entry keeps issue count %d", got)
	}
	if !s.freeAt(resIssue, 5) {
		t.Fatal("cycle 5 must read as unused once its entry tracks another cycle")
	}
}

// Growing doubles the table to the least power of two that holds the
// span, keeping the count of every live cycle.
func TestSlotTableGrow(t *testing.T) {
	s := newSlotTable(widths(255), 1)
	n := int64(len(s.buf))
	for c := int64(1); c < 1+n; c++ {
		for range c % 5 {
			s.reserve(resDispatch, c)
		}
	}
	low := int64(100)
	if last := s.grow(low, low+3*n); last != low+4*n-1 {
		t.Fatalf("growing to reach 3 windows past low gives last %d, want %d", last, low+4*n-1)
	}
	if got := int64(len(s.buf)); got != 4*n {
		t.Fatalf("growing to reach 3 windows past low made %d entries, want %d", got, 4*n)
	}
	for c := low; c < 1+n; c++ {
		if got := s.count(resDispatch, c); int64(got) != c%5 {
			t.Fatalf("cycle %d: count %d after growth, want %d", c, got, c%5)
		}
	}
}

// refSlots is the slot table's reference: an exact per-(resource,
// cycle) use count with no ring.
type refSlots struct {
	width [numResources]int
	used  map[[2]int64]int
}

func (r *refSlots) freeAt(res int, t int64) bool {
	return r.used[[2]int64{int64(res), t}] < r.width[res]
}

func (r *refSlots) reserve(res int, t int64) int64 {
	for !r.freeAt(res, t) {
		t++
	}
	r.used[[2]int64{int64(res), t}]++
	return t
}

func (r *refSlots) take(a, b int, t int64) int64 {
	for !r.freeAt(a, t) || !r.freeAt(b, t) {
		t++
	}
	r.used[[2]int64{int64(a), t}]++
	r.used[[2]int64{int64(b), t}]++
	return t
}

// slotOpBytes is the size of one encoded slot-table operation.
const slotOpBytes = 5

// checkSlotOps replays an encoded operation sequence on a slot table
// built at its initial size and on refSlots, failing at the first
// disagreement, and returns the table and its final low. The first
// numResources bytes are the widths (0 reads as 1). Each op is
// slotOpBytes bytes, [ctl, a, b, off lo, off hi]: ctl%3 picks
// reserve(a), take(a, b) or freeAt(a) at cycle low+off, and ctl/3 is
// how far low, which starts at 1, then advances. Before each call the
// table is made to cover every cycle the call probes, as the model
// does, here from the reference's answer.
func checkSlotOps(t testing.TB, data []byte) (*slotTable, int64) {
	var ws [numResources]int
	for r := range ws {
		ws[r] = 1
		if r < len(data) {
			ws[r] = max(int(data[r]), 1)
		}
	}
	data = data[min(len(data), numResources):]
	s := newSlotTable(ws, 1)
	low := int64(1)
	ref := &refSlots{width: ws, used: map[[2]int64]int{}}
	// A table with reach 1 holds a probe of cycle t once t <= last.
	fit := func(t int64) {
		if t > s.last(low) {
			s.grow(low, t)
		}
	}
	for i := 0; i+slotOpBytes <= len(data); i += slotOpBytes {
		op := data[i : i+slotOpBytes]
		a := int(op[1]) % numResources
		b := int(op[2]) % numResources
		if b == a {
			b = (a + 1) % numResources
		}
		c := low + int64(op[3]) + int64(op[4])<<8
		var got, want int64
		switch op[0] % 3 {
		case 0:
			want = ref.reserve(a, c)
			fit(want)
			got = s.reserve(a, c)
		case 1:
			want = ref.take(a, b, c)
			fit(want)
			got = s.take(a, b, c)
		default:
			fit(c)
			if s.freeAt(a, c) != ref.freeAt(a, c) {
				t.Fatalf("op %d: freeAt(%d, %d) disagrees with the reference", i/slotOpBytes, a, c)
			}
			got, want = c, c
		}
		if got != want {
			t.Fatalf("op %d: resource %d from cycle %d: table gives %d, reference %d", i/slotOpBytes, a, c, got, want)
		}
		low += int64(op[0] / 3)
	}
	return &s, low
}

// slotOps encodes n random operations for checkSlotOps: widths of 1
// to 6 (issue 255), cycles that land either in a dense cluster just
// past low (to fill slots) or anywhere in a window that widens with
// the op index up to 28,672 cycles (to make the table grow in steps
// and alias ring positions), and low advancing 0-2 cycles an op.
func slotOps(seed int64, n int) []byte {
	rnd := rand.New(rand.NewSource(seed))
	data := make([]byte, numResources, numResources+n*slotOpBytes)
	for r := range numResources {
		data[r] = byte(1 + rnd.Intn(6))
	}
	data[resIssue] = 255
	for i := range n {
		off := rnd.Intn(8)
		if rnd.Intn(2) == 0 {
			off = rnd.Intn(min(16+i/4, 1<<15-1<<12))
		}
		data = append(data, byte(rnd.Intn(3)+3*rnd.Intn(3)),
			byte(rnd.Intn(numResources)), byte(rnd.Intn(numResources)),
			byte(off), byte(off>>8))
	}
	return data
}

// Property: interleaved reserve, take and freeAt calls on all
// resources agree with the reference while low drifts forward. The
// table starts at its initial size and must double in several steps,
// carrying live entries each time, to span the widening window; low
// drifts over several lengths of the grown table, so entries are also
// reset and reused.
func TestSlotTableMatchesReference(t *testing.T) {
	s, low := checkSlotOps(t, slotOps(7, 200000))
	if len(s.buf) < 1<<15 {
		t.Fatalf("table grew only to %d entries, want at least %d", len(s.buf), 1<<15)
	}
	if low < 4*int64(len(s.buf)) {
		t.Fatalf("low drifted only to %d; the %d-entry table never wrapped", low, len(s.buf))
	}
}

// FuzzSlotTable checks arbitrary reserve, take, freeAt and advance
// sequences against the reference, seeded with prefixes of
// TestSlotTableMatchesReference's stream. Run it with
//
//	go test ./internal/pipeline -run '^$' -fuzz '^FuzzSlotTable$' -fuzztime 20s
func FuzzSlotTable(f *testing.F) {
	for seed := range int64(4) {
		f.Add(slotOps(7+seed, 300))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSlotOps(t, data)
	})
}

// The slot table grows to cover the widest live span, that of a ROB
// full of dependent loads that each miss the TLB and every cache
// level: every live reservation lies in [rob.peek()+1, lastRetire].
func TestSlotSpanBound(t *testing.T) {
	m := newModel()
	const n = 20000
	widest := int64(0)
	for i := 0; i < n; i++ {
		m.OnInst(mem.CodeAddr(i % 64)) // loop-resident code
		u := isa.NewUop(isa.UopLoad, isa.ExecLoad)
		u.Dst, u.Src1 = isa.R1, isa.R1
		u.IsMem, u.Width = true, 8
		// 1 MiB apart: one set in every level and in the DTLB.
		u.Addr = mem.HeapBase + uint64(i)<<20
		m.OnUop(&u)
		widest = max(widest, m.lastRetire-(m.rob.peek()+1))
	}
	// Every load misses the DTLB and L1D, and the L3 too (which also
	// sees the few code blocks' misses).
	h := m.hier
	if h.DTLB.Misses != n || h.L1D.Misses != n || h.L3.Misses < n {
		t.Fatalf("DTLB, L1D and L3 misses = %d, %d and %d; want every one of %d loads to miss",
			h.DTLB.Misses, h.L1D.Misses, h.L3.Misses, n)
	}
	t.Logf("widest live span %d cycles; slot table %d entries", widest, len(m.slots.buf))
	if widest < windowInit {
		t.Fatalf("widest live span %d cycles fits the initial %d-entry table; the test no longer makes it grow", widest, windowInit)
	}
	if int64(len(m.slots.buf)) <= widest {
		t.Fatalf("live reservations span %d cycles, beyond the %d-entry slot table", widest, len(m.slots.buf))
	}
}

func TestRingPeekPush(t *testing.T) {
	r := newRing(3)
	if r.peek() != 0 {
		t.Fatal("empty ring must peek 0")
	}
	r.push(10)
	r.push(20)
	r.push(30)
	if got := r.peek(); got != 10 {
		t.Fatalf("full ring must peek oldest (10), got %d", got)
	}
	r.push(40)
	if got := r.peek(); got != 20 {
		t.Fatalf("after wrap, peek = %d, want 20", got)
	}
}

// iqAdd pushes t as the model does, growing the ring first.
func iqAdd(q *iqTimes, t int64) {
	q.cover(t)
	q.push(t)
}

// Property: the IQ bucket ring pops values in sorted order — it must
// behave exactly like the min-heap it replaced, or dispatch stall
// cycles (and so every figure) would shift.
func TestIQTimesSortedProperty(t *testing.T) {
	f := func(raw []int16) bool {
		q := newIQ()
		want := make([]int64, len(raw))
		for i, v := range raw {
			iqAdd(q, int64(v))
			want[i] = int64(v)
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		for _, w := range want {
			if q.pop() != w {
				return false
			}
		}
		return q.len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Interleaved pushes and pops against a brute-force reference multiset,
// with values drifting forward the way pipeline issue times do.
func TestIQTimesInterleavedOps(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	q := newIQ()
	var ref []int64
	base := int64(0)
	for i := 0; i < 5000; i++ {
		if len(ref) == 0 || r.Intn(3) > 0 {
			v := base + int64(r.Intn(1000))
			base += int64(r.Intn(3))
			iqAdd(q, v)
			ref = append(ref, v)
		} else {
			got := q.pop()
			mi := 0
			for j, v := range ref {
				if v < ref[mi] {
					mi = j
				}
			}
			if got != ref[mi] {
				t.Fatalf("pop = %d, want %d", got, ref[mi])
			}
			ref = append(ref[:mi], ref[mi+1:]...)
		}
	}
}

// Occupants spread over as many cycles as the ring holds or more,
// arriving both after and before the earliest, make it grow; every
// occupant survives the rehash, and they pop back in order.
func TestIQTimesGrow(t *testing.T) {
	q := newIQ()
	span := int64(10 * windowInit)
	var want []int64
	for _, v := range []int64{5000, 5000 + windowInit, 5001, 5000 + span/2, 5000 + span, 5000 - span, 5000 + 3, 5000 - span} {
		iqAdd(q, v)
		want = append(want, v)
	}
	if got := int64(len(q.cnt)); got <= 2*span || got&(got-1) != 0 {
		t.Fatalf("ring holds %d cycles, want more than the %d-cycle spread", got, 2*span)
	}
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	for _, w := range want {
		if got := q.pop(); got != w {
			t.Fatalf("pop = %d, want %d", got, w)
		}
	}
	if q.len() != 0 {
		t.Fatalf("%d occupants left after popping all", q.len())
	}
}
