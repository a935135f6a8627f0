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
	s := newSlotTable(widths(2))
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
	s = newSlotTable(ws)
	if s.width[resDispatch] != 1 || s.width[resIssue] != 255 {
		t.Fatalf("widths clamp to %d and %d, want 1 and 255", s.width[resDispatch], s.width[resIssue])
	}
}

func TestSlotTableLazyReset(t *testing.T) {
	s := newSlotTable(widths(1))
	s.reserve(resIssue, 5)
	// Far-future cycle mapping to the same ring slot must be fresh.
	far := int64(5 + slotRing)
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

// Property: interleaved reserve, take and freeAt calls on all
// resources agree with the reference while every cycle in play stays
// within slotRing of the oldest one still probed. Cycles drift forward
// over several ring lengths, so entries are reset and reused, and each
// call lands either in a dense cluster (to fill slots) or anywhere in
// the window (to alias ring positions).
func TestSlotTableMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	var ws [numResources]int
	for r := range ws {
		ws[r] = 1 + rnd.Intn(6)
	}
	ws[resIssue] = 255
	s := newSlotTable(ws)
	ref := &refSlots{width: ws, used: map[[2]int64]int{}}
	const window = slotRing - 1<<12
	base, top := int64(1), int64(0)
	for i := 0; i < 200000; i++ {
		c := base + int64(rnd.Intn(8))
		if rnd.Intn(2) == 0 {
			c = base + int64(rnd.Intn(window))
		}
		res := rnd.Intn(numResources)
		var got, want int64
		switch rnd.Intn(3) {
		case 0:
			got, want = s.reserve(res, c), ref.reserve(res, c)
		case 1:
			other := (res + 1 + rnd.Intn(numResources-1)) % numResources
			got, want = s.take(res, other, c), ref.take(res, other, c)
		default:
			if s.freeAt(res, c) != ref.freeAt(res, c) {
				t.Fatalf("op %d: freeAt(%d, %d) disagrees with the reference", i, res, c)
			}
			continue
		}
		if got != want {
			t.Fatalf("op %d: resource %d from cycle %d: table gives %d, reference %d", i, res, c, got, want)
		}
		top = max(top, got)
		if top-base >= slotRing {
			t.Fatalf("op %d: cycles in play span %d, beyond the ring", i, top-base)
		}
		base += int64(rnd.Intn(3))
	}
	if base < 4*slotRing {
		t.Fatalf("cycles drifted only to %d; the ring never wrapped", base)
	}
}

// Precondition of the slot table: every live reservation lies in
// [rob.peek()+1, lastRetire], so that span must stay below slotRing.
// The widest span comes from a ROB full of dependent loads that each
// miss the TLB and every cache level. If a larger ROBSize or latency
// outgrows the ring, reservations would silently alias.
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
	t.Logf("widest live span %d of %d cycles", widest, slotRing)
	if widest >= slotRing {
		t.Fatalf("live reservations span %d cycles, beyond the %d-cycle slot table", widest, slotRing)
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

// Property: the IQ bucket ring pops values in sorted order — it must
// behave exactly like the min-heap it replaced, or dispatch stall
// cycles (and so every figure) would shift.
func TestIQTimesSortedProperty(t *testing.T) {
	f := func(raw []int16) bool {
		q := newIQ()
		want := make([]int64, len(raw))
		for i, v := range raw {
			q.push(int64(v))
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
			q.push(v)
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

// The span guard must fire rather than silently alias two cycles onto
// one bucket.
func TestIQTimesSpanGuard(t *testing.T) {
	q := newIQ()
	q.push(0)
	defer func() {
		if recover() == nil {
			t.Fatal("push beyond the ring span must panic")
		}
	}()
	q.push(iqRing)
}
