package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"watchdog/internal/mem"
)

func l1(next Port) *Cache {
	return New(Config{Name: "t", SizeBytes: 1 << 10, Ways: 2, BlockBytes: 64, Latency: 3}, next)
}

func TestHitAfterMiss(t *testing.T) {
	d := &DRAM{Latency: 50}
	c := l1(d)
	if lat := c.Access(0x1000, false); lat != 53 {
		t.Fatalf("cold miss latency = %d, want 53", lat)
	}
	if lat := c.Access(0x1000, false); lat != 3 {
		t.Fatalf("hit latency = %d, want 3", lat)
	}
	if lat := c.Access(0x1030, false); lat != 3 {
		t.Fatalf("same-block hit latency = %d, want 3", lat)
	}
	if c.Misses != 1 || c.Accesses != 3 {
		t.Fatalf("stats wrong: %d/%d", c.Misses, c.Accesses)
	}
}

func TestLRUEviction(t *testing.T) {
	d := &DRAM{Latency: 50}
	c := l1(d) // 1 KiB, 2-way, 64B blocks -> 8 sets
	// Three blocks mapping to set 0: block numbers 0, 8, 16.
	a0, a1, a2 := uint64(0), uint64(8*64), uint64(16*64)
	c.Access(a0, false)
	c.Access(a1, false)
	c.Access(a0, false) // a0 now MRU
	c.Access(a2, false) // evicts a1
	if !c.Contains(a0) || !c.Contains(a2) {
		t.Fatal("a0/a2 must be resident")
	}
	if c.Contains(a1) {
		t.Fatal("a1 must have been evicted (LRU)")
	}
}

// Property, with invalidations interleaved among the accesses: no set
// holds a tag twice, LiveLines counts exactly the valid (stamp != 0)
// lines, and a miss into a set with an invalidated way refills the
// first such way, leaving every valid line — the LRU one included —
// where it was.
func TestSetOccupancyInvariant(t *testing.T) {
	d := &DRAM{Latency: 1}
	c := l1(d) // no prefetcher: a miss installs exactly one line
	refills := 0
	f := func(addrs []uint16) bool {
		for i, a := range addrs {
			// 64 blocks over 8 sets of 2 ways: hits, evictions and
			// invalidations of resident blocks all come often.
			addr := uint64(a) % (64 * 64)
			if a%4 == 3 && i > 0 {
				c.Invalidate(uint64(addrs[i-1]) % (64 * 64))
				continue
			}
			block := addr >> c.blockLg
			before := slices.Clone(c.set(block))
			free := slices.IndexFunc(before, func(l line) bool { return l.stamp == 0 })
			misses := c.Misses
			c.Access(addr, a%2 == 0)
			if c.Misses == misses || free < 0 {
				continue
			}
			set := c.set(block)
			if set[free].tag != block || set[free].stamp == 0 {
				return false // the miss did not fill the first invalid way
			}
			for w := range set {
				if w != free && set[w] != before[w] {
					return false // a valid line was evicted or restamped
				}
			}
			if slices.ContainsFunc(before, func(l line) bool { return l.stamp != 0 }) {
				refills++
			}
		}
		valid := 0
		for s := 0; s < c.sets; s++ {
			seen := map[uint64]bool{}
			for _, l := range c.set(uint64(s)) {
				if l.stamp == 0 {
					continue
				}
				valid++
				if seen[l.tag] {
					return false // duplicate tag in set
				}
				seen[l.tag] = true
			}
		}
		return valid == c.LiveLines()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	if refills == 0 {
		t.Fatal("no miss landed in a set holding both a valid line and an invalid way")
	}
}

func TestInvalidate(t *testing.T) {
	d := &DRAM{Latency: 50}
	c := l1(d)
	c.Access(0x2000, false)
	if !c.Contains(0x2000) {
		t.Fatal("block must be resident")
	}
	c.Invalidate(0x2000)
	if c.Contains(0x2000) {
		t.Fatal("block must be gone after invalidate")
	}
}

// A set gets its ways the first time a line is installed in it, so an
// array holds exactly the sets a run touched, and filling every set
// never reserves more than the level holds.
func TestSetsFillOnFirstUse(t *testing.T) {
	c := l1(&DRAM{Latency: 50}) // 8 sets of 2 ways
	if len(c.lines) != 0 {
		t.Fatalf("a new cache holds %d lines, want 0", len(c.lines))
	}
	// Blocks 0, 8 and 16 share set 0; blocks 3 and 13 land in sets 3
	// and 5. Contains and Invalidate on an unfilled set fill nothing.
	for _, block := range []uint64{0, 8, 3, 16, 13, 3} {
		c.Access(block*64, false)
	}
	c.Contains(7 * 64)
	c.Invalidate(6 * 64)
	if want := 3 * c.ways; len(c.lines) != want {
		t.Fatalf("3 touched sets hold %d lines, want %d", len(c.lines), want)
	}

	tlb := NewTLB(16, 4, 30) // 4 sets of 4 ways
	for _, page := range []uint64{0, 4, 1, 0} {
		tlb.Lookup(page << 12)
	}
	if want := 2 * tlb.ways; len(tlb.lines) != want {
		t.Fatalf("2 touched TLB sets hold %d entries, want %d", len(tlb.lines), want)
	}

	// 768 sets: the pool's doubling overshoots sets×ways unless capped.
	big := New(Config{Name: "big", SizeBytes: 768 << 10, Ways: 16, BlockBytes: 64, Latency: 25}, nil)
	for _, s := range rand.New(rand.NewSource(5)).Perm(big.sets) {
		big.Access(uint64(s)*64, false)
	}
	if n := big.sets * big.ways; len(big.lines) != n || cap(big.lines) > n {
		t.Fatalf("every set filled: %d lines in capacity %d, want %d in at most %d",
			len(big.lines), cap(big.lines), n, n)
	}
}

// hierSink keeps the measured constructions from being optimized away.
var hierSink *Hierarchy

// A hierarchy allocates its set directories up front and its lines on
// first use, so building the Table 2 hierarchy, whose lines alone take
// 4 MB, costs about 70 KB.
func TestNewHierarchyFootprint(t *testing.T) {
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hierSink = NewHierarchy(DefaultHierConfig())
		}
	})
	got := res.AllocedBytesPerOp()
	t.Logf("NewHierarchy allocates %d bytes", got)
	if got >= 256<<10 {
		t.Fatalf("NewHierarchy allocates %d bytes, want under %d", got, 256<<10)
	}
}

func TestStreamPrefetcher(t *testing.T) {
	d := &DRAM{Latency: 50}
	cfg := Config{Name: "p", SizeBytes: 8 << 10, Ways: 4, BlockBytes: 64, Latency: 3,
		Streams: 2, PrefetchDepth: 4}
	c := New(cfg, d)
	// Sequential misses: after the second miss in a stream, blocks
	// ahead must be resident.
	c.Access(0, false)
	c.Access(64, false) // confirms stream, prefetches ahead
	if !c.Contains(128) || !c.Contains(192) {
		t.Fatal("prefetcher must have installed ahead blocks")
	}
	if c.PrefetchFills == 0 {
		t.Fatal("prefetch fills not counted")
	}
	// The prefetched block hits without a DRAM access.
	before := d.Accesses
	if lat := c.Access(128, false); lat != 3 {
		t.Fatalf("prefetched block latency = %d", lat)
	}
	if d.Accesses != before {
		t.Fatal("prefetched block must not re-access DRAM")
	}
}

func TestSequentialMissRateLowWithPrefetch(t *testing.T) {
	d := &DRAM{Latency: 50}
	cfg := Config{Name: "p", SizeBytes: 8 << 10, Ways: 4, BlockBytes: 64, Latency: 3,
		Streams: 4, PrefetchDepth: 4}
	c := New(cfg, d)
	for i := 0; i < 4096; i++ {
		c.Access(uint64(i)*8, false)
	}
	if r := c.MissRate(); r > 0.05 {
		t.Fatalf("sequential miss rate %.3f too high with prefetcher", r)
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(16, 4, 30)
	if lat := tlb.Lookup(0x5000); lat != 30 {
		t.Fatalf("cold TLB lookup = %d", lat)
	}
	if lat := tlb.Lookup(0x5fff); lat != 0 {
		t.Fatalf("same-page lookup = %d", lat)
	}
	if lat := tlb.Lookup(0x6000); lat != 30 {
		t.Fatalf("next-page lookup = %d", lat)
	}
	if tlb.Misses != 2 || tlb.Accesses != 3 {
		t.Fatalf("TLB stats wrong: %d/%d", tlb.Misses, tlb.Accesses)
	}
}

func TestHierarchyChain(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	// Cold data access: TLB walk + L1D + L2 + L3 + DRAM.
	lat := h.Data(mem.HeapBase, false)
	want := 30 + 3 + 10 + 25 + 60
	if lat != want {
		t.Fatalf("cold access latency = %d, want %d", lat, want)
	}
	// Now hot.
	if lat := h.Data(mem.HeapBase, false); lat != 3 {
		t.Fatalf("hot access latency = %d", lat)
	}
}

func TestLockCacheRouting(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	la := mem.LockBase + 128
	h.LockRead(la)
	if h.Lock.Accesses != 1 {
		t.Fatal("lock read must use the lock location cache")
	}
	if h.L1D.Accesses != 0 {
		t.Fatal("lock read must not touch L1D")
	}
	// Without the lock cache, lock reads use the data path.
	cfg := DefaultHierConfig()
	cfg.LockCacheEnabled = false
	h2 := NewHierarchy(cfg)
	h2.LockRead(la)
	if h2.L1D.Accesses != 1 {
		t.Fatal("without lock cache, lock reads must use L1D")
	}
}

func TestLockCoherenceOnDataWrite(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	la := mem.LockBase + 256
	h.LockRead(la) // warm the lock cache
	if !h.Lock.Contains(la) {
		t.Fatal("lock cache must hold the block")
	}
	h.Data(la, true) // runtime writes the lock location via data path
	if h.Lock.Contains(la) {
		t.Fatal("data-path write must invalidate the lock cache copy")
	}
	// And symmetric: lock write invalidates L1D copy.
	h.Data(la, false)
	if !h.L1D.Contains(la) {
		t.Fatal("L1D must hold the block after data read")
	}
	h.LockWrite(la)
	if h.L1D.Contains(la) {
		t.Fatal("lock-path write must invalidate the L1D copy")
	}
}

func TestDeterministicLatencies(t *testing.T) {
	run := func() []int {
		h := NewHierarchy(DefaultHierConfig())
		r := rand.New(rand.NewSource(3))
		out := make([]int, 2000)
		for i := range out {
			a := mem.HeapBase + uint64(r.Intn(1<<16))*8
			out[i] = h.Data(a, r.Intn(2) == 0)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic latency at access %d", i)
		}
	}
}
