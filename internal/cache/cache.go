// Package cache implements the simulated memory hierarchy of Table 2:
// set-associative caches with LRU replacement and stream prefetchers,
// TLBs, a DRAM model, and the hierarchy wiring including Watchdog's
// dedicated lock location cache (a peer of the L1 instruction and data
// caches, Section 4.2 and Figure 4c).
package cache

// Port is anything a cache can miss to. Access returns the total
// latency in cycles to satisfy the access at this level and below.
type Port interface {
	Access(addr uint64, write bool) int
}

// DRAM terminates the hierarchy with a fixed access latency
// (Table 2: dual-channel DDR, 16 ns ≈ 51 cycles at 3.2 GHz, plus the
// ring hop cost folded in).
type DRAM struct {
	Latency  int
	Accesses uint64
}

// Access counts and charges the DRAM latency.
func (d *DRAM) Access(addr uint64, write bool) int {
	d.Accesses++
	return d.Latency
}

// Config sizes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	BlockBytes int
	Latency    int // hit latency in cycles
	// Prefetcher configuration; Streams == 0 disables it.
	Streams       int
	PrefetchDepth int
}

// line is one cache or TLB entry. Every Access and Lookup advances its
// stamp counter before it stamps a line, so a valid line's stamp is at
// least 1 and stamp 0 marks an invalid one.
type line struct {
	tag   uint64
	stamp uint64 // LRU timestamp; 0 = invalid
}

// setArray is a set-associative array of lines whose sets get their
// ways the first time a line is installed in them, so an array costs
// what a run touches rather than what the level could hold. dir[s] is
// 1 + the offset of set s's ways in lines, or 0 while set s has never
// been filled; lines is an append-only pool whose capacity never
// exceeds sets*ways.
type setArray struct {
	dir   []uint32
	lines []line
	sets  int
	ways  int
}

func newSetArray(sets, ways int) setArray {
	return setArray{dir: make([]uint32, sets), sets: sets, ways: ways}
}

// set returns the ways of the set that tag maps to, or nil when that
// set has never been filled.
func (a *setArray) set(tag uint64) []line {
	d := a.dir[tag%uint64(a.sets)]
	if d == 0 {
		return nil
	}
	return a.lines[d-1 : int(d-1)+a.ways]
}

// fill returns the ways of the set that tag maps to, giving the set
// its ways first if it has none. Growing the pool moves it, so a slice
// from set is stale after a fill of another set.
func (a *setArray) fill(tag uint64) []line {
	s := tag % uint64(a.sets)
	if a.dir[s] == 0 {
		n := len(a.lines)
		if n == cap(a.lines) {
			grown := make([]line, n, min(max(2*n, 4*a.ways), a.sets*a.ways))
			copy(grown, a.lines)
			a.lines = grown
		}
		a.lines = a.lines[:n+a.ways]
		a.dir[s] = uint32(n) + 1
	}
	return a.set(tag)
}

// find returns the way of set holding tag, or -1 (always -1 for an
// unfilled set).
func find(set []line, tag uint64) int {
	for i := range set {
		if set[i].stamp != 0 && set[i].tag == tag {
			return i
		}
	}
	return -1
}

// victim returns the way of set to fill: the first invalid way, else
// the least recently used one (the first of equals).
func victim(set []line) int {
	v := 0
	oldest := ^uint64(0)
	for i := range set {
		if set[i].stamp < oldest {
			v, oldest = i, set[i].stamp
			if oldest == 0 {
				break
			}
		}
	}
	return v
}

type stream struct {
	next  uint64 // next expected block number
	valid bool
	stamp uint64
}

// Cache is one set-associative level with optional stream prefetcher.
type Cache struct {
	cfg     Config
	blockLg uint
	setArray
	streams  []stream
	stampCtr uint64

	next Port

	// live counts currently-valid lines (the occupancy the trace
	// layer's counter track samples).
	live int

	// Stats.
	Accesses      uint64
	Misses        uint64
	PrefetchFills uint64
}

// New builds a cache over the given next level.
func New(cfg Config, next Port) *Cache {
	blockLg := uint(0)
	for 1<<blockLg < cfg.BlockBytes {
		blockLg++
	}
	sets := cfg.SizeBytes / cfg.BlockBytes / cfg.Ways
	if sets < 1 {
		sets = 1
	}
	c := &Cache{
		cfg:      cfg,
		blockLg:  blockLg,
		setArray: newSetArray(sets, cfg.Ways),
		next:     next,
	}
	if cfg.Streams > 0 {
		c.streams = make([]stream, cfg.Streams)
	}
	return c
}

// Access looks up addr, filling on miss from the next level, and
// returns the total latency. Writes are modeled write-allocate with
// write-back (write-back traffic is not separately charged).
func (c *Cache) Access(addr uint64, write bool) int {
	c.Accesses++
	c.stampCtr++
	block := addr >> c.blockLg
	set := c.set(block)
	if i := find(set, block); i >= 0 {
		set[i].stamp = c.stampCtr
		// A hit on a tracked stream keeps the prefetcher running
		// ahead of the access stream.
		c.advanceStream(block)
		return c.cfg.Latency
	}
	// Miss: charge this level plus the levels below, install, prefetch.
	c.Misses++
	lat := c.cfg.Latency
	if c.next != nil {
		lat += c.next.Access(addr, write)
	}
	c.install(block)
	if !c.advanceStream(block) {
		c.allocStream(block)
	}
	return lat
}

// Contains reports whether the block holding addr is resident
// (test/debug aid; does not update LRU or stats).
func (c *Cache) Contains(addr uint64) bool {
	block := addr >> c.blockLg
	return find(c.set(block), block) >= 0
}

// Invalidate drops the block holding addr if resident (used to keep
// the lock location cache coherent with the data cache path when a
// lock location is written through the other path).
func (c *Cache) Invalidate(addr uint64) {
	block := addr >> c.blockLg
	set := c.set(block)
	if i := find(set, block); i >= 0 {
		set[i].stamp = 0
		c.live--
	}
}

// LiveLines returns the number of currently-valid lines (occupancy).
func (c *Cache) LiveLines() int { return c.live }

// install fills block, which must not be resident, over its set's
// victim.
func (c *Cache) install(block uint64) {
	set := c.fill(block)
	v := victim(set)
	if set[v].stamp == 0 {
		c.live++
	}
	set[v] = line{tag: block, stamp: c.stampCtr}
}

// advanceStream checks whether block continues a tracked stream; if
// so it installs the blocks ahead (without charging latency — they
// arrive off the critical path) and returns true.
func (c *Cache) advanceStream(block uint64) bool {
	for i := range c.streams {
		s := &c.streams[i]
		if s.valid && block == s.next {
			for d := 1; d <= c.cfg.PrefetchDepth; d++ {
				pb := block + uint64(d)
				if find(c.set(pb), pb) < 0 {
					c.install(pb)
					c.PrefetchFills++
				}
			}
			s.next = block + 1
			s.stamp = c.stampCtr
			return true
		}
	}
	return false
}

// allocStream allocates a stream tracker over the LRU slot on a miss
// that did not continue an existing stream.
func (c *Cache) allocStream(block uint64) {
	if len(c.streams) == 0 {
		return
	}
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range c.streams {
		if !c.streams[i].valid {
			victim = i
			break
		}
		if c.streams[i].stamp < oldest {
			oldest = c.streams[i].stamp
			victim = i
		}
	}
	c.streams[victim] = stream{next: block + 1, valid: true, stamp: c.stampCtr}
}

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Name returns the configured level name.
func (c *Cache) Name() string { return c.cfg.Name }
