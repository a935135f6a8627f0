package cache

import (
	"fmt"

	"watchdog/internal/mem"
)

// HierConfig describes the full Table 2 memory hierarchy.
type HierConfig struct {
	L1I, L1D, L2, L3 Config
	Lock             Config // the dedicated lock location cache
	LockCacheEnabled bool
	DRAMLatency      int
	ITLBEntries      int
	DTLBEntries      int
	LockTLBEntries   int
	TLBWalkPenalty   int
}

// DefaultHierConfig returns the Table 2 hierarchy: 32 KB 4-way L1I
// (3 cyc), 32 KB 8-way L1D (3 cyc), 256 KB 8-way private L2 (10 cyc),
// 16 MB 16-way shared L3 (25 cyc), DRAM ≈ 60 cyc beyond L3, and the
// 4 KB 8-way lock location cache.
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1I: Config{Name: "L1I", SizeBytes: 32 << 10, Ways: 4, BlockBytes: 64, Latency: 3,
			Streams: 2, PrefetchDepth: 4},
		L1D: Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, BlockBytes: 64, Latency: 3,
			Streams: 4, PrefetchDepth: 4},
		L2: Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, BlockBytes: 64, Latency: 10,
			Streams: 8, PrefetchDepth: 16},
		L3:               Config{Name: "L3", SizeBytes: 16 << 20, Ways: 16, BlockBytes: 64, Latency: 25},
		Lock:             Config{Name: "Lock$", SizeBytes: 4 << 10, Ways: 8, BlockBytes: 64, Latency: 3},
		LockCacheEnabled: true,
		DRAMLatency:      60,
		ITLBEntries:      64,
		DTLBEntries:      64,
		LockTLBEntries:   16,
		TLBWalkPenalty:   30,
	}
}

// tlbWays is the associativity of every TLB in the hierarchy.
const tlbWays = 4

// Validate refuses a hierarchy the model cannot build as described:
// each level needs at least one way, a power-of-two block, and a size
// that is a positive multiple of Ways×BlockBytes (New would otherwise
// divide by zero, round the block up or floor the size to whole sets),
// and no latency, stream count or prefetch depth may be negative. The
// lock level is checked only when LockCacheEnabled. DRAMLatency and
// TLBWalkPenalty must not be negative, and each TLB's entry count must
// be a positive multiple of its 4 ways (NewTLB would round it). The
// error names the first offending field.
func (c HierConfig) Validate() error {
	for _, l := range []struct {
		name string
		cfg  Config
		used bool
	}{
		{"L1I", c.L1I, true}, {"L1D", c.L1D, true}, {"L2", c.L2, true}, {"L3", c.L3, true},
		{"Lock", c.Lock, c.LockCacheEnabled},
	} {
		if !l.used {
			continue
		}
		if err := l.cfg.validate(l.name); err != nil {
			return err
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"DRAMLatency", c.DRAMLatency}, {"TLBWalkPenalty", c.TLBWalkPenalty}} {
		if f.v < 0 {
			return fmt.Errorf("cache: %s is %d, want at least 0", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"ITLBEntries", c.ITLBEntries}, {"DTLBEntries", c.DTLBEntries}, {"LockTLBEntries", c.LockTLBEntries}} {
		if f.v < tlbWays || f.v%tlbWays != 0 {
			return fmt.Errorf("cache: %s is %d, want a positive multiple of %d", f.name, f.v, tlbWays)
		}
	}
	return nil
}

// validate checks one level, naming its fields after level.
func (c Config) validate(level string) error {
	switch {
	case c.Ways < 1:
		return fmt.Errorf("cache: %s.Ways is %d, want at least 1", level, c.Ways)
	case c.BlockBytes < 1 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("cache: %s.BlockBytes is %d, want a power of two", level, c.BlockBytes)
	case c.SizeBytes < 1 || c.SizeBytes%c.BlockBytes != 0 || c.SizeBytes/c.BlockBytes%c.Ways != 0:
		// Dividing step by step cannot overflow as Ways×BlockBytes can.
		return fmt.Errorf("cache: %s.SizeBytes is %d, want a positive multiple of Ways×BlockBytes (%d×%d)",
			level, c.SizeBytes, c.Ways, c.BlockBytes)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"Latency", c.Latency}, {"Streams", c.Streams}, {"PrefetchDepth", c.PrefetchDepth}} {
		if f.v < 0 {
			return fmt.Errorf("cache: %s.%s is %d, want at least 0", level, f.name, f.v)
		}
	}
	return nil
}

// Hierarchy wires the levels together. The lock location cache, when
// enabled, is a peer of the L1 caches backed by the same L2 (Figure
// 4c); lock-location accesses from check µops and from allocation /
// deallocation go through it, providing extra bandwidth exactly as a
// split I/D cache does.
type Hierarchy struct {
	cfg  HierConfig
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	L3   *Cache
	Lock *Cache
	DRAM *DRAM

	ITLB    *TLB
	DTLB    *TLB
	LockTLB *TLB
}

// NewHierarchy builds the hierarchy from cfg.
func NewHierarchy(cfg HierConfig) *Hierarchy {
	h := &Hierarchy{cfg: cfg}
	h.DRAM = &DRAM{Latency: cfg.DRAMLatency}
	h.L3 = New(cfg.L3, h.DRAM)
	h.L2 = New(cfg.L2, h.L3)
	h.L1I = New(cfg.L1I, h.L2)
	h.L1D = New(cfg.L1D, h.L2)
	if cfg.LockCacheEnabled {
		h.Lock = New(cfg.Lock, h.L2)
	}
	h.ITLB = NewTLB(cfg.ITLBEntries, tlbWays, cfg.TLBWalkPenalty)
	h.DTLB = NewTLB(cfg.DTLBEntries, tlbWays, cfg.TLBWalkPenalty)
	h.LockTLB = NewTLB(cfg.LockTLBEntries, tlbWays, cfg.TLBWalkPenalty)
	return h
}

// LockCacheEnabled reports whether the dedicated lock cache exists.
func (h *Hierarchy) LockCacheEnabled() bool { return h.Lock != nil }

// LockLiveLines returns the lock location cache's valid-line count (0
// when the lock cache is disabled) — the occupancy the trace layer's
// counter track samples at each µop retirement.
func (h *Hierarchy) LockLiveLines() int {
	if h.Lock == nil {
		return 0
	}
	return h.Lock.LiveLines()
}

// Stats is one cache level's counter snapshot.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses/accesses (0 when never accessed).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Stats snapshots the level's counters.
func (c *Cache) Stats() Stats { return Stats{Accesses: c.Accesses, Misses: c.Misses} }

// HierStats snapshots the counters of every level of the hierarchy —
// the cache side of the per-simulation metrics record.
type HierStats struct {
	L1I, L1D, L2, L3 Stats
	// Lock is the dedicated lock location cache; zero-valued (and
	// LockEnabled false) in configurations without it.
	Lock        Stats
	LockEnabled bool
}

// Stats snapshots every level's counters.
func (h *Hierarchy) Stats() HierStats {
	s := HierStats{
		L1I: h.L1I.Stats(),
		L1D: h.L1D.Stats(),
		L2:  h.L2.Stats(),
		L3:  h.L3.Stats(),
	}
	if h.Lock != nil {
		s.Lock = h.Lock.Stats()
		s.LockEnabled = true
	}
	return s
}

// Data performs a data-side access (loads, stores, shadow-space
// metadata accesses) and returns its latency.
func (h *Hierarchy) Data(addr uint64, write bool) int {
	lat := h.DTLB.Lookup(addr)
	if h.Lock != nil && mem.RegionOf(addr) == mem.RegionLock && write {
		// A store to a lock location through the data path (the
		// runtime writing a key or INVALID) must not leave a stale
		// copy in the lock location cache: the caches are coherent
		// (same tagging/state bits, Section 4.2), modeled here as an
		// invalidation of the peer copy.
		h.Lock.Invalidate(addr)
	}
	return lat + h.L1D.Access(addr, write)
}

// Fetch performs an instruction fetch access.
func (h *Hierarchy) Fetch(addr uint64) int {
	return h.ITLB.Lookup(addr) + h.L1I.Access(addr, false)
}

// LockRead performs a check µop's lock-location load: through the
// dedicated lock location cache when enabled, else through the data
// cache (the Figure 9 configuration without the lock cache).
func (h *Hierarchy) LockRead(addr uint64) int {
	if h.Lock != nil {
		return h.LockTLB.Lookup(addr) + h.Lock.Access(addr, false)
	}
	return h.Data(addr, false)
}

// LockWrite performs an allocation/deallocation update of a lock
// location. With the lock cache enabled these updates go through it
// (Section 4.2: "memory allocations and deallocations update lock
// location values, so these operations also access the lock location
// cache"); the peer L1D copy is invalidated for coherence.
func (h *Hierarchy) LockWrite(addr uint64) int {
	if h.Lock != nil {
		h.L1D.Invalidate(addr)
		return h.LockTLB.Lookup(addr) + h.Lock.Access(addr, true)
	}
	return h.Data(addr, true)
}
