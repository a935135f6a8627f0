package mem

import "encoding/binary"

// page is one 4 KiB page of simulated memory plus a touch bitmap at
// word granularity (512 words per page) used for the Figure 10
// words-touched accounting.
type page struct {
	data    [PageSize]byte
	touched [PageSize / WordSize / 64]uint64 // bitmap, one bit per word
}

// Memory is the sparse simulated physical/virtual memory. Pages are
// allocated on first touch, mirroring on-demand allocation of shadow
// pages by the operating system.
//
// A small direct-mapped translation cache in front of the page map
// (cpn/cp, indexed by low page-number bits) serves the common case —
// loops touching a handful of pages: program data, stack, and the
// corresponding shadow pages — without a map lookup. The map lookup
// dominated the functional interpreter's profile, and the functional
// loop is the floor under the sampled fidelity's fast-forward speed.
type Memory struct {
	pages map[uint64]*page
	cpn   [pageCacheWays]uint64 // cached page number + 1 (0 = empty)
	cp    [pageCacheWays]*page
	// spill serves every access to a new page past MaxPages, so the
	// instruction in flight completes before the machine stops the run
	// (Full). It is never cached.
	spill *page
}

const pageCacheWays = 8

// MaxPages bounds the pages one Memory creates: 64 MiB of simulated
// memory, about 68 MB of host memory. Program text is untrusted input,
// and without a bound a loop that touches one word per page grows the
// host by 4 KiB per iteration. Under every configuration, profiling
// passes included, no kernel at scale 1, 16 or 64 touches more than 55
// pages (equake under bounds-1uop), no Juliet case under any policy
// more than 9, and no fuzz program of seeds 0-1999 more than 10.
const MaxPages = 1 << 14

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

func (m *Memory) pageFor(addr uint64) *page {
	pn := addr / PageSize
	w := pn % pageCacheWays
	if m.cpn[w] == pn+1 {
		return m.cp[w]
	}
	p := m.pages[pn]
	if p == nil {
		if len(m.pages) >= MaxPages {
			if m.spill == nil {
				m.spill = &page{}
			}
			return m.spill
		}
		p = &page{}
		m.pages[pn] = p
	}
	m.cpn[w], m.cp[w] = pn+1, p
	return p
}

// Full reports whether an access needed a page past MaxPages.
func (m *Memory) Full() bool { return m.spill != nil }

func (m *Memory) touch(p *page, addr uint64, n uint64) {
	w0 := (addr % PageSize) / WordSize
	w1 := (addr%PageSize + n - 1) / WordSize
	if w1 >= PageSize/WordSize { // clamp a page-crossing span to this page
		w1 = PageSize/WordSize - 1
	}
	for w := w0; w <= w1; w++ {
		p.touched[w/64] |= 1 << (w % 64)
	}
}

// Read reads n bytes (1..8, little-endian) at addr, zero-extended.
// Accesses may not cross a page boundary mid-word, but the simulated
// machine keeps accesses naturally aligned so a single page suffices.
func (m *Memory) Read(addr uint64, n uint8) uint64 {
	p := m.pageFor(addr)
	m.touch(p, addr, uint64(n))
	off := addr % PageSize
	if off+uint64(n) <= PageSize {
		var buf [8]byte
		copy(buf[:n], p.data[off:off+uint64(n)])
		return binary.LittleEndian.Uint64(buf[:])
	}
	// Cross-page (only possible for misaligned accesses).
	var v uint64
	for i := uint8(0); i < n; i++ {
		b := m.pageFor(addr + uint64(i))
		m.touch(b, addr+uint64(i), 1)
		v |= uint64(b.data[(addr+uint64(i))%PageSize]) << (8 * i)
	}
	return v
}

// Write writes the low n bytes (1..8, little-endian) of v at addr.
func (m *Memory) Write(addr uint64, n uint8, v uint64) {
	p := m.pageFor(addr)
	m.touch(p, addr, uint64(n))
	off := addr % PageSize
	if off+uint64(n) <= PageSize {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		copy(p.data[off:off+uint64(n)], buf[:n])
		return
	}
	for i := uint8(0); i < n; i++ {
		b := m.pageFor(addr + uint64(i))
		m.touch(b, addr+uint64(i), 1)
		b.data[(addr+uint64(i))%PageSize] = byte(v >> (8 * i))
	}
}

// ReadU64 reads an aligned 8-byte word.
func (m *Memory) ReadU64(addr uint64) uint64 { return m.Read(addr, 8) }

// WriteU64 writes an aligned 8-byte word.
func (m *Memory) WriteU64(addr uint64, v uint64) { m.Write(addr, 8, v) }

// WriteBytes copies raw bytes into memory (loader use).
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		p := m.pageFor(addr)
		off := addr % PageSize
		n := copy(p.data[off:], b)
		m.touch(p, addr, uint64(n))
		addr += uint64(n)
		b = b[n:]
	}
}

// Footprint is the touch accounting for one region.
type Footprint struct {
	Words uint64 // 8-byte words touched at least once
	Pages uint64 // 4 KiB pages touched at least once
}

// FootprintByRegion returns the words/pages touched per region. This
// feeds the Figure 10 memory-overhead metric: the paper reports both
// total words of memory accessed and total 4 KB pages accessed, the
// latter reflecting on-demand allocation of shadow pages by the OS.
func (m *Memory) FootprintByRegion() map[Region]Footprint {
	out := make(map[Region]Footprint)
	for pn, p := range m.pages {
		r := RegionOf(pn * PageSize)
		f := out[r]
		var words uint64
		for _, w := range p.touched {
			words += uint64(popcount(w))
		}
		if words > 0 {
			f.Pages++
			f.Words += words
		}
		out[r] = f
	}
	return out
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// NumPages returns how many pages have been materialized.
func (m *Memory) NumPages() int { return len(m.pages) }
