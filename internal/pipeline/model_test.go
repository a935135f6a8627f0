package pipeline

import (
	"math"
	"strings"
	"testing"

	"watchdog/internal/bpred"
	"watchdog/internal/cache"
	"watchdog/internal/isa"
	"watchdog/internal/mem"
)

func newModel() *Model {
	return New(DefaultConfig(), cache.NewHierarchy(cache.DefaultHierConfig()), bpred.New(bpred.DefaultConfig()))
}

func feedALU(m *Model, n int, dependent bool) {
	for i := 0; i < n; i++ {
		m.OnInst(mem.CodeAddr(i % 64)) // loop-resident code
		u := isa.NewUop(isa.UopAlu, isa.ExecALU)
		if dependent {
			u.Dst, u.Src1 = isa.R1, isa.R1
		} else {
			u.Dst = isa.Reg(i % 8) // independent chains
		}
		m.OnUop(&u)
	}
}

func TestDependentChainIsSerial(t *testing.T) {
	m := newModel()
	feedALU(m, 1000, true)
	c := m.Stats().Cycles
	if c < 1000 {
		t.Fatalf("dependent chain of 1000 ALU ops took %d cycles, must be >= 1000", c)
	}
	if c > 1500 { // allowance for cold-start I-cache/TLB misses
		t.Fatalf("dependent chain took %d cycles, too much overhead", c)
	}
}

func TestIndependentOpsSuperscalar(t *testing.T) {
	m := newModel()
	feedALU(m, 4000, false)
	s := m.Stats()
	ipc := s.IPC()
	// Fetch is 4 macro/cycle (one µop each), so IPC should approach 4.
	if ipc < 3.0 {
		t.Fatalf("independent ALU IPC = %.2f, want near 4", ipc)
	}
	if ipc > 4.5 {
		t.Fatalf("IPC = %.2f exceeds fetch bandwidth", ipc)
	}
}

func TestDispatchWidthLimitsUopsPerInst(t *testing.T) {
	// One macro inst cracking into 12 independent µops per "inst":
	// dispatch width 6 limits throughput to <= 6 µops/cycle.
	m := newModel()
	for i := 0; i < 500; i++ {
		m.OnInst(mem.CodeAddr(i))
		for j := 0; j < 12; j++ {
			u := isa.NewUop(isa.UopAlu, isa.ExecALU)
			u.Dst = isa.Reg((i*12 + j) % 8)
			m.OnUop(&u)
		}
	}
	s := m.Stats()
	if ipc := s.IPC(); ipc > 6.2 {
		t.Fatalf("IPC %.2f exceeds dispatch width", ipc)
	}
}

func TestLoadLatencyChain(t *testing.T) {
	// Dependent loads (pointer chasing) pay at least the L1 latency
	// each.
	m := newModel()
	for i := 0; i < 200; i++ {
		m.OnInst(mem.CodeAddr(i))
		u := isa.NewUop(isa.UopLoad, isa.ExecLoad)
		u.Dst, u.Src1 = isa.R1, isa.R1
		u.IsMem, u.Width = true, 8
		u.Addr = mem.HeapBase // same line: always warm after first
		m.OnUop(&u)
	}
	c := m.Stats().Cycles
	if c < 3*200 {
		t.Fatalf("dependent load chain took %d cycles, want >= %d", c, 3*200)
	}
}

func TestCacheMissCostsMore(t *testing.T) {
	run := func(stride uint64) int64 {
		m := newModel()
		for i := 0; i < 2000; i++ {
			m.OnInst(mem.CodeAddr(i))
			u := isa.NewUop(isa.UopLoad, isa.ExecLoad)
			u.Dst, u.Src1 = isa.R1, isa.R1
			u.IsMem, u.Width = true, 8
			// Large random-ish stride defeats the stream prefetcher.
			u.Addr = mem.HeapBase + (uint64(i)*stride*2654435761)%(64<<20)&^7
			m.OnUop(&u)
		}
		return m.Stats().Cycles
	}
	hot := run(0)
	cold := run(64)
	if cold <= hot {
		t.Fatalf("missing loads (%d cycles) must be slower than hitting loads (%d)", cold, hot)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// A load of an address stored by a still-in-flight store must be
	// satisfied by forwarding, independent of cache state. A div chain
	// delays the store's retirement so the load issues while the store
	// is in the SQ.
	run := func(forwardable bool) int64 {
		m := newModel()
		// Long-latency chain occupying the ROB head so stores linger.
		for i := 0; i < 8; i++ {
			m.OnInst(mem.CodeAddr(i))
			d := isa.NewUop(isa.UopDiv, isa.ExecMulDiv)
			d.Dst, d.Src1 = isa.R9, isa.R9
			m.OnUop(&d)
		}
		stAddr := mem.HeapBase + 64<<10
		ldAddr := stAddr
		if !forwardable {
			ldAddr = stAddr + 4096 // different, cold line
		}
		m.OnInst(mem.CodeAddr(20))
		st := isa.NewUop(isa.UopStore, isa.ExecStore)
		st.Src1 = isa.R2
		st.IsMem, st.IsWr, st.Width, st.Addr = true, true, 8, stAddr
		m.OnUop(&st)
		m.OnInst(mem.CodeAddr(21))
		ld := isa.NewUop(isa.UopLoad, isa.ExecLoad)
		ld.Dst, ld.Src1 = isa.R1, isa.R3
		ld.IsMem, ld.Width, ld.Addr = true, 8, ldAddr
		m.OnUop(&ld)
		// A dependent use so the load's completion shows in the tail.
		m.OnInst(mem.CodeAddr(22))
		use := isa.NewUop(isa.UopAlu, isa.ExecALU)
		use.Dst, use.Src1 = isa.R4, isa.R1
		m.OnUop(&use)
		return m.Stats().Cycles
	}
	fwd, cold := run(true), run(false)
	if fwd >= cold {
		t.Fatalf("forwarded load (%d cycles) must beat cold load (%d)", fwd, cold)
	}
}

func TestMispredictPenalty(t *testing.T) {
	run := func(mispredict bool) int64 {
		m := newModel()
		for i := 0; i < 500; i++ {
			m.OnInst(mem.CodeAddr(i))
			u := isa.NewUop(isa.UopBranch, isa.ExecBr)
			u.IsBranch, u.Taken = true, true
			u.Mispredict = mispredict
			m.OnUop(&u)
			m.OnInst(mem.CodeAddr(i + 1000))
			a := isa.NewUop(isa.UopAlu, isa.ExecALU)
			a.Dst = isa.R1
			m.OnUop(&a)
		}
		return m.Stats().Cycles
	}
	good, bad := run(false), run(true)
	if bad < good+500*5 {
		t.Fatalf("mispredicts cost too little: %d vs %d cycles", bad, good)
	}
}

func TestROBLimitsInFlight(t *testing.T) {
	// A long-latency op followed by many independent ops: the window
	// fills and dispatch stalls, so cycles reflect the drain.
	m := newModel()
	m.OnInst(mem.CodeAddr(0))
	div := isa.NewUop(isa.UopDiv, isa.ExecMulDiv)
	div.Dst, div.Src1 = isa.R9, isa.R9
	m.OnUop(&div)
	// The divider result feeds a second div, etc: 50 serial divides
	// (20 cycles each) while 5000 independent ALU ops try to pass.
	for i := 0; i < 50; i++ {
		m.OnInst(mem.CodeAddr(i + 1))
		d := isa.NewUop(isa.UopDiv, isa.ExecMulDiv)
		d.Dst, d.Src1 = isa.R9, isa.R9
		m.OnUop(&d)
	}
	feedALU(m, 5000, false)
	c := m.Stats().Cycles
	if c < 50*20 {
		t.Fatalf("serial divides must dominate: %d cycles", c)
	}
}

func TestLockPortSeparateFromLoadPorts(t *testing.T) {
	// Saturate the 2 load ports; check µops on the lock port must not
	// slow things down when the lock cache exists, but must contend
	// when it does not.
	run := func(lockCache bool) int64 {
		hc := cache.DefaultHierConfig()
		hc.LockCacheEnabled = lockCache
		m := New(DefaultConfig(), cache.NewHierarchy(hc), bpred.New(bpred.DefaultConfig()))
		for i := 0; i < 2000; i++ {
			m.OnInst(mem.CodeAddr(i % 64))
			for j := 0; j < 2; j++ { // two loads: saturates load ports
				u := isa.NewUop(isa.UopLoad, isa.ExecLoad)
				u.Dst = isa.Reg(j)
				u.IsMem, u.Width = true, 8
				u.Addr = mem.HeapBase + uint64(i%512)*8
				m.OnUop(&u)
			}
			chk := isa.NewUop(isa.UopCheck, isa.ExecLock)
			if !lockCache {
				chk.Class = isa.ExecLoad
			}
			chk.Addr = mem.LockBase + uint64(i%8)*8
			chk.Lock = true
			m.OnUop(&chk)
		}
		return m.Stats().Cycles
	}
	with, without := run(true), run(false)
	if without <= with {
		t.Fatalf("check µops without lock cache (%d cycles) must be slower than with (%d)", without, with)
	}
}

func TestPropagateMetaIsFree(t *testing.T) {
	m := newModel()
	// Metadata ready late on R1.
	m.regReady[isa.MetaReg(isa.R1)] = 500
	m.PropagateMeta(isa.R2, isa.R1)
	if m.regReady[isa.MetaReg(isa.R2)] != 500 {
		t.Fatal("PropagateMeta must copy readiness")
	}
	m.InvalidateMeta(isa.R2)
	if m.regReady[isa.MetaReg(isa.R2)] != 0 {
		t.Fatal("InvalidateMeta must clear readiness")
	}
	if m.Stats().Uops != 0 {
		t.Fatal("rename-stage metadata handling must not consume µops")
	}
}

func TestMonolithicSerializesShadowLoad(t *testing.T) {
	run := func(mono bool) int64 {
		m := newModel()
		m.Monolithic = mono
		for i := 0; i < 500; i++ {
			m.OnInst(mem.CodeAddr(i % 32))
			// Pointer load: data load + shadow (metadata) load, then a
			// dependent use of the data.
			ld := isa.NewUop(isa.UopLoad, isa.ExecLoad)
			ld.Dst, ld.Src1 = isa.R1, isa.R2
			ld.IsMem, ld.Width, ld.Addr = true, 8, mem.HeapBase+uint64(i%128)*8
			m.OnUop(&ld)
			sh := isa.NewUop(isa.UopShadowLoad, isa.ExecLoad)
			sh.MDst = isa.MetaReg(isa.R1)
			sh.IsMem, sh.Width, sh.Shadow = true, 16, true
			sh.Addr = mem.ShadowAddr(ld.Addr, 16) + uint64(i%4)*4096*16 // miss-prone
			sh.Meta = isa.MetaPtrLoad
			m.OnUop(&sh)
			use := isa.NewUop(isa.UopAlu, isa.ExecALU)
			use.Dst, use.Src1 = isa.R3, isa.R1
			m.OnUop(&use)
		}
		return m.Stats().Cycles
	}
	dec, mono := run(false), run(true)
	if mono <= dec {
		t.Fatalf("monolithic (%d cycles) must be slower than decoupled (%d)", mono, dec)
	}
}

// TestCycleBreakdownSums: the CPI-stack buckets partition the cycle
// count exactly, and check work lands in the check (or lock-miss)
// buckets rather than the base bucket.
func TestCycleBreakdownSums(t *testing.T) {
	m := newModel()
	for i := 0; i < 400; i++ {
		m.OnInst(mem.CodeAddr(i % 64))
		ld := isa.NewUop(isa.UopLoad, isa.ExecLoad)
		ld.Dst, ld.Src1 = isa.R1, isa.R1
		ld.IsMem, ld.Width = true, 8
		ld.Addr = mem.HeapBase + uint64(i*8)
		m.OnUop(&ld)
		chk := isa.NewUop(isa.UopCheck, isa.ExecLock)
		chk.Addr = mem.LockBase + uint64(i%512)*64 // wander to force some lock misses
		chk.Lock = true
		chk.Meta = isa.MetaCheck
		m.OnUop(&chk)
		sh := isa.NewUop(isa.UopShadowLoad, isa.ExecLoad)
		sh.MDst = isa.MetaReg(isa.R1)
		sh.IsMem, sh.Width, sh.Shadow = true, 16, true
		sh.Addr = mem.ShadowAddr(ld.Addr, 16)
		sh.Meta = isa.MetaPtrLoad
		m.OnUop(&sh)
	}
	s := m.Stats()
	if s.Cycles == 0 {
		t.Fatal("no cycles recorded")
	}
	if got := s.CheckedCycleSum(); got != s.Cycles {
		t.Fatalf("breakdown sums to %d, want Cycles = %d (base %d, check %d, lockmiss %d, meta %d)",
			got, s.Cycles, s.BaseCycles, s.CheckCycles, s.LockMissCycles, s.MetaCycles)
	}
	if s.BaseCycles == 0 {
		t.Error("program µops must account some base cycles")
	}
	if s.CheckCycles+s.LockMissCycles == 0 {
		t.Error("check µops must account some cycles")
	}
	if s.LockMissCycles == 0 {
		t.Error("wandering lock addresses must produce lock-miss cycles")
	}
	if s.UopsByOp[isa.UopCheck] != 400 || s.UopsByOp[isa.UopShadowLoad] != 400 ||
		s.UopsByOp[isa.UopLoad] != 400 {
		t.Errorf("per-op counts wrong: check=%d shadowload=%d load=%d",
			s.UopsByOp[isa.UopCheck], s.UopsByOp[isa.UopShadowLoad], s.UopsByOp[isa.UopLoad])
	}
	if s.ShadowAccesses != 400 {
		t.Errorf("ShadowAccesses = %d, want 400", s.ShadowAccesses)
	}
	if !s.Cache.LockEnabled || s.Cache.Lock.Accesses == 0 {
		t.Errorf("lock cache snapshot missing: %+v", s.Cache)
	}
}

// TestCycleBreakdownBaselineOnly: with only program µops the whole
// cycle count is base cycles.
func TestCycleBreakdownBaselineOnly(t *testing.T) {
	m := newModel()
	feedALU(m, 500, true)
	s := m.Stats()
	if s.BaseCycles != s.Cycles || s.CheckCycles != 0 || s.LockMissCycles != 0 || s.MetaCycles != 0 {
		t.Fatalf("baseline breakdown wrong: %+v", s)
	}
}

func TestStatsBuckets(t *testing.T) {
	m := newModel()
	m.OnInst(mem.CodeAddr(0))
	u := isa.NewUop(isa.UopCheck, isa.ExecLock)
	u.Meta = isa.MetaCheck
	u.Addr = mem.LockBase
	u.Lock = true
	m.OnUop(&u)
	s := m.Stats()
	if s.UopsByMeta[isa.MetaCheck] != 1 || s.LockReads != 1 {
		t.Fatalf("stats buckets wrong: %+v", s)
	}
}

func TestDeterministicCycles(t *testing.T) {
	run := func() int64 {
		m := newModel()
		feedALU(m, 300, true)
		feedALU(m, 300, false)
		return m.Stats().Cycles
	}
	if run() != run() {
		t.Fatal("timing model must be deterministic")
	}
}

// modelSink keeps the measured constructions from being optimized away.
var modelSink *Model

// A model starts with 1,024-cycle windows, a 24 KiB slot table and a
// 4 KiB IQ ring, and grows them only when a run spreads that far.
func TestNewFootprint(t *testing.T) {
	h := cache.NewHierarchy(cache.DefaultHierConfig())
	bp := bpred.New(bpred.DefaultConfig())
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			modelSink = New(DefaultConfig(), h, bp)
		}
	})
	got := res.AllocedBytesPerOp()
	t.Logf("New allocates %d bytes", got)
	if got >= 64<<10 {
		t.Fatalf("New allocates %d bytes, want under %d", got, 64<<10)
	}
}

// Configurations reachable through the public SimConfig that spread
// the pipeline's windows far past their initial 1,024 cycles: a
// 5,000-cycle divide chain, and chains of dependent loads that miss
// every level on large windows with slow DRAM. Each passes
// ValidateWindow, runs to completion with a table that covers its
// widest live span, and chains as slow as each µop's latency.
func TestLargeWindowConfigs(t *testing.T) {
	chain := func(t *testing.T, cfg Config, dram int, div bool, n int) *Model {
		hc := cache.DefaultHierConfig()
		hc.DRAMLatency = dram
		if err := cfg.ValidateWindow(hc.MissLatency()); err != nil {
			t.Fatalf("the window ceiling refuses this configuration: %v", err)
		}
		m := New(cfg, cache.NewHierarchy(hc), bpred.New(bpred.DefaultConfig()))
		widest := int64(0)
		for i := 0; i < n; i++ {
			m.OnInst(mem.CodeAddr(i % 64)) // loop-resident code
			u := isa.NewUop(isa.UopDiv, isa.ExecMulDiv)
			if !div {
				u = isa.NewUop(isa.UopLoad, isa.ExecLoad)
				u.IsMem, u.Width = true, 8
				// 1 MiB apart: one set in every level and in the DTLB.
				u.Addr = mem.HeapBase + uint64(i)<<20
			}
			u.Dst, u.Src1 = isa.R1, isa.R1
			m.OnUop(&u)
			widest = max(widest, m.lastRetire-(m.rob.peek()+1))
		}
		t.Logf("%d cycles; widest live span %d; slot table %d entries, IQ ring %d",
			m.lastRetire, widest, len(m.slots.buf), len(m.iq.cnt))
		if int64(len(m.slots.buf)) <= widest {
			t.Fatalf("live reservations span %d cycles, beyond the %d-entry slot table", widest, len(m.slots.buf))
		}
		return m
	}
	t.Run("DivLat5000", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.DivLat = 5000
		const n = 400
		if m := chain(t, cfg, 60, true, n); m.lastRetire < n*5000 {
			t.Fatalf("%d dependent 5,000-cycle divides took %d cycles", n, m.lastRetire)
		}
	})
	t.Run("ROB1024IQ1024DRAM400", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.ROBSize, cfg.IQSize = 1024, 1024
		const n = 3000
		if m := chain(t, cfg, 400, false, n); m.lastRetire < n*400 {
			t.Fatalf("%d dependent DRAM misses took %d cycles", n, m.lastRetire)
		}
	})
	t.Run("ROB512DRAM200", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.ROBSize = 512
		const n = 3000
		if m := chain(t, cfg, 200, false, n); len(m.slots.buf) < 1<<17 {
			t.Fatalf("slot table grew only to %d entries", len(m.slots.buf))
		}
	})
}

// TestValidateWindow: ROBSize × the longest latency may reach
// MaxWindowCycles and no further, whichever latency is the longest,
// memory's included; a product that would overflow is refused, not
// wrapped. Only the error is checked: nothing runs.
func TestValidateWindow(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.ValidateWindow(128); err != nil {
		t.Errorf("Table 2 config with the default hierarchy: %v", err)
	}
	rob := cfg.ROBSize
	for _, c := range []struct {
		name string
		set  func(*Config, int) int // sets latency lat, returns memLatency
	}{
		{"DivLat", func(c *Config, lat int) int { c.DivLat = lat; return 128 }},
		{"FPDivLat", func(c *Config, lat int) int { c.FPDivLat = lat; return 128 }},
		{"MulLat", func(c *Config, lat int) int { c.MulLat = lat; return 128 }},
		{"miss latency", func(c *Config, lat int) int { return lat }},
	} {
		most := MaxWindowCycles / rob
		for _, lat := range []int{most, most + 1, 1 << 40, math.MaxInt} {
			cfg := DefaultConfig()
			err := cfg.ValidateWindow(c.set(&cfg, lat))
			if lat == most {
				if err != nil {
					t.Errorf("%s %d × ROB %d = %d: %v", c.name, lat, rob, lat*rob, err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), c.name+" ") {
				t.Errorf("%s %d: err = %v, want an error naming %s", c.name, lat, err, c.name)
			}
		}
	}
	big := DefaultConfig()
	big.ROBSize = MaxWindowCycles
	if err := big.ValidateWindow(0); err == nil || !strings.Contains(err.Error(), "ROBSize") {
		t.Errorf("ROBSize %d with 20-cycle divides: err = %v, want an error naming ROBSize", big.ROBSize, err)
	}
}
