package pipeline

import (
	"watchdog/internal/bpred"
	"watchdog/internal/cache"
	"watchdog/internal/isa"
	"watchdog/internal/trace"
)

// Stats aggregates the timing run.
type Stats struct {
	Cycles     int64
	MacroInsts uint64
	Uops       uint64
	// UopsByMeta buckets µops for the Figure 8 breakdown.
	UopsByMeta [isa.NumMetaClasses]uint64
	// UopsByOp counts every retired µop by opcode; the injected
	// opcodes (check, checkfull, boundcheck, shadowload, shadowstore,
	// selectid, ...) give the per-kind injection counts.
	UopsByOp [isa.NumUopOps]uint64

	// CPI-stack cycle breakdown: every cycle of forward progress at
	// retirement is attributed to the µop whose retirement advanced
	// the clock, bucketed by what kind of work that µop is. The four
	// buckets sum exactly to Cycles.
	BaseCycles     int64 // program µops (the baseline CPI stack)
	CheckCycles    int64 // injected check µops whose lock access hit (or needed none)
	LockMissCycles int64 // injected check µops whose lock-location access missed
	MetaCycles     int64 // injected metadata movement / propagation µops

	// ShadowAccesses counts metadata-space memory µops.
	ShadowAccesses uint64
	LockReads      uint64
	Mispredicts    uint64

	// Cache is the per-level access/miss snapshot, pulled from the
	// hierarchy at the end of the run.
	Cache cache.HierStats
}

// IPC returns retired µops per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Uops) / float64(s.Cycles)
}

// InjectedUops returns the count of Watchdog-injected µops (everything
// outside the MetaNone bucket).
func (s *Stats) InjectedUops() uint64 {
	return s.Uops - s.UopsByMeta[isa.MetaNone]
}

// CheckedCycleSum returns the sum of the cycle-breakdown buckets; it
// equals Cycles by construction (asserted by tests and exported so
// report consumers can re-verify).
func (s *Stats) CheckedCycleSum() int64 {
	return s.BaseCycles + s.CheckCycles + s.LockMissCycles + s.MetaCycles
}

// pendingStore records an in-flight store for store-to-load forwarding.
type pendingStore struct {
	addr      uint64
	width     uint8
	dataReady int64
	retire    int64
}

// Model is the dependence-graph timing model. µops must be fed
// strictly in program order via OnInst/OnUop.
type Model struct {
	cfg  Config
	hier *cache.Hierarchy
	bp   *bpred.Predictor

	// IdealShadow makes shadow-space metadata accesses free of cache
	// effects (they occupy ports but always hit and do not disturb
	// cache state) — the Section 9.3 cache-pressure isolation study.
	IdealShadow bool
	// Monolithic models the strawman monolithic register data/metadata
	// (Section 6.1): a pointer load's data consumers also wait for the
	// metadata load (partial-register-write serialization).
	Monolithic bool

	// Ready times per timing register (data regs, temps, metadata regs).
	regReady [isa.NumTimingRegs]int64
	// slots holds the per-cycle usage of dispatch, issue and retire
	// bandwidth and of every functional unit and cache port.
	slots slotTable
	// ROB/LQ/SQ entries free at retirement, which is in order, so a
	// ring of freeing times is exact. IQ entries free at issue, which
	// is out of order, so occupancy needs pop-the-minimum over the
	// occupants' issue times.
	rob       *ring
	lq        *ring
	sq        *ring
	iq        *iqTimes
	stores    []pendingStore // ring buffer of SQSize entries
	storeHead int

	fetchTime    int64 // earliest fetch cycle for the next macro inst
	fetchGroup   int   // macro insts fetched in the current cycle
	lastRetire   int64
	lastFetchBlk uint64

	// sink, when non-nil, receives per-µop lifecycle events (stage
	// timestamps, lock-miss outcome, occupancy samples). Nil-checked
	// at every use so the disabled path stays allocation-free.
	sink *trace.Sink

	stats Stats
}

// SetSink attaches the trace event sink (nil disables tracing).
func (m *Model) SetSink(s *trace.Sink) { m.sink = s }

// New builds a model over the given hierarchy and predictor.
func New(cfg Config, hier *cache.Hierarchy, bp *bpred.Predictor) *Model {
	m := &Model{cfg: cfg, hier: hier, bp: bp}
	// Live reservations belong to the last ROBSize µops, at most one
	// per resource each, so a search passes fewer than 2·ROBSize full
	// cycles.
	m.slots = newSlotTable([numResources]int{
		resDispatch:    cfg.DispatchWidth,
		resIssue:       cfg.IssueWidth,
		resRetire:      cfg.RetireWidth,
		isa.ExecALU:    cfg.IntALUs,
		isa.ExecBr:     cfg.BranchUnits,
		isa.ExecLoad:   cfg.LoadPorts,
		isa.ExecStore:  cfg.StorePorts,
		isa.ExecMulDiv: cfg.MulDivs,
		isa.ExecFPAlu:  cfg.FPAlus,
		isa.ExecFPMul:  cfg.FPMuls,
		isa.ExecFPDiv:  cfg.FPDivs,
		isa.ExecLock:   cfg.LockPorts,
	}, 2*(int64(cfg.ROBSize)+1))
	m.rob = newRing(cfg.ROBSize)
	m.iq = newIQ()
	m.lq = newRing(cfg.LQSize)
	m.sq = newRing(cfg.SQSize)
	m.stores = make([]pendingStore, cfg.SQSize)
	m.fetchTime = 1
	return m
}

// Stats returns the accumulated statistics; Cycles is the retire time
// of the last µop.
func (m *Model) Stats() Stats {
	s := m.stats
	s.Cycles = m.lastRetire
	s.Cache = m.hier.Stats()
	return s
}

// OnInst begins a new macro instruction: fetch bandwidth and I-cache
// accounting. codeAddr is the instruction's code-segment address.
func (m *Model) OnInst(codeAddr uint64) {
	m.stats.MacroInsts++
	blk := codeAddr >> 6
	if blk != m.lastFetchBlk {
		m.lastFetchBlk = blk
		lat := m.hier.Fetch(codeAddr)
		if extra := lat - 3; extra > 0 {
			// I-cache miss stalls fetch by the beyond-L1 latency.
			m.fetchTime += int64(extra)
			m.fetchGroup = 0
		}
	}
	if m.fetchGroup >= m.cfg.FetchWidthMacro {
		m.fetchTime++
		m.fetchGroup = 0
	}
	m.fetchGroup++
	if m.sink != nil {
		m.sink.Fetch(codeAddr, m.fetchTime)
	}
}

// Redirect models a fetch redirect after a taken control transfer:
// the remainder of the current fetch group is discarded.
func (m *Model) redirectFetch(at int64) {
	if at >= m.fetchTime {
		m.fetchTime = at
	}
	m.fetchGroup = 0
}

// OnUop accounts one µop, in program order. The machine has already
// filled the dynamic annotations (Addr, Taken, Mispredict).
func (m *Model) OnUop(u *isa.Uop) {
	m.stats.Uops++
	m.stats.UopsByMeta[u.Meta]++
	m.stats.UopsByOp[u.Op]++
	if u.Shadow && u.IsMem {
		m.stats.ShadowAccesses++
	}
	prevRetire := m.lastRetire
	lockMissed := false

	// --- dispatch (front end + window allocation) ---
	// Every slot search below starts at or after low, once the oldest
	// ROB entry retires, so reservations before low are dead. A search
	// that starts after last must grow the slot table first.
	low := m.rob.peek() + 1
	last := m.slots.last(low)
	dispMin := m.fetchTime + int64(m.cfg.FrontEndDepth)
	if low > dispMin {
		dispMin = low // ROB full until the oldest entry retires
	}
	// IQ full until some occupant issues: drain the earliest-issuing
	// occupants until a slot exists at the dispatch cycle.
	for m.iq.len() >= m.cfg.IQSize {
		if t := m.iq.pop(); t+1 > dispMin {
			dispMin = t + 1
		}
	}
	if u.IsMem && !u.IsWr {
		if t := m.lq.peek(); t+1 > dispMin {
			dispMin = t + 1
		}
	}
	if u.IsMem && u.IsWr {
		if t := m.sq.peek(); t+1 > dispMin {
			dispMin = t + 1
		}
	}
	if dispMin > last {
		last = m.slots.grow(low, dispMin)
	}
	disp := m.slots.reserve(resDispatch, dispMin)

	// --- operand readiness ---
	ready := disp + 1
	for _, r := range [...]isa.Reg{u.Src1, u.Src2, u.Src3} {
		if r != isa.NoReg && int(r) < isa.NumTimingRegs {
			if t := m.regReady[r]; t > ready {
				ready = t
			}
		}
	}
	if u.MSrc != isa.NoReg {
		if t := m.regReady[u.MSrc]; t > ready {
			ready = t
		}
	}

	// --- issue (width + functional unit / port) ---
	// The first cycle with both an issue slot and a free functional
	// unit; ExecNone µops take neither.
	issueAt := ready
	if u.Class != isa.ExecNone {
		if ready > last {
			last = m.slots.grow(low, ready)
		}
		issueAt = m.slots.take(resIssue, int(u.Class), ready)
	}

	// --- execute ---
	complete := issueAt + 1
	switch u.Op {
	case isa.UopMul:
		complete = issueAt + int64(m.cfg.MulLat)
	case isa.UopDiv:
		complete = issueAt + int64(m.cfg.DivLat)
	case isa.UopFAlu:
		complete = issueAt + int64(m.cfg.FPAluLat)
	case isa.UopFMul:
		complete = issueAt + int64(m.cfg.FPMulLat)
	case isa.UopFDiv:
		complete = issueAt + int64(m.cfg.FPDivLat)
	case isa.UopLoad, isa.UopFLoad, isa.UopShadowLoad:
		complete = issueAt + m.loadLatency(u, issueAt)
	case isa.UopCheck, isa.UopCheckFull:
		// Load of the lock location plus an equality comparison.
		m.stats.LockReads++
		var lat int64
		if m.IdealShadow && !m.hier.LockCacheEnabled() {
			lat = 3
		} else {
			missBefore := m.lockMisses()
			lat = int64(m.hier.LockRead(u.Addr))
			lockMissed = m.lockMisses() > missBefore
		}
		complete = issueAt + lat + 1
	case isa.UopStore, isa.UopFStore, isa.UopShadowStore:
		// Address generation; data drains from the store queue after
		// retirement, so completion does not wait for the cache.
		complete = issueAt + 1
	}

	// --- retire (in order) ---
	ret := complete + 1
	if ret <= m.lastRetire {
		ret = m.lastRetire
	}
	if ret > last {
		m.slots.grow(low, ret)
	}
	ret = m.slots.reserve(resRetire, ret)
	if ret < m.lastRetire {
		ret = m.lastRetire
	}
	m.lastRetire = ret

	// CPI-stack attribution: retirement is in order and monotonic, so
	// the per-µop retire deltas partition the cycle count exactly.
	if delta := m.lastRetire - prevRetire; delta > 0 {
		switch {
		case u.Meta == isa.MetaNone:
			m.stats.BaseCycles += delta
		case u.Meta == isa.MetaCheck && lockMissed:
			m.stats.LockMissCycles += delta
		case u.Meta == isa.MetaCheck:
			m.stats.CheckCycles += delta
		default:
			m.stats.MetaCycles += delta
		}
	}

	// --- bookkeeping ---
	if u.Dst != isa.NoReg && int(u.Dst) < isa.NumTimingRegs && !u.IsWr {
		m.regReady[u.Dst] = complete
	}
	if u.MDst != isa.NoReg {
		m.regReady[u.MDst] = complete
		if m.Monolithic && u.Op == isa.UopShadowLoad {
			// Monolithic registers: the metadata load is a partial
			// write of the same register as the data load; consumers
			// of the data serialize behind it.
			for _, r := range dataRegOfMeta(u.MDst) {
				if m.regReady[r] < complete {
					m.regReady[r] = complete
				}
			}
		}
	}
	m.rob.push(ret)
	m.iq.cover(issueAt)
	m.iq.push(issueAt)
	// (IQ occupancy is bounded: the dispatch loop above pops to capacity.)
	if u.IsMem && !u.IsWr {
		m.lq.push(ret)
	}
	if u.IsMem && u.IsWr {
		m.sq.push(ret)
		dataReady := issueAt
		if u.Src3 != isa.NoReg {
			if t := m.regReady[u.Src3]; t > dataReady {
				dataReady = t
			}
		}
		m.stores[m.storeHead] = pendingStore{addr: u.Addr, width: u.Width, dataReady: dataReady, retire: ret}
		m.storeHead = (m.storeHead + 1) % len(m.stores)
		// Perform the cache write (post-retirement drain) for tag and
		// prefetcher state.
		if !(m.IdealShadow && u.Shadow) {
			if u.Lock {
				m.hier.LockWrite(u.Addr)
			} else {
				m.hier.Data(u.Addr, true)
			}
		}
	}

	// --- control flow ---
	if u.Op == isa.UopBranch || u.Op == isa.UopJump {
		if u.Mispredict {
			m.stats.Mispredicts++
			m.redirectFetch(complete)
		} else if u.Taken {
			// Correctly predicted taken: the fetch group ends.
			m.fetchGroup = m.cfg.FetchWidthMacro
		}
	}

	if m.sink != nil {
		m.sink.Uop(u, disp, issueAt, complete, ret, lockMissed,
			m.iq.len(), m.hier.LockLiveLines())
	}
}

// lockMisses returns the miss counter a check µop's lock-location
// read lands on: the dedicated lock cache when enabled, else the L1D
// (the Figure 9 configuration routes lock reads through the data
// path). Sampling it around a LockRead detects a first-level miss.
func (m *Model) lockMisses() uint64 {
	if m.hier.Lock != nil {
		return m.hier.Lock.Misses
	}
	return m.hier.L1D.Misses
}

// loadLatency computes a load µop's latency, checking store-to-load
// forwarding before accessing the hierarchy.
func (m *Model) loadLatency(u *isa.Uop, issueAt int64) int64 {
	// Search the store queue for the youngest older store overlapping
	// this word that is still in flight. Retire times are pushed in
	// monotonic non-decreasing order (each store's retire is the new
	// lastRetire), so scanning youngest→oldest, the first drained entry
	// means every older entry has drained too — stop there.
	word := u.Addr &^ 7
	idx := m.storeHead
	for i := 1; i <= len(m.stores); i++ {
		idx--
		if idx < 0 {
			idx = len(m.stores) - 1
		}
		s := &m.stores[idx]
		if s.retire == 0 || s.retire <= issueAt {
			break // drained (or empty slot); all older entries are too
		}
		if s.addr&^7 == word {
			// Forwarded from the store queue.
			lat := int64(1)
			if s.dataReady > issueAt {
				lat = s.dataReady - issueAt + 1
			}
			return lat
		}
	}
	if m.IdealShadow && u.Shadow {
		return 3 // always an L1 hit, no cache-state disturbance
	}
	if u.Lock {
		return int64(m.hier.LockRead(u.Addr))
	}
	return int64(m.hier.Data(u.Addr, false))
}

// WarmFetch keeps the I-side hierarchy (ITLB, L1I, shared levels)
// architecturally warm during the sampled fidelity's fast-forward: the
// access stream the fetch stage would have issued is replayed against
// the caches, but no fetch-bandwidth or stall accounting happens.
// Sharing lastFetchBlk with OnInst is deliberate — the first timed
// instruction after a fast-forward sees the same "already fetching
// this block" state it would have seen in an exact run.
func (m *Model) WarmFetch(codeAddr uint64) {
	blk := codeAddr >> 6
	if blk != m.lastFetchBlk {
		m.lastFetchBlk = blk
		m.hier.Fetch(codeAddr)
	}
}

// Warm touches the cache hierarchy for one µop exactly as OnUop's
// execute/drain stages would — data loads and store drains through
// Data, lock-location reads through LockRead, lock writes through
// LockWrite, with the IdealShadow carve-outs mirrored — without any
// timing side effects. It is the per-µop half of functional warming:
// after a fast-forward phase the cache and TLB contents match what an
// exact run would hold, so warmup windows start from architecturally
// current state instead of a cold hierarchy.
func (m *Model) Warm(u *isa.Uop) {
	switch u.Op {
	case isa.UopCheck, isa.UopCheckFull:
		if m.IdealShadow && !m.hier.LockCacheEnabled() {
			return
		}
		m.hier.LockRead(u.Addr)
		return
	}
	if !u.IsMem {
		return
	}
	if m.IdealShadow && u.Shadow {
		return
	}
	if u.Lock {
		if u.IsWr {
			m.hier.LockWrite(u.Addr)
		} else {
			m.hier.LockRead(u.Addr)
		}
		return
	}
	m.hier.Data(u.Addr, u.IsWr)
}

// dataRegOfMeta maps a metadata timing register back to its data
// register (for the monolithic ablation).
func dataRegOfMeta(meta isa.Reg) []isa.Reg {
	if meta >= isa.MetaRegBase && int(meta) < isa.NumTimingRegs {
		return []isa.Reg{meta - isa.MetaRegBase}
	}
	return nil
}

// PropagateMeta models rename-stage metadata copy elimination: the
// metadata mapping of dst is repointed at src's physical register with
// no µop (Section 6.2, Figure 6). Timing-wise the destination's
// metadata becomes ready when the source's is.
func (m *Model) PropagateMeta(dst, src isa.Reg) {
	d, s := isa.MetaReg(dst), isa.MetaReg(src)
	if d == isa.NoReg {
		return
	}
	if s == isa.NoReg {
		m.regReady[d] = 0
		return
	}
	m.regReady[d] = m.regReady[s]
}

// InvalidateMeta models rename-stage setting of a register's metadata
// to invalid (instructions that never generate pointers), again with
// no µop.
func (m *Model) InvalidateMeta(dst isa.Reg) {
	if d := isa.MetaReg(dst); d != isa.NoReg {
		m.regReady[d] = 0
	}
}

// Cycles returns the retire time of the last µop fed so far (the
// running cycle counter, used by the sampling methodology).
func (m *Model) Cycles() int64 { return m.lastRetire }

// Uops returns the retired-µop counter without materializing a full
// Stats snapshot (the sampler reads it at every phase edge).
func (m *Model) Uops() uint64 { return m.stats.Uops }

// Clock returns the configured clock in GHz (for ns conversions).
func (m *Model) Clock() float64 { return m.cfg.ClockGHz }
