// Package bpred implements the simulated front-end branch predictors:
// the 3-table PPM-style tagged conditional predictor from Table 2 of
// the paper (256x2, 128x4, 128x4 entries, 8-bit tags, 2-bit counters,
// over a bimodal base), a last-target indirect predictor, and a return
// address stack.
package bpred

// Config sizes the predictor. The defaults mirror Table 2.
type Config struct {
	BaseEntries int // bimodal base table
	T1Entries   int // shortest-history tagged table
	T2Entries   int
	T3Entries   int // longest-history tagged table
	TagBits     int
	RASDepth    int
	BTBEntries  int // indirect-target table
}

// DefaultConfig returns the Table 2 predictor configuration.
func DefaultConfig() Config {
	return Config{
		BaseEntries: 4096,
		T1Entries:   256 * 2,
		T2Entries:   128 * 4,
		T3Entries:   128 * 4,
		TagBits:     8,
		RASDepth:    64,
		BTBEntries:  512,
	}
}

type taggedEntry struct {
	tag uint16
	ctr uint8 // 2-bit saturating, taken if >= 2
}

type taggedTable struct {
	entries []taggedEntry
	histLen uint // history bits folded into the index
}

// Predictor is the composite front-end predictor.
type Predictor struct {
	cfg  Config
	base []uint8 // 2-bit counters
	tabs [3]taggedTable
	ghr  uint64 // global history register

	ras    []uint64
	rasTop int

	btb map[uint64]uint64 // pc -> last indirect target

	// Stats.
	CondLookups   uint64
	CondMispred   uint64
	IndirLookups  uint64
	IndirMispred  uint64
	ReturnLookups uint64
	ReturnMispred uint64
}

// New returns a predictor with the given configuration.
func New(cfg Config) *Predictor {
	p := &Predictor{
		cfg:  cfg,
		base: make([]uint8, cfg.BaseEntries),
		btb:  make(map[uint64]uint64),
		ras:  make([]uint64, cfg.RASDepth),
	}
	lens := [3]uint{4, 8, 16}
	sizes := [3]int{cfg.T1Entries, cfg.T2Entries, cfg.T3Entries}
	for i := range p.tabs {
		p.tabs[i] = taggedTable{entries: make([]taggedEntry, sizes[i]), histLen: lens[i]}
	}
	// Weakly taken base counters: loops predict taken quickly.
	for i := range p.base {
		p.base[i] = 2
	}
	return p
}

func fold(h uint64, bits uint) uint64 {
	h &= (1 << bits) - 1
	return h ^ (h >> (bits / 2))
}

func (t *taggedTable) index(pc, ghr uint64) int {
	h := fold(ghr, t.histLen)
	return int((pc ^ h ^ (pc >> 7)) % uint64(len(t.entries)))
}

func (p *Predictor) tag(pc, ghr uint64, histLen uint) uint16 {
	mask := uint64(1<<p.cfg.TagBits) - 1
	return uint16((pc ^ (pc >> 11) ^ fold(ghr, histLen)*3) & mask)
}

// PredictCond predicts a conditional branch at pc. The longest-history
// tagged table with a tag match provides the prediction; otherwise the
// bimodal base does (the PPM scheme).
func (p *Predictor) PredictCond(pc uint64) bool {
	p.CondLookups++
	for i := 2; i >= 0; i-- {
		t := &p.tabs[i]
		e := &t.entries[t.index(pc, p.ghr)]
		if e.tag == p.tag(pc, p.ghr, t.histLen) {
			return e.ctr >= 2
		}
	}
	return p.base[pc%uint64(len(p.base))] >= 2
}

// UpdateCond trains the predictor with the branch outcome and shifts
// the global history. Call after PredictCond for the same pc.
func (p *Predictor) UpdateCond(pc uint64, taken, predicted bool) {
	if taken != predicted {
		p.CondMispred++
	}
	// Train the providing component; allocate in a longer table on a
	// misprediction (simplified PPM allocation policy).
	provider := -1
	for i := 2; i >= 0; i-- {
		t := &p.tabs[i]
		e := &t.entries[t.index(pc, p.ghr)]
		if e.tag == p.tag(pc, p.ghr, t.histLen) {
			provider = i
			bumpCtr(&e.ctr, taken)
			break
		}
	}
	if provider < 0 {
		bumpCtr(&p.base[pc%uint64(len(p.base))], taken)
	}
	if taken != predicted && provider < 2 {
		t := &p.tabs[provider+1]
		e := &t.entries[t.index(pc, p.ghr)]
		e.tag = p.tag(pc, p.ghr, t.histLen)
		if taken {
			e.ctr = 2
		} else {
			e.ctr = 1
		}
	}
	p.ghr = p.ghr<<1 | b2u(taken)
}

// PredictIndirect predicts the target of an indirect jump/call at pc;
// ok is false when the BTB has no entry (treated as a misprediction).
func (p *Predictor) PredictIndirect(pc uint64) (target uint64, ok bool) {
	p.IndirLookups++
	t, ok := p.btb[pc]
	return t, ok
}

// UpdateIndirect records the actual indirect target.
func (p *Predictor) UpdateIndirect(pc, predicted, actual uint64, havePred bool) {
	if !havePred || predicted != actual {
		p.IndirMispred++
	}
	p.btb[pc] = actual
}

// PushReturn pushes a return address on a call.
func (p *Predictor) PushReturn(addr uint64) {
	p.ras[p.rasTop%len(p.ras)] = addr
	p.rasTop++
}

// PredictReturn pops the predicted return address.
func (p *Predictor) PredictReturn() (uint64, bool) {
	p.ReturnLookups++
	if p.rasTop == 0 {
		return 0, false
	}
	p.rasTop--
	return p.ras[p.rasTop%len(p.ras)], true
}

// RecordReturnOutcome counts return mispredictions (RAS overflow or
// mismatch).
func (p *Predictor) RecordReturnOutcome(predicted, actual uint64, havePred bool) {
	if !havePred || predicted != actual {
		p.ReturnMispred++
	}
}

func bumpCtr(c *uint8, up bool) {
	if up {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// MispredictRate returns the conditional misprediction rate.
func (p *Predictor) MispredictRate() float64 {
	if p.CondLookups == 0 {
		return 0
	}
	return float64(p.CondMispred) / float64(p.CondLookups)
}
