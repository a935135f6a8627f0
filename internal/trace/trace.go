// Package trace is the simulator's per-µop event sink: the pipeline,
// machine and engine hot paths feed it lifecycle events (instruction
// execution, µop stage timestamps, check outcomes with their lock
// values, shadow-space traffic, rename-stage copy eliminations,
// violations) and it serves three consumers built on one entry point:
//
//   - a Perfetto/Chrome trace-event JSON timeline (perfetto.go), so a
//     figure anomaly can be opened in ui.perfetto.dev and attributed
//     cycle by cycle, streamed or replayed from the kept events;
//   - a bounded flight-recorder ring that keeps the last N events and
//     is dumped when a run ends in a violation or runtime abort,
//     turning a detection into an explainable event log;
//   - one observer that receives every recorded event in emission
//     order, on which the CLI streams its -timeline export and prints
//     its -trace instructions.
//
// The sink is strictly per-simulation (one Sink per machine, never
// shared across goroutines) and every call site nil-checks its sink
// pointer, so a disabled trace costs one predicted branch and zero
// allocations on the hot path (TestStepZeroAlloc pins this).
package trace

import (
	"fmt"
	"io"

	"watchdog/internal/isa"
)

// Kind discriminates trace events.
type Kind uint8

const (
	// KindInst is one executed macro instruction (machine.step).
	KindInst Kind = iota
	// KindFetch is the front end beginning a macro instruction's fetch
	// (pipeline.OnInst); Retire carries the fetch cycle.
	KindFetch
	// KindUop is one µop's full lifecycle with its dispatch, issue,
	// completion and retirement cycles (pipeline.OnUop).
	KindUop
	// KindCheck is a check µop's functional outcome: the governing
	// identifier, the lock value observed at its lock location, and
	// whether the check passed (engine.Access).
	KindCheck
	// KindShadow is a shadow-space metadata load or store injected for
	// a pointer-classified access (engine.PtrLoad/PtrStore).
	KindShadow
	// KindCopyElim is a rename-stage metadata copy elimination: valid
	// metadata propagated with no µop (Section 6.2).
	KindCopyElim
	// KindViolation is a raised memory-safety exception; the run stops.
	KindViolation
	// KindAbort is a runtime-library abort (SysAbort), e.g. double free.
	KindAbort
	// NumKinds sizes per-kind accounting.
	NumKinds
)

var kindNames = [NumKinds]string{
	"inst", "fetch", "uop", "check", "shadow", "copy-elim", "violation", "abort",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind?%d", uint8(k))
}

// CheckOutcome is the functional result of a check µop.
type CheckOutcome uint8

const (
	// OutcomeOK: the identifier is live (and in bounds, when checked).
	OutcomeOK CheckOutcome = iota
	// OutcomeNoMetadata: the access carried no valid pointer metadata.
	OutcomeNoMetadata
	// OutcomeUseAfterFree: the lock location no longer holds the key.
	OutcomeUseAfterFree
	// OutcomeOutOfBounds: the address fell outside [Base, Bound).
	OutcomeOutOfBounds
	// OutcomeUnallocated: the location policy found the address free.
	OutcomeUnallocated
)

var outcomeNames = [...]string{
	"ok", "no-metadata", "use-after-free", "out-of-bounds", "unallocated",
}

// String names the outcome.
func (o CheckOutcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome?%d", uint8(o))
}

// Event is one trace record. It is a flat value covering every kind;
// which fields are meaningful depends on Kind (see the Kind docs).
type Event struct {
	Kind Kind
	// Seq is the emission sequence number (global per sink), the
	// deterministic total order of the trace.
	Seq uint64
	// PC is the macro-instruction index the event belongs to.
	PC int
	// Op is the macro opcode (KindInst) — stored as isa.Opcode.
	Op isa.Opcode
	// Uop/Meta identify the µop (KindUop).
	Uop  isa.UopOp
	Meta isa.MetaClass

	// Stage timestamps in cycles (KindUop; Retire doubles as the
	// single timestamp of KindFetch and the counter-sample cycle).
	Dispatch int64
	Issue    int64
	Complete int64
	Retire   int64

	// Memory annotations (KindUop/KindCheck/KindShadow/KindViolation).
	Addr  uint64
	Write bool
	// Shadow marks shadow-space µops; LockMiss marks a check µop whose
	// lock-location read missed its first-level cache.
	Shadow   bool
	LockMiss bool

	// Identifier state (KindCheck/KindViolation): the governing key,
	// its lock location, and the value the lock location held.
	Key     uint64
	Lock    uint64
	LockVal uint64
	Outcome CheckOutcome

	// Occupancy samples taken at µop retirement (KindUop): issue-queue
	// entries in flight and live lock-location-cache lines.
	IQLen     int
	LockLines int

	// Register operands (KindCopyElim: Dst inherits Src's metadata).
	Dst isa.Reg
	Src isa.Reg

	// AbortCode is the runtime abort code (KindAbort).
	AbortCode int64
}

// MaxFlightN bounds Config.FlightN. New allocates the flight-recorder
// ring up front, 144 bytes per event, so the bound caps it at 9 MB. A
// dump is read for the events just before a violation, and a whole
// scale-1 workload run emits a few hundred thousand.
const MaxFlightN = 1 << 16

// Config selects what a sink retains.
type Config struct {
	// Timeline keeps every event for readers after the run (Events,
	// WritePerfetto); a streaming export needs only the observer.
	Timeline bool
	// FlightN keeps the last FlightN events in the flight-recorder
	// ring (0 disables the ring). The CLIs refuse more than
	// MaxFlightN.
	FlightN int
}

// Sink receives events from one simulation. Not safe for concurrent
// use: every simulated machine owns its sink exclusively (parallel
// sweeps attach one sink per cell).
type Sink struct {
	cfg Config
	seq uint64

	events []Event // timeline, in emission order

	ring     []Event // flight recorder
	ringPos  int
	ringFull bool

	obs    func(ev Event)
	byKind [NumKinds]uint64
}

// New builds a sink.
func New(cfg Config) *Sink {
	s := &Sink{cfg: cfg}
	if cfg.FlightN > 0 {
		s.ring = make([]Event, cfg.FlightN)
	}
	return s
}

// SetObserver attaches the sink's one observer, which receives every
// recorded event, sequence number included, in emission order.
func (s *Sink) SetObserver(f func(ev Event)) { s.obs = f }

// record is the single recording entry point behind the typed emitters.
func (s *Sink) record(ev Event) {
	ev.Seq = s.seq
	s.seq++
	s.byKind[ev.Kind]++
	if s.cfg.Timeline {
		s.events = append(s.events, ev)
	}
	if s.ring != nil {
		s.ring[s.ringPos] = ev
		s.ringPos++
		if s.ringPos == len(s.ring) {
			s.ringPos = 0
			s.ringFull = true
		}
	}
	if s.obs != nil {
		s.obs(ev)
	}
}

// active reports whether the sink records at all; emitters use it to
// return immediately on a sink with no timeline, ring or observer.
func (s *Sink) active() bool { return s.cfg.Timeline || s.ring != nil || s.obs != nil }

// Inst records one executed macro instruction.
func (s *Sink) Inst(pc int, op isa.Opcode) {
	if !s.active() {
		return
	}
	s.record(Event{Kind: KindInst, PC: pc, Op: op})
}

// Fetch records the front end starting a macro instruction at the
// given cycle.
func (s *Sink) Fetch(codeAddr uint64, cycle int64) {
	if !s.active() {
		return
	}
	s.record(Event{Kind: KindFetch, Addr: codeAddr, Retire: cycle})
}

// Uop records one µop's lifecycle with its stage timestamps and the
// occupancy samples taken at its retirement.
func (s *Sink) Uop(u *isa.Uop, dispatch, issue, complete, retire int64, lockMiss bool, iqLen, lockLines int) {
	if !s.active() {
		return
	}
	s.record(Event{
		Kind:      KindUop,
		Uop:       u.Op,
		Meta:      u.Meta,
		Dispatch:  dispatch,
		Issue:     issue,
		Complete:  complete,
		Retire:    retire,
		Addr:      u.Addr,
		Write:     u.IsWr,
		Shadow:    u.Shadow,
		LockMiss:  lockMiss,
		IQLen:     iqLen,
		LockLines: lockLines,
	})
}

// Check records a check µop's functional outcome.
func (s *Sink) Check(pc int, addr, key, lock, lockVal uint64, write bool, outcome CheckOutcome) {
	if !s.active() {
		return
	}
	s.record(Event{
		Kind: KindCheck, PC: pc, Addr: addr,
		Key: key, Lock: lock, LockVal: lockVal,
		Write: write, Outcome: outcome,
	})
}

// Shadow records an injected shadow-space metadata access.
func (s *Sink) Shadow(pc int, shadowAddr uint64, write bool) {
	if !s.active() {
		return
	}
	s.record(Event{Kind: KindShadow, PC: pc, Addr: shadowAddr, Write: write})
}

// CopyElim records a rename-stage metadata copy elimination.
func (s *Sink) CopyElim(pc int, dst, src isa.Reg) {
	if !s.active() {
		return
	}
	s.record(Event{Kind: KindCopyElim, PC: pc, Dst: dst, Src: src})
}

// Violation records the raised memory-safety exception that stopped
// the run.
func (s *Sink) Violation(pc int, addr, key, lock uint64, write bool, outcome CheckOutcome) {
	if !s.active() {
		return
	}
	s.record(Event{
		Kind: KindViolation, PC: pc, Addr: addr,
		Key: key, Lock: lock, Write: write, Outcome: outcome,
	})
}

// Abort records a runtime-library abort.
func (s *Sink) Abort(pc int, code int64) {
	if !s.active() {
		return
	}
	s.record(Event{Kind: KindAbort, PC: pc, AbortCode: code})
}

// Events returns the recorded timeline (emission order; nil when the
// sink was not configured with Timeline).
func (s *Sink) Events() []Event { return s.events }

// CountByKind returns how many events of the kind were emitted
// (counted even when neither timeline nor ring retained them — the
// cheap aggregate the progress/test layers read).
func (s *Sink) CountByKind(k Kind) uint64 {
	if int(k) < len(s.byKind) {
		return s.byKind[k]
	}
	return 0
}

// FlightEvents returns the flight-recorder contents, oldest first.
func (s *Sink) FlightEvents() []Event {
	if s.ring == nil {
		return nil
	}
	if !s.ringFull {
		out := make([]Event, s.ringPos)
		copy(out, s.ring[:s.ringPos])
		return out
	}
	out := make([]Event, 0, len(s.ring))
	out = append(out, s.ring[s.ringPos:]...)
	out = append(out, s.ring[:s.ringPos]...)
	return out
}

// DumpFlight writes the flight-recorder contents to w, oldest first.
// resolve, when non-nil, renders the macro instruction at a pc (the
// CLI passes the program's disassembler); a nil resolve omits the
// instruction text.
func (s *Sink) DumpFlight(w io.Writer, resolve func(pc int) string) error {
	evs := s.FlightEvents()
	if len(evs) == 0 {
		_, err := fmt.Fprintln(w, "flight recorder: empty")
		return err
	}
	if _, err := fmt.Fprintf(w, "flight recorder: last %d events (oldest first)\n", len(evs)); err != nil {
		return err
	}
	for i := range evs {
		if _, err := fmt.Fprintf(w, "  %s\n", FormatEvent(&evs[i], resolve)); err != nil {
			return err
		}
	}
	return nil
}

// FormatEvent renders one event as a flight-log line.
func FormatEvent(ev *Event, resolve func(pc int) string) string {
	dir := "read"
	if ev.Write {
		dir = "write"
	}
	switch ev.Kind {
	case KindInst:
		txt := ev.Op.Name()
		if resolve != nil {
			txt = resolve(ev.PC)
		}
		return fmt.Sprintf("inst      pc=%-6d %s", ev.PC, txt)
	case KindFetch:
		return fmt.Sprintf("fetch     addr=%#x cycle=%d", ev.Addr, ev.Retire)
	case KindUop:
		return fmt.Sprintf("uop       %-11s disp=%d issue=%d complete=%d retire=%d",
			ev.Uop, ev.Dispatch, ev.Issue, ev.Complete, ev.Retire)
	case KindCheck:
		return fmt.Sprintf("check     pc=%-6d %s %#x key=%d lock=%#x val=%d -> %s",
			ev.PC, dir, ev.Addr, ev.Key, ev.Lock, ev.LockVal, ev.Outcome)
	case KindShadow:
		op := "load"
		if ev.Write {
			op = "store"
		}
		return fmt.Sprintf("shadow    pc=%-6d %s %#x", ev.PC, op, ev.Addr)
	case KindCopyElim:
		return fmt.Sprintf("copy-elim pc=%-6d %s <- %s", ev.PC, ev.Dst, ev.Src)
	case KindViolation:
		return fmt.Sprintf("VIOLATION pc=%-6d %s: %s of %#x (key=%d lock=%#x)",
			ev.PC, ev.Outcome, dir, ev.Addr, ev.Key, ev.Lock)
	case KindAbort:
		return fmt.Sprintf("ABORT     pc=%-6d runtime code %d", ev.PC, ev.AbortCode)
	}
	return fmt.Sprintf("%s seq=%d", ev.Kind, ev.Seq)
}
