package trace

import (
	"strings"
	"testing"

	"watchdog/internal/isa"
)

// TestFlightRingWraparound: the ring must keep exactly the last N
// events, served oldest first, across the wrap.
func TestFlightRingWraparound(t *testing.T) {
	s := New(Config{FlightN: 4})
	for pc := 0; pc < 10; pc++ {
		s.Inst(pc, isa.OpNop)
	}
	evs := s.FlightEvents()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := 6 + i; ev.PC != want {
			t.Fatalf("ring[%d].PC = %d, want %d (oldest first)", i, ev.PC, want)
		}
	}
	// Before the wrap the partial ring is served in emission order.
	s2 := New(Config{FlightN: 8})
	s2.Inst(1, isa.OpNop)
	s2.Inst(2, isa.OpNop)
	evs = s2.FlightEvents()
	if len(evs) != 2 || evs[0].PC != 1 || evs[1].PC != 2 {
		t.Fatalf("partial ring wrong: %+v", evs)
	}
}

// TestObserverSeesEveryEvent: the one observer receives every recorded
// event in emission order, sequence numbers included, alongside the
// ring; an observer alone makes a sink record without retaining.
func TestObserverSeesEveryEvent(t *testing.T) {
	s := New(Config{FlightN: 16})
	var seen []Event
	s.SetObserver(func(ev Event) { seen = append(seen, ev) })
	for pc := 0; pc < 10; pc++ {
		s.Inst(pc, isa.OpNop)
		s.Shadow(pc, 0x40, false)
	}
	if len(seen) != 20 {
		t.Fatalf("observer saw %d events, want 20", len(seen))
	}
	for i, ev := range seen {
		if ev.Seq != uint64(i) || ev.PC != i/2 {
			t.Fatalf("event %d: seq %d pc %d, want seq %d pc %d", i, ev.Seq, ev.PC, i, i/2)
		}
	}
	if flight := s.FlightEvents(); flight[len(flight)-1] != seen[len(seen)-1] {
		t.Fatalf("ring and observer disagree on the last event: %+v vs %+v", flight[len(flight)-1], seen[len(seen)-1])
	}
	s2 := New(Config{})
	n := 0
	s2.SetObserver(func(Event) { n++ })
	s2.Inst(1, isa.OpNop)
	s2.Check(1, 0x10, 1, 0x20, 1, false, OutcomeOK)
	if n != 2 || s2.CountByKind(KindCheck) != 1 || s2.Events() != nil || s2.FlightEvents() != nil {
		t.Fatalf("observer-only sink: observed %d, counted %d checks, retained %v %v",
			n, s2.CountByKind(KindCheck), s2.Events(), s2.FlightEvents())
	}
}

// TestObserverDetachesItself: an observer may detach itself from inside
// its callback, as watchdog-sim -trace N does once it has printed N
// instructions. A sink with no timeline and no ring is then inactive,
// so it stops counting; with a ring, only the ring keeps recording.
func TestObserverDetachesItself(t *testing.T) {
	for _, flightN := range []int{0, 4} {
		s := New(Config{FlightN: flightN})
		seen := 0
		s.SetObserver(func(Event) {
			if seen++; seen == 3 {
				s.SetObserver(nil)
			}
		})
		for pc := 0; pc < 10; pc++ {
			s.Inst(pc, isa.OpNop)
		}
		want := uint64(3)
		if flightN > 0 {
			want = 10
		}
		if seen != 3 || s.CountByKind(KindInst) != want {
			t.Fatalf("FlightN %d: observed %d, counted %d, want 3 and %d",
				flightN, seen, s.CountByKind(KindInst), want)
		}
	}
}

// TestDumpFlight: the dump names the faulting identifier and lock.
func TestDumpFlight(t *testing.T) {
	s := New(Config{FlightN: 8})
	s.Check(7, 0x5000, 42, 0x9000, 0, false, OutcomeUseAfterFree)
	s.Violation(7, 0x5000, 42, 0x9000, false, OutcomeUseAfterFree)
	var b strings.Builder
	if err := s.DumpFlight(&b, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"VIOLATION", "use-after-free", "key=42", "lock=0x9000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	// An empty ring dumps a placeholder, not an error.
	var e strings.Builder
	if err := New(Config{FlightN: 4}).DumpFlight(&e, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.String(), "empty") {
		t.Fatalf("empty dump: %q", e.String())
	}
}

// TestDisabledSinkRetainsNothing: a zero-config sink (no timeline, no
// ring, no observer) short-circuits every emitter — nothing retained,
// nothing counted (the in-sink analogue of the nil-sink hot path).
func TestDisabledSinkRetainsNothing(t *testing.T) {
	s := New(Config{})
	s.Inst(1, isa.OpNop)
	s.Check(1, 0x10, 1, 0x20, 1, false, OutcomeOK)
	if s.Events() != nil || s.FlightEvents() != nil {
		t.Fatal("disabled sink retained events")
	}
	if s.CountByKind(KindCheck) != 0 || s.CountByKind(KindInst) != 0 {
		t.Fatal("disabled sink must not count either")
	}
}

func TestProgressCounters(t *testing.T) {
	p := NewProgress()
	p.AddTotal(4)
	if p.ETA() != 0 {
		t.Fatal("ETA with nothing done must be 0")
	}
	p.CellDone()
	p.CellDone()
	if p.Done() != 2 || p.Total() != 4 {
		t.Fatalf("done/total = %d/%d", p.Done(), p.Total())
	}
	line := p.Line()
	if !strings.Contains(line, "2/4 cells (50.0%)") {
		t.Fatalf("line: %q", line)
	}
	p.CellDone()
	p.CellDone()
	if p.ETA() != 0 {
		t.Fatal("ETA when complete must be 0")
	}
}
