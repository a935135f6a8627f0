package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// The exporter lays the timeline out as one Perfetto "process" per
// simulation with one named thread (track) per pipeline stage, plus
// counter tracks for issue-queue occupancy and live lock-location-
// cache lines. Cycles map 1:1 to the trace's microsecond timestamps
// (Perfetto has no "cycles" unit; 1 µs == 1 cycle keeps the numbers
// readable). Stage tracks:
//
//	fetch    — instants where the front end started a macro instruction
//	dispatch — each µop from window allocation to issue
//	execute  — each µop from issue to completion
//	retire   — each µop from completion to in-order retirement
//	engine   — functional instants: check outcomes, shadow traffic,
//	           copy eliminations, the violation/abort that ended the run
const (
	tidFetch = iota + 1
	tidDispatch
	tidExecute
	tidRetire
	tidEngine
)

var stageNames = map[int]string{
	tidFetch:    "fetch",
	tidDispatch: "dispatch",
	tidExecute:  "execute",
	tidRetire:   "retire",
	tidEngine:   "engine",
}

// tev is one Chrome trace-event object. Field order is the emission
// order in the JSON document, so exports are byte-stable.
type tev struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	S    string         `json:"s,omitempty"` // instant scope ("t" = thread)
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Perfetto streams a timeline as Chrome trace-event JSON loadable by
// ui.perfetto.dev (and chrome://tracing). It is a sink observer:
// NewPerfetto writes the document's head, Event renders each event as
// it is emitted and writes its trace events at once, and Close writes
// the tail, so an export holds one event at a time however long the
// run; a few hundred thousand events render as about 100 MB of text.
// The output is deterministic for a given event stream (struct fields
// encode in order and map keys sorted) and laid out as
// json.Encoder.SetIndent("", " ") lays out the whole document.
type Perfetto struct {
	out    *bufio.Writer
	buf    bytes.Buffer
	enc    *json.Encoder
	sep    string
	labels map[string]string
	// cycle anchors the engine-track instants (check outcomes, shadow
	// traffic...), functional events with no cycle of their own: it is
	// the latest fetch/retire cycle seen so far in emission order.
	cycle int64
	err   error
}

// NewPerfetto starts a document on w. labels annotate its metadata
// (e.g. the program and configuration names).
func NewPerfetto(w io.Writer, labels map[string]string) *Perfetto {
	p := &Perfetto{out: bufio.NewWriter(w), sep: "{\n \"traceEvents\": [\n  ", labels: labels}
	// Events sit two levels deep: "traceEvents" in the top object.
	p.enc = json.NewEncoder(&p.buf)
	p.enc.SetIndent("  ", " ")
	// Track-naming metadata first, in tid order.
	p.emit(tev{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": "watchdog-sim"},
	})
	for tid := tidFetch; tid <= tidEngine; tid++ {
		p.emit(tev{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: tid,
			Args: map[string]any{"name": stageNames[tid]},
		})
	}
	return p
}

func (p *Perfetto) emit(evs ...tev) {
	for i := range evs {
		p.buf.Reset()
		if p.err == nil {
			p.err = p.enc.Encode(&evs[i])
		}
		p.out.WriteString(p.sep)
		p.out.Write(bytes.TrimSuffix(p.buf.Bytes(), []byte("\n")))
		p.sep = ",\n  "
	}
}

// Event renders one sink event.
func (p *Perfetto) Event(ev Event) {
	switch ev.Kind {
	case KindFetch:
		p.cycle = max(p.cycle, ev.Retire)
		p.emit(tev{
			Name: "fetch", Ph: "i", S: "t", Ts: ev.Retire, Pid: 0, Tid: tidFetch,
			Args: map[string]any{"addr": hex(ev.Addr)},
		})
	case KindUop:
		p.cycle = max(p.cycle, ev.Retire)
		name := ev.Uop.String()
		args := map[string]any{"class": ev.Meta.String()}
		if ev.Addr != 0 {
			args["addr"] = hex(ev.Addr)
		}
		if ev.Shadow {
			args["shadow"] = true
		}
		if ev.LockMiss {
			args["lock_miss"] = true
		}
		p.emit(
			slice(name, tidDispatch, ev.Dispatch, ev.Issue, args),
			slice(name, tidExecute, ev.Issue, ev.Complete, args),
			slice(name, tidRetire, ev.Complete, ev.Retire, args),
			tev{Name: "IQ occupancy", Ph: "C", Ts: ev.Retire, Pid: 0,
				Args: map[string]any{"entries": ev.IQLen}},
			tev{Name: "lock$ lines", Ph: "C", Ts: ev.Retire, Pid: 0,
				Args: map[string]any{"lines": ev.LockLines}},
		)
	case KindCheck:
		p.emit(tev{
			Name: "check:" + ev.Outcome.String(), Ph: "i", S: "t", Ts: p.cycle, Pid: 0, Tid: tidEngine,
			Args: map[string]any{
				"pc": ev.PC, "addr": hex(ev.Addr), "key": ev.Key,
				"lock": hex(ev.Lock), "lock_value": ev.LockVal,
				"write": ev.Write,
			},
		})
	case KindShadow:
		name := "shadow-load"
		if ev.Write {
			name = "shadow-store"
		}
		p.emit(tev{
			Name: name, Ph: "i", S: "t", Ts: p.cycle, Pid: 0, Tid: tidEngine,
			Args: map[string]any{"pc": ev.PC, "addr": hex(ev.Addr)},
		})
	case KindCopyElim:
		p.emit(tev{
			Name: "copy-elim", Ph: "i", S: "t", Ts: p.cycle, Pid: 0, Tid: tidEngine,
			Args: map[string]any{"pc": ev.PC, "dst": ev.Dst.String(), "src": ev.Src.String()},
		})
	case KindViolation:
		p.emit(tev{
			Name: "VIOLATION:" + ev.Outcome.String(), Ph: "i", S: "t", Ts: p.cycle, Pid: 0, Tid: tidEngine,
			Args: map[string]any{
				"pc": ev.PC, "addr": hex(ev.Addr),
				"key": ev.Key, "lock": hex(ev.Lock), "write": ev.Write,
			},
		})
	case KindAbort:
		p.emit(tev{
			Name: "ABORT", Ph: "i", S: "t", Ts: p.cycle, Pid: 0, Tid: tidEngine,
			Args: map[string]any{"pc": ev.PC, "code": ev.AbortCode},
		})
	}
}

// Close writes the document's tail, with the labels as its metadata,
// and flushes it to the writer, which it does not close.
func (p *Perfetto) Close() error {
	p.out.WriteString("\n ],\n \"displayTimeUnit\": \"ms\"")
	if len(p.labels) > 0 {
		meta, err := json.MarshalIndent(p.labels, " ", " ")
		if p.err == nil {
			p.err = err
		}
		p.out.WriteString(",\n \"metadata\": ")
		p.out.Write(meta)
	}
	p.out.WriteString("\n}\n")
	if p.err != nil {
		return p.err
	}
	return p.out.Flush()
}

// WritePerfetto replays a sink's retained timeline (Config.Timeline)
// through the streaming exporter.
func WritePerfetto(w io.Writer, s *Sink, labels map[string]string) error {
	if s == nil || !s.cfg.Timeline {
		return fmt.Errorf("trace: sink has no recorded timeline (Config.Timeline off)")
	}
	p := NewPerfetto(w, labels)
	for _, ev := range s.events {
		p.Event(ev)
	}
	return p.Close()
}

// slice builds one duration event; zero-length stages render as 1-
// cycle slices so they stay visible.
func slice(name string, tid int, from, to int64, args map[string]any) tev {
	dur := to - from
	if dur < 1 {
		dur = 1
	}
	return tev{Name: name, Ph: "X", Ts: from, Dur: dur, Pid: 0, Tid: tid, Args: args}
}

func hex(v uint64) string { return fmt.Sprintf("%#x", v) }
