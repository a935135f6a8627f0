package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
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

// WritePerfetto renders the sink's timeline as Chrome trace-event JSON
// loadable by ui.perfetto.dev (and chrome://tracing). labels annotate
// the document metadata (e.g. workload and configuration names). Each
// trace event is encoded and written as soon as it is rendered, so an
// export holds one event at a time beyond the sink's own; a timeline
// of a few hundred thousand events renders as about 100 MB of text.
// The output is deterministic for a given timeline (struct fields
// encode in order and map keys sorted) and laid out as
// json.Encoder.SetIndent("", " ") lays out the whole document.
func WritePerfetto(w io.Writer, s *Sink, labels map[string]string) error {
	if s == nil || !s.cfg.Timeline {
		return fmt.Errorf("trace: sink has no recorded timeline (Config.Timeline off)")
	}
	out := bufio.NewWriter(w)
	// Events sit two levels deep: "traceEvents" in the top object.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("  ", " ")
	var err error
	sep := "{\n \"traceEvents\": [\n  "
	emit := func(evs ...tev) {
		for i := range evs {
			buf.Reset()
			if err == nil {
				err = enc.Encode(&evs[i])
			}
			out.WriteString(sep)
			out.Write(bytes.TrimSuffix(buf.Bytes(), []byte("\n")))
			sep = ",\n  "
		}
	}

	// Track-naming metadata first, in tid order.
	emit(tev{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": "watchdog-sim"},
	})
	for tid := tidFetch; tid <= tidEngine; tid++ {
		emit(tev{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: tid,
			Args: map[string]any{"name": stageNames[tid]},
		})
	}

	// Engine-track instants (check outcomes, shadow traffic...) are
	// functional events with no cycle of their own; each is anchored
	// to the cycle the timeline had progressed to when it was emitted
	// (the latest fetch/retire cycle seen so far in emission order).
	var cycle int64
	for i := range s.events {
		ev := &s.events[i]
		switch ev.Kind {
		case KindFetch:
			if ev.Retire > cycle {
				cycle = ev.Retire
			}
			emit(tev{
				Name: "fetch", Ph: "i", S: "t", Ts: ev.Retire, Pid: 0, Tid: tidFetch,
				Args: map[string]any{"addr": hex(ev.Addr)},
			})
		case KindUop:
			if ev.Retire > cycle {
				cycle = ev.Retire
			}
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
			emit(
				slice(name, tidDispatch, ev.Dispatch, ev.Issue, args),
				slice(name, tidExecute, ev.Issue, ev.Complete, args),
				slice(name, tidRetire, ev.Complete, ev.Retire, args),
				tev{Name: "IQ occupancy", Ph: "C", Ts: ev.Retire, Pid: 0,
					Args: map[string]any{"entries": ev.IQLen}},
				tev{Name: "lock$ lines", Ph: "C", Ts: ev.Retire, Pid: 0,
					Args: map[string]any{"lines": ev.LockLines}},
			)
		case KindCheck:
			emit(tev{
				Name: "check:" + ev.Outcome.String(), Ph: "i", S: "t", Ts: cycle, Pid: 0, Tid: tidEngine,
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
			emit(tev{
				Name: name, Ph: "i", S: "t", Ts: cycle, Pid: 0, Tid: tidEngine,
				Args: map[string]any{"pc": ev.PC, "addr": hex(ev.Addr)},
			})
		case KindCopyElim:
			emit(tev{
				Name: "copy-elim", Ph: "i", S: "t", Ts: cycle, Pid: 0, Tid: tidEngine,
				Args: map[string]any{"pc": ev.PC, "dst": ev.Dst.String(), "src": ev.Src.String()},
			})
		case KindViolation:
			emit(tev{
				Name: "VIOLATION:" + ev.Outcome.String(), Ph: "i", S: "t", Ts: cycle, Pid: 0, Tid: tidEngine,
				Args: map[string]any{
					"pc": ev.PC, "addr": hex(ev.Addr),
					"key": ev.Key, "lock": hex(ev.Lock), "write": ev.Write,
				},
			})
		case KindAbort:
			emit(tev{
				Name: "ABORT", Ph: "i", S: "t", Ts: cycle, Pid: 0, Tid: tidEngine,
				Args: map[string]any{"pc": ev.PC, "code": ev.AbortCode},
			})
		}
	}

	out.WriteString("\n ],\n \"displayTimeUnit\": \"ms\"")
	if len(labels) > 0 {
		meta, merr := json.MarshalIndent(labels, " ", " ")
		if err == nil {
			err = merr
		}
		out.WriteString(",\n \"metadata\": ")
		out.Write(meta)
	}
	out.WriteString("\n}\n")
	if err != nil {
		return err
	}
	return out.Flush()
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

// WritePerfettoFile writes the timeline to path.
func WritePerfettoFile(path string, s *Sink, labels map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WritePerfetto(f, s, labels); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
