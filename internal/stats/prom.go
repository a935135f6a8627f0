package stats

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the dependency-free Prometheus side of the stats
// package: a fixed-bucket latency Histogram alongside the
// LatencyWindow percentile ring, and PromWriter, a text-exposition
// renderer (`text/plain; version=0.0.4`)
// that any standard scraper understands. None of it touches the
// simulator hot path — it is fed by the serving/fabric layers, whose
// unit of work is an HTTP request, not a µop.

// DefaultLatencyBuckets are the histogram upper bounds (seconds) used
// for request latencies: sub-millisecond cache replays up through the
// multi-second simulations a scale-4 cell can cost.
var DefaultLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket latency histogram in the Prometheus
// shape: cumulative bucket counts under each upper bound plus a sum
// and total count, so a scraper can derive rates and quantile
// estimates across processes (which the LatencyWindow's exact
// percentiles — correct but unmergeable — cannot). Safe for
// concurrent use.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds in seconds, ascending
	counts []uint64  // per-bucket (non-cumulative); last entry is +Inf
	sum    float64
	count  uint64
}

// NewHistogram builds a histogram over the given ascending upper
// bounds in seconds (DefaultLatencyBuckets when none are given).
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, s) // first bound >= s
	h.mu.Lock()
	h.counts[i]++
	h.sum += s
	h.count++
	h.mu.Unlock()
}

// HistogramSnapshot is one histogram's state: cumulative counts per
// bound (the final implicit +Inf bucket equals Count).
type HistogramSnapshot struct {
	Bounds     []float64
	Cumulative []uint64
	Sum        float64
	Count      uint64
}

// Snapshot reads the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Bounds:     h.bounds,
		Cumulative: make([]uint64, len(h.bounds)),
		Sum:        h.sum,
		Count:      h.count,
	}
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i]
		s.Cumulative[i] = cum
	}
	return s
}

// PromContentType is the Content-Type of a PromWriter document.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one Prometheus label pair; labels render in the order
// given, so a fixed caller order keeps documents byte-stable.
type Label struct{ Name, Value string }

// PromWriter accumulates a Prometheus text-exposition document
// (version 0.0.4). Each metric family renders as one group — its HELP
// and TYPE lines, then every sample it was given, in call order —
// and families render in first-use order, so rendering the same state
// twice produces byte-identical documents, which the golden test pins.
type PromWriter struct {
	families []*promFamily
}

// promFamily is one metric family's header and buffered samples.
type promFamily struct {
	name, help, typ string
	samples         strings.Builder
}

// family returns the sample buffer of the named family, creating it
// on first use. The first non-empty help given becomes its HELP text,
// so a family spread over several calls states its help once.
func (p *PromWriter) family(name, help, typ string) *strings.Builder {
	i := slices.IndexFunc(p.families, func(f *promFamily) bool { return f.name == name })
	if i < 0 {
		i = len(p.families)
		p.families = append(p.families, &promFamily{name: name, typ: typ})
	}
	if f := p.families[i]; f.help == "" {
		f.help = help
	}
	return &p.families[i].samples
}

// sample emits one sample line.
func sample(b *strings.Builder, name string, labels []Label, v float64) {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, `%s="%s"`, l.Name, escapeLabel(l.Value))
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatPromValue(v))
	b.WriteByte('\n')
}

// Counter emits one counter sample into the named family.
func (p *PromWriter) Counter(name, help string, labels []Label, v float64) {
	sample(p.family(name, help, "counter"), name, labels, v)
}

// Gauge emits one gauge sample into the named family.
func (p *PromWriter) Gauge(name, help string, labels []Label, v float64) {
	sample(p.family(name, help, "gauge"), name, labels, v)
}

// Histogram emits one histogram series: the cumulative `_bucket`
// lines (with le labels, +Inf last), then `_sum` and `_count`.
func (p *PromWriter) Histogram(name, help string, labels []Label, s HistogramSnapshot) {
	b := p.family(name, help, "histogram")
	for i, bound := range s.Bounds {
		sample(b, name+"_bucket", withLabel(labels, Label{"le", formatPromValue(bound)}), float64(s.Cumulative[i]))
	}
	sample(b, name+"_bucket", withLabel(labels, Label{"le", "+Inf"}), float64(s.Count))
	sample(b, name+"_sum", labels, s.Sum)
	sample(b, name+"_count", labels, float64(s.Count))
}

// Struct renders v, a struct or a pointer to one, from its field tags,
// so a JSON snapshot type is the only declaration of its series. A
// field tagged prom:"NAME,TYPE[,LABEL=VALUE]...[,/DIVISOR]" (TYPE is
// counter or gauge; a family's help:"…" tag is needed on one field)
// is one sample: the integer, float or bool (true is 1) field over
// DIVISOR, labeled by the enclosing labels, then the LABEL=VALUE pairs.
// prom:"LABEL,label" on a string field labels its siblings with the
// field; on a string-keyed map it labels each element with its key,
// keys sorted. Untagged structs, slices and pointers are walked; other
// untagged fields stay JSON-only.
func (p *PromWriter) Struct(v any) {
	p.walk(reflect.ValueOf(v), nil)
}

func (p *PromWriter) walk(v reflect.Value, labels []Label) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			p.walk(v.Elem(), labels)
		}
		return
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			p.walk(v.Index(i), labels)
		}
		return
	case reflect.Struct:
	default:
		return
	}
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if tag, ok := parsePromTag(t.Field(i)); ok && tag.typ == "label" && v.Field(i).Kind() == reflect.String {
			labels = withLabel(labels, Label{tag.name, v.Field(i).String()})
		}
	}
	for i := 0; i < t.NumField(); i++ {
		f := v.Field(i)
		tag, ok := parsePromTag(t.Field(i))
		switch {
		case !ok:
			p.walk(f, labels)
		case tag.typ == "label":
			if f.Kind() == reflect.Map {
				keys := f.MapKeys()
				slices.SortFunc(keys, func(a, b reflect.Value) int { return strings.Compare(a.String(), b.String()) })
				for _, k := range keys {
					p.walk(f.MapIndex(k), withLabel(labels, Label{tag.name, k.String()}))
				}
			}
		default:
			b := p.family(tag.name, t.Field(i).Tag.Get("help"), tag.typ)
			sample(b, tag.name, withLabel(labels, tag.labels...), promNumber(f)/tag.div)
		}
	}
}

// promTag is one parsed `prom` struct tag.
type promTag struct {
	name, typ string // typ is counter, gauge or label
	labels    []Label
	div       float64
}

// parsePromTag reads a field's `prom` tag; ok is false when it has
// none. A malformed tag is a bug in the declaring type, so it panics.
func parsePromTag(f reflect.StructField) (tag promTag, ok bool) {
	s, ok := f.Tag.Lookup("prom")
	if !ok {
		return tag, false
	}
	parts := strings.Split(s, ",")
	tag = promTag{name: parts[0], div: 1}
	if len(parts) > 1 {
		tag.typ = parts[1]
	}
	valid := tag.name != "" && (tag.typ == "counter" || tag.typ == "gauge" || tag.typ == "label")
	for _, part := range parts[min(2, len(parts)):] {
		if d, isDiv := strings.CutPrefix(part, "/"); isDiv {
			div, err := strconv.ParseFloat(d, 64)
			tag.div, valid = div, valid && err == nil && div != 0
		} else if name, value, isLabel := strings.Cut(part, "="); isLabel {
			tag.labels = append(tag.labels, Label{name, value})
		} else {
			valid = false
		}
	}
	if !valid {
		panic(fmt.Sprintf("stats: field %s: malformed prom tag %q", f.Name, s))
	}
	return tag, true
}

// withLabel returns labels plus more, never sharing the backing array
// of labels (sibling walks each extend it).
func withLabel(labels []Label, more ...Label) []Label {
	return append(append(make([]Label, 0, len(labels)+len(more)), labels...), more...)
}

// promNumber is a tagged field's raw sample value.
func promNumber(v reflect.Value) float64 {
	switch {
	case v.Kind() == reflect.Bool:
		if v.Bool() {
			return 1
		}
		return 0
	case v.CanInt():
		return float64(v.Int())
	case v.CanUint():
		return float64(v.Uint())
	case v.CanFloat():
		return v.Float()
	}
	panic(fmt.Sprintf("stats: prom tag on a %s field", v.Type()))
}

// String returns the accumulated document.
func (p *PromWriter) String() string {
	var b strings.Builder
	for _, f := range p.families {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		b.WriteString(f.samples.String())
	}
	return b.String()
}

// formatPromValue renders a float the way Prometheus expects:
// shortest round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatPromValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP string per the text format: backslash and
// newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the text format: backslash,
// double quote and newline (the only escapes the exposition parser
// defines inside quoted label values).
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
