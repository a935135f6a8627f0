package fabric

import (
	"fmt"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"watchdog/internal/report"
	"watchdog/internal/serve"
	"watchdog/internal/stats"
)

// jsonOnly lists, by JSON path (map keys as *), the leaves of the
// serve /metrics document that have no Prometheus series: the schema
// stamp.
var jsonOnly = map[string]bool{
	"schema":  true,
	"version": true,
}

// TestOneDeclaration: the JSON snapshot types are the only declaration
// of the serve and fabric series. Every leaf of serve.Metrics and
// report.FabricStats either carries a `prom` tag or is on the
// JSON-only list, and each tagged leaf renders to exactly one sample
// whose value is the field divided by its unit. It lives here because
// fabric is the one package that imports both types.
func TestOneDeclaration(t *testing.T) {
	for _, v := range []any{&serve.Metrics{}, &report.FabricStats{}} {
		t.Run(reflect.TypeOf(v).Elem().Name(), func(t *testing.T) {
			n := 0
			fill(reflect.ValueOf(v).Elem(), &n)
			var p stats.PromWriter
			p.Struct(v)
			doc := p.String()
			samples := parseSamples(t, doc)

			var ls []leaf
			collect(reflect.ValueOf(v).Elem(), "", nil, &ls)
			tagged, seenJSONOnly := 0, map[string]bool{}
			for _, l := range ls {
				switch {
				case l.tag == "":
					if !jsonOnly[l.path] {
						t.Errorf("%s: no prom tag and not on the JSON-only list", l.path)
					}
					seenJSONOnly[l.path] = true
				case strings.HasSuffix(l.tag, ",label"):
					if l.v.Kind() != reflect.String {
						t.Errorf("%s: label tag on a %s field", l.path, l.v.Kind())
					}
				default:
					tagged++
					key, want := expectedSample(t, l)
					got := samples[key]
					if len(got) != 1 || got[0] != want {
						t.Errorf("%s: sample %s = %v, want exactly one of value %v", l.path, key, got, want)
					}
				}
			}
			if total := sampleCount(samples); total != tagged {
				t.Errorf("document has %d samples for %d tagged leaves:\n%s", total, tagged, doc)
			}
			if _, ok := v.(*serve.Metrics); ok {
				for path := range jsonOnly {
					if !seenJSONOnly[path] {
						t.Errorf("JSON-only entry %s names no untagged leaf", path)
					}
				}
			}
			for _, line := range strings.Split(doc, "\n") {
				if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
					if name, help, _ := strings.Cut(rest, " "); help == "" {
						t.Errorf("family %s has no help text", name)
					}
				}
			}
		})
	}
}

// fill sets every leaf reachable from v to a distinct non-zero value:
// numbers count up from *n, bools are true, strings name their
// position, and maps and slices get two elements each.
func fill(v reflect.Value, n *int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), n)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for _, k := range []string{"k1", "k2"} {
			e := reflect.New(v.Type().Elem()).Elem()
			fill(e, n)
			v.SetMapIndex(reflect.ValueOf(k), e)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n)
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		*n++
		v.SetString(fmt.Sprintf("s%d", *n))
	default:
		*n++
		switch {
		case v.CanInt():
			v.SetInt(int64(*n))
		case v.CanUint():
			v.SetUint(uint64(*n))
		case v.CanFloat():
			v.SetFloat(float64(*n) + 0.25)
		}
	}
}

// leaf is one scalar field of a snapshot with the labels its
// enclosing maps and label fields give it.
type leaf struct {
	path   string
	tag    string
	labels []string // NAME=VALUE
	v      reflect.Value
}

// collect lists the scalar leaves under v, a struct or slice of them.
func collect(v reflect.Value, path string, labels []string, out *[]leaf) {
	if v.Kind() == reflect.Slice {
		for i := 0; i < v.Len(); i++ {
			collect(v.Index(i), path, labels, out)
		}
		return
	}
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if name, ok := strings.CutSuffix(t.Field(i).Tag.Get("prom"), ",label"); ok && v.Field(i).Kind() == reflect.String {
			labels = append(append([]string{}, labels...), name+"="+v.Field(i).String())
		}
	}
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		p := strings.TrimPrefix(path+"."+strings.Split(f.Tag.Get("json"), ",")[0], ".")
		switch fv.Kind() {
		case reflect.Struct, reflect.Slice:
			collect(fv, p, labels, out)
		case reflect.Map:
			name, _ := strings.CutSuffix(f.Tag.Get("prom"), ",label")
			for _, k := range fv.MapKeys() {
				collect(fv.MapIndex(k), p+".*", append(append([]string{}, labels...), name+"="+k.String()), out)
			}
		default:
			*out = append(*out, leaf{path: p, tag: f.Tag.Get("prom"), labels: labels, v: fv})
		}
	}
}

// expectedSample is the canonical sample key and value a tagged leaf
// must render to: NAME,TYPE[,LABEL=VALUE]...[,/DIVISOR].
func expectedSample(t *testing.T, l leaf) (string, float64) {
	parts := strings.Split(l.tag, ",")
	labels, div := append([]string{}, l.labels...), 1.0
	for _, part := range parts[2:] {
		if d, ok := strings.CutPrefix(part, "/"); ok {
			var err error
			if div, err = strconv.ParseFloat(d, 64); err != nil {
				t.Fatalf("%s: divisor %q: %v", l.path, d, err)
			}
			continue
		}
		labels = append(labels, part)
	}
	var v float64
	switch {
	case l.v.Kind() == reflect.Bool:
		if l.v.Bool() {
			v = 1
		}
	case l.v.CanInt():
		v = float64(l.v.Int())
	case l.v.CanUint():
		v = float64(l.v.Uint())
	case l.v.CanFloat():
		v = l.v.Float()
	default:
		t.Fatalf("%s: prom tag on a %s field", l.path, l.v.Kind())
	}
	return canonical(parts[0], labels), v / div
}

// canonical names one sample independent of its label order.
func canonical(name string, labels []string) string {
	sort.Strings(labels)
	return name + "{" + strings.Join(labels, ",") + "}"
}

var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
var labelPair = regexp.MustCompile(`(\w+)="([^"]*)"`)

// parseSamples indexes an exposition document's sample values by
// canonical sample key.
func parseSamples(t *testing.T, doc string) map[string][]float64 {
	out := map[string][]float64{}
	for _, line := range strings.Split(strings.TrimSuffix(doc, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		var labels []string
		for _, lp := range labelPair.FindAllStringSubmatch(m[2], -1) {
			labels = append(labels, lp[1]+"="+lp[2])
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		key := canonical(m[1], labels)
		out[key] = append(out[key], v)
	}
	return out
}

func sampleCount(samples map[string][]float64) int {
	n := 0
	for _, vs := range samples {
		n += len(vs)
	}
	return n
}
