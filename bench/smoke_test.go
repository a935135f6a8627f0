package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"testing"
)

// asBenchEnv, set to 1, makes the test binary run as the benchmark
// command at toySizes; the smoke test re-executes itself that way, and
// the benchmark's own child processes inherit it.
const asBenchEnv = "WATCHDOG_BENCH_AS_MAIN"

// toySizes is the benchmark shrunk to run in seconds: scale 1, two
// kernels, 20 fuzz seeds, one repetition per layer timing.
var toySizes = sizes{
	exactScale:   1,
	sampledScale: 1,
	serveScale:   1,
	kernels:      []string{"mcf", "lbm"},
	fuzzSeeds:    20,
	layerReps:    1,
}

func TestMain(m *testing.M) {
	if os.Getenv(asBenchEnv) == "1" {
		benchSizes = toySizes
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// spec is the part of BENCHMARK.json the smoke test checks.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecMatchesTheMetricCatalog(t *testing.T) {
	s := readSpec(t)
	check := func(kind string, declared []struct{ Name, Unit string }, printed []metric) {
		units := make(map[string]string)
		for _, m := range printed {
			units[m.name] = m.unit
		}
		seen := make(map[string]bool)
		for _, m := range declared {
			seen[m.Name] = true
			unit, ok := units[m.Name]
			if !ok {
				t.Errorf("%s: BENCHMARK.json declares %s, the benchmark does not print it", kind, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s: BENCHMARK.json gives unit %q, the benchmark %q", m.Name, m.Unit, unit)
			}
		}
		for _, m := range printed {
			if !seen[m.name] {
				t.Errorf("%s: the benchmark prints %s, BENCHMARK.json does not declare it", kind, m.name)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the benchmark %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmoke runs every workload at toy size, end to end and traced,
// through the command's own parent and child processes, and checks that
// each prints every metric BENCHMARK.json names, with its unit, and
// that no operation failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	s := readSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for trace, want := range [][]struct{ Name, Unit string }{s.EndToEnd, s.PerLayer} {
				cmd := exec.Command(os.Args[0], "--workload", w.name, "--seed", "1",
					"--seconds", "1", "--trace", fmt.Sprint(trace))
				cmd.Env = append(os.Environ(), asBenchEnv+"=1")
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("--trace %d: %v\n%s", trace, err, stderr.Bytes())
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					t.Fatalf("--trace %d: last line is not a result: %v\n%s", trace, err, out)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("--trace %d: correct=%v attempted=%d failed=%d\n%s", trace, res.Correct, res.Attempted, res.Failed, stderr.Bytes())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("--trace %d: %d metrics printed, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("--trace %d: metric %s printed as %+v (present %v), want unit %s", trace, m.Name, got, ok, m.Unit)
					}
					if trace == 0 && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want a positive value", m.Name, got.Value)
					}
				}
			}
		})
	}
}
