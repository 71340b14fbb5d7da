package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// shortConfig shrinks every phase and input so each workload runs in a
// second or two, traced.
func shortConfig() config {
	c := defaultConfig(7, 400*time.Millisecond, true)
	c.smallLines, c.variants, c.largeLines, c.docs = 20, 2, 150, 1
	c.setupReps, c.probeReps, c.streamEdits = 1, 1, 4
	return c
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		json []jsonMetric
		defs []metricDef
	}{
		{b.EndToEnd, endToEnd},
		{b.PerLayer, perLayer},
	} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark %d", len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

// TestWorkloads runs every workload twice, traced, with short phases,
// and checks that every declared metric is reported with its unit, no
// operation fails, and the exact per-layer counts repeat.
func TestWorkloads(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var exact [2]map[string]float64
			for i := range exact {
				res, tr, err := runOne(w, shortConfig())
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || !res.Correct {
					t.Fatalf("run %d: %d of %d operations failed", i, res.Failed, res.Attempted)
				}
				checkReported(t, res.EndToEnd, b.EndToEnd)
				checkReported(t, res.Layers, b.PerLayer)
				for _, group := range [][]metric{res.EndToEnd, res.Layers, res.Extra, res.SelfTimes} {
					for _, m := range group {
						if !metricName.MatchString(m.Name) {
							t.Errorf("metric name %q", m.Name)
						}
					}
				}
				var out bytes.Buffer
				if err := printResult(&out, res); err != nil {
					t.Fatal(err)
				}
				if err := printSummary(&out, res, res.Layers); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var summary struct {
					Correct bool                       `json:"correct"`
					Metrics map[string]json.RawMessage `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil || !summary.Correct || len(summary.Metrics) != len(b.PerLayer) {
					t.Errorf("summary line %q: %v", lines[len(lines)-1], err)
				}
				if err := tr.writeChrome(t.TempDir()+"/trace.json", 1); err != nil {
					t.Fatal(err)
				}
				exact[i] = map[string]float64{}
				for _, d := range perLayer {
					if d.exact {
						exact[i][d.name] = find(res.Layers, d.name)
					}
				}
			}
			for name, v := range exact[0] {
				if exact[1][name] != v {
					t.Errorf("%s: %v then %v with the same seed", name, v, exact[1][name])
				}
			}
		})
	}
}

func checkReported(t *testing.T, got []metric, want []jsonMetric) {
	t.Helper()
	units := map[string]string{}
	for _, m := range got {
		units[m.Name] = m.Unit
	}
	for _, w := range want {
		if u, ok := units[w.Name]; !ok || u != w.Unit {
			t.Errorf("metric %s [%s]: reported %t with unit %q", w.Name, w.Unit, ok, u)
		}
	}
}
