package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// declared is the part of BENCHMARK.json the program must agree with.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestDeclarationMatchesProgram checks that BENCHMARK.json names exactly the
// workloads and metrics this program measures, with the same units.
func TestDeclarationMatchesProgram(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(blob, &d); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	compare := func(kind string, got []declaredMetric, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program has %d", kind, len(got), len(defs))
			return
		}
		for i, m := range got {
			if d := defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %s %s %s", kind, i, m, d.name, d.unit, d.better)
			}
		}
	}
	compare("end_to_end", d.EndToEnd, endToEnd)
	compare("per_layer", d.PerLayer, perLayer)
}

// TestTinyRuns runs every workload briefly on a small seed, untraced and
// traced: every schedule passes its check, every metric is printed with its
// unit, and the traced replay agrees with the solver on every solve.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			args := []string{"--workload", w.name, "--seed", "7", "--seconds", "0.3", "--trace", trace,
				"--spans", filepath.Join(t.TempDir(), "spans.tsv")}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d: %s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
				if !strings.Contains(stdout.String(), "trace errors 0\n") {
					t.Errorf("%s: traced replay disagrees with the solver: %s", w.name, stderr.String())
				}
			} else if !strings.Contains(stdout.String(), failedFrac.name) {
				t.Errorf("%s: report lacks %s", w.name, failedFrac.name)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%s: metric %s missing or unit %q != %q", w.name, trace, d.name, m.Unit, d.unit)
				}
			}
		}
	}
}
