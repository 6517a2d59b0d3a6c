package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is the subset of BENCHMARK.json these tests check.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricNames holds BENCHMARK.json and the command to the same
// workloads and metrics, names and units, and checks the name rules.
func TestMetricNames(t *testing.T) {
	bf := readBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("metric or workload name %q breaks the name rules", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		checkName(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json has %s [%s], the command %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	names := perLayerNames()
	if len(bf.PerLayer) != len(names) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(bf.PerLayer), len(names))
	}
	for i, m := range bf.PerLayer {
		checkName(m.Name)
		if m.Name != names[i] || m.Unit != layerUnit(names[i]) {
			t.Errorf("per-layer %d: BENCHMARK.json has %s [%s], the command %s [%s]", i, m.Name, m.Unit, names[i], layerUnit(names[i]))
		}
	}
}

// runCommand runs the command in-process and decodes its last line.
func runCommand(t *testing.T, corrupt bool, args ...string) (int, result, string) {
	t.Helper()
	var out bytes.Buffer
	code := run(append(args, "--spans", t.TempDir()), &out, corrupt)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q is not a result: %v", lines[len(lines)-1], err)
	}
	return code, res, out.String()
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks the result carries exactly the metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		if testing.Short() && w.name == "paper-quick" {
			continue // one pass takes several seconds
		}
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				code, res, out := runCommand(t, false, "--workload", w.name, "--seconds", "0.5", "--trace", trace)
				if code != 0 || !res.Correct {
					t.Fatalf("exit %d, correct %v:\n%s", code, res.Correct, out)
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range bf.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range bf.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("metric %s: got %+v, want unit %s", name, m, unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v, want positive", name, m.Value)
					}
				}
			})
		}
	}
}

// TestForcedMismatchFails perturbs one output of each workload after
// it is produced and expects the command to report it and fail.
func TestForcedMismatchFails(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.name == "paper-quick" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			// The traced run measures twice, which gives paper-quick the
			// two passes its digest comparison needs.
			code, res, out := runCommand(t, true, "--workload", w.name, "--seconds", "0.5", "--trace", "1")
			if code == 0 || res.Correct {
				t.Fatalf("exit %d, correct %v after a forced mismatch:\n%s", code, res.Correct, out)
			}
			if !strings.Contains(out, "CHECK FAILED") {
				t.Errorf("output names no failed check:\n%s", out)
			}
		})
	}
}
