package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"testing"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestSmoke runs all five workloads at tiny scale, untraced and traced, and
// checks them against BENCHMARK.json: every workload and metric the file
// names is what the program runs and emits, with the same unit, direction
// and bound, and no operation fails its oracle. It keeps the benchmark
// compiling and correct as the layers under it are refactored; it asserts
// nothing about speed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots rpsd; skipped under -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH to build rpsd with")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(decl.Workloads), len(workloads))
	}
	if len(decl.EndToEnd) != len(endToEndMetrics) || len(decl.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json names %d+%d metrics, the program emits %d+%d",
			len(decl.EndToEnd), len(decl.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, def := range endToEndMetrics {
		if d := decl.EndToEnd[i]; d.Name != def.name || d.Unit != def.unit || d.Better != def.better || d.Bound != def.bound {
			t.Errorf("end_to_end[%d] is %+v, the program has %+v", i, d, def)
		}
	}
	for i, def := range perLayerMetrics {
		if d := decl.PerLayer[i]; d.Name != def.name || d.Unit != def.unit || d.Better != def.better {
			t.Errorf("per_layer[%d] is %+v, the program has %+v", i, d, def)
		}
	}

	workRoot := t.TempDir()
	defer runCleanups()
	for i, spec := range workloads {
		if decl.Workloads[i].Name != spec.name || decl.Workloads[i].Why != spec.why {
			t.Errorf("workloads[%d] is %+v, the program has %s: %s", i, decl.Workloads[i], spec.name, spec.why)
		}
		for _, trace := range []bool{false, true} {
			res, err := runOne(&workloads[i], 1, 1, scales["tiny"], trace, workRoot)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", spec.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): %d of %d operations failed", spec.name, trace, res.Failed, res.Attempted)
			}
			want := endToEndMetrics
			if trace {
				want = perLayerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, want %d", spec.name, trace, len(res.Metrics), len(want))
			}
			for _, def := range want {
				if m, ok := res.Metrics[def.name]; !ok || m.Unit != def.unit {
					t.Errorf("%s (trace %v): metric %s missing or in unit %q, want %q", spec.name, trace, def.name, m.Unit, def.unit)
				}
			}
		}
	}
}
