package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesRegistry keeps ../BENCHMARK.json — the benchmark's
// declaration — in step with the code that measures it: the same workloads
// with the same reasons, and the same metrics with the same units,
// directions and regression bounds.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []row    `json:"workloads"`
		EndToEnd   []row    `json:"end_to_end"`
		PerLayer   []row    `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", decl.Paths)
	}
	var registered []*workload
	for _, w := range workloads {
		if !isTestWorkload(w) {
			registered = append(registered, w)
		}
	}
	if len(decl.Workloads) != len(registered) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the registry has %d", len(decl.Workloads), len(registered))
	}
	for i, w := range registered {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), registry %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
	}
	for _, set := range []struct {
		name string
		decl []row
		code []metric
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer}} {
		if len(set.decl) != len(set.code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the registry %d", set.name, len(set.decl), len(set.code))
		}
		for i, m := range set.code {
			d := set.decl[i]
			better := "lower"
			if m.higher {
				better = "higher"
			}
			if d.Name != m.name || d.Unit != m.unit || d.Better != better {
				t.Errorf("%s %d: BENCHMARK.json %s %s %s, registry %s %s %s", set.name, i, d.Name, d.Unit, d.Better, m.name, m.unit, better)
			}
			switch {
			case set.name == "end_to_end" && (d.Bound == nil || math.Float64bits(*d.Bound) != math.Float64bits(m.bound)):
				t.Errorf("%s: BENCHMARK.json bound %v, registry %v", m.name, d.Bound, m.bound)
			case set.name == "per_layer" && d.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", m.name)
			}
		}
	}
}

func isTestWorkload(w *workload) bool {
	for _, tw := range testWorkloads {
		if tw == w {
			return true
		}
	}
	return false
}
