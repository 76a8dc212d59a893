package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload, untraced and traced, at 12 qubits for a few
// ops, and holds what each run reports against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the driver has %d", len(bench.Workloads), len(specs))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, wl := range bench.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(config{workload: wl.Name, seed: 2207, seconds: 0.05,
				trace: traced, small: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not reported", wl.Name, traced, d.Name)
				case !nameRE.MatchString(d.Name):
					t.Errorf("metric name %q", d.Name)
				case m.Unit == "" || m.Unit != d.Unit:
					t.Errorf("%s: unit %q reported, %q declared", d.Name, m.Unit, d.Unit)
				}
			}
		}
	}
}
