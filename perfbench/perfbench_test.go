package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestWorkloadsTiny runs every workload on tiny inputs, untraced and
// traced, and requires its correctness checks to pass, its failed share
// to be the expected one, and every declared metric to be reported.
func TestWorkloadsTiny(t *testing.T) {
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: time.Second, trace: traced, tiny: true, root: t.TempDir()}
			rep, err := execute(cfg, run)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !rep.Correct {
				t.Errorf("%s trace=%v: correctness checks failed", name, traced)
			}
			if rep.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d operations", name, traced, rep.Attempted)
			}
			// On sweep the ppagerank reproducibility operation, one of four
			// per round, fails every time; nothing else may fail.
			wantFailed := 0
			if name == "sweep" {
				wantFailed = rep.Attempted / 4
			}
			if rep.Failed != wantFailed {
				t.Errorf("%s trace=%v: failed %d of %d, want %d", name, traced, rep.Failed, rep.Attempted, wantFailed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, m.name, got, m.unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSON requires BENCHMARK.json to declare exactly the
// workloads and metrics the program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit string
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the program", w.Name)
		}
	}
	same := func(kind string, got []decl, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json %s: %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("BENCHMARK.json %s[%d] = %s %s, the program reports %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
