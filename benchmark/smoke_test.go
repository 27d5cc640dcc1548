package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at about 1/50 of its
// size: it pins that the harness compiles against the engine, that every
// metric is reported under its name and unit, and that every answer
// matches the reference engine's. It asserts no timing.
func TestSmoke(t *testing.T) {
	workdir := t.TempDir()
	cfg := runConfig{Seed: 7, Seconds: 0.2, Workdir: workdir, Tiny: true}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			res, err := runUntraced(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkShape(t, res, endToEnd, res.Metrics)

			traced, err := runTraced(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkShape(t, traced, perLayer, traced.Layers)
			if traced.Layers["core.open_ms"].Value <= 0 || traced.Layers["core.prepare_us"].Value <= 0 {
				t.Errorf("traced run timed no engine calls: %+v", traced.Layers)
			}
			data, err := os.ReadFile(filepath.Join(workdir, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []struct {
				Name  string `json:"name"`
				Start int64  `json:"start_ns"`
				End   int64  `json:"end_ns"`
				Self  int64  `json:"self_ns"`
			}
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatalf("trace file is not a JSON array of spans: %v", err)
			}
			for _, s := range spans {
				if s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
					t.Fatalf("span %+v: self time outside its duration", s)
				}
			}
		})
	}
}

func checkShape(t *testing.T, res *runResult, defs []metricDef, got map[string]metricValue) {
	t.Helper()
	if res.Attempted == 0 || res.Failed != 0 {
		t.Errorf("attempted %d, failed %d: want some and none", res.Attempted, res.Failed)
	}
	if len(got) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s: got %+v (present %v), want a finite value in %s", d.Name, m, ok, d.Unit)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the tables the command reports from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the command has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: listed %+v, the command has %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, listed []metric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%d %s metrics listed, the command reports %d", len(listed), kind, len(defs))
		}
		for i, d := range defs {
			if want := (metric{d.Name, d.Unit, d.Better, d.Bound}); listed[i] != want {
				t.Errorf("%s metric %d: listed %+v, the command reports %+v", kind, i, listed[i], want)
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd)
	same("per-layer", doc.PerLayer, perLayer)
}
