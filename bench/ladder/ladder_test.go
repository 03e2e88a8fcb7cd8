package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/experiments"
)

// tinySizes shrink every budget so each workload runs in about a
// second; their outputs have no golden digests.
func tinySizes() sizes {
	return sizes{
		paper: experiments.Options{Budget: 20_000, SweepBudget: 20_000, RosterBudget: 20_000},
		sweep: 20_000,
		serve: experiments.Options{Budget: 10_000, SweepBudget: 10_000, RosterBudget: 10_000},
	}
}

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatches keeps BENCHMARK.json's workloads and metric
// names and units equal to the ones the benchmark reports.
func TestBenchmarkFileMatches(t *testing.T) {
	f := readBenchFile(t)
	if len(f.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(f.Workloads), len(benchWorkloads))
	}
	for i, w := range f.Workloads {
		if w.Name != benchWorkloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, benchWorkloads[i].name)
		}
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		defs []metricDef
	}{{f.EndToEnd, endToEnd}, {f.PerLayer, perLayer}} {
		if len(c.file) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.file), len(c.defs))
			continue
		}
		for i, m := range c.file {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

// TestLadderSmoke runs every workload traced, at tiny budgets with
// one-second phases. Each must pass its output and decomposition
// checks and report every end-to-end and per-layer metric.
func TestLadderSmoke(t *testing.T) {
	for _, w := range benchWorkloads {
		t.Run(w.name, func(t *testing.T) {
			c := &childRun{seed: 1, seconds: time.Second, work: t.TempDir(), size: tinySizes(), tr: newTracer(), ready: func() {}}
			res, err := w.run(c)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Errors) > 0 || res.Failed > 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d, errors %q", res.Attempted, res.Failed, res.Errors)
			}
			for _, d := range endToEnd {
				// The parent measures set-up and memory from outside.
				if d.name == "setup_s" || d.name == "peak_rss_mb" {
					continue
				}
				if res.Metrics[d.name] <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, res.Metrics[d.name])
				}
			}
			layers := layerResult(res, res)
			for _, d := range perLayer {
				if _, ok := layers.Metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			if w.name == "paper-cold" && layers.Metrics["machine.profile.runs"] == 0 {
				t.Error("paper-cold replayed no profiling runs")
			}
			if w.name == "serve-warm" && layers.Metrics["serve.computes"] != 0 {
				t.Errorf("serve-warm computed %v times while measuring", layers.Metrics["serve.computes"])
			}
		})
	}
}

// TestQuartiles matches Python's statistics.quantiles(range(1, 11), n=4).
func TestQuartiles(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}
