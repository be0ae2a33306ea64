package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// TestSmoke runs the whole harness in -smoke mode — every workload's timed
// window, traced run and checks, shrunk to tier-1 size — and holds its
// output to BENCHMARK.json and to the workloads' designed mixes. It checks
// that the instrument works, not what it measures.
func TestSmoke(t *testing.T) {
	if runtime.NumCPU() < clients {
		t.Skipf("needs %d CPUs", clients)
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	var contract benchmarkJSON
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if contract.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the harness defaults to %d", contract.RunSeconds, defaultSeconds)
	}

	p := defaultParams(root).smoke()
	p.workDir, p.outDir = t.TempDir(), t.TempDir()
	rep, err := run(p, "", -1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Checks.Errors {
		t.Errorf("check failed: %s", e)
	}
	if a := rep.Checks.Accuracy; a == nil || !a.Repeats {
		t.Errorf("paper accuracy did not repeat exactly: %+v", a)
	}

	if len(rep.Workloads) != len(contract.Workloads) {
		t.Fatalf("%d workloads ran, BENCHMARK.json names %d", len(rep.Workloads), len(contract.Workloads))
	}
	for i, w := range rep.Workloads {
		if c := contract.Workloads[i]; c.Name != w.Name || c.Why != w.Why {
			t.Errorf("workload %d is %q (%q), BENCHMARK.json says %q (%q)", i, w.Name, w.Why, c.Name, c.Why)
		}
		if !w.Correct || w.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d: %v", w.Name, w.Correct, w.Failed, w.Failures)
		}
		// The result lines carry exactly the contract's metric names, with
		// its units, all finite.
		for trace, want := range [][]contractMetric{contract.EndToEnd, contract.PerLayer} {
			line, err := resultLine(w, true, trace)
			if err != nil {
				t.Errorf("%s: %v", w.Name, err)
				continue
			}
			var got struct {
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s, -trace %d: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(got.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := got.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s, -trace %d: metric %s missing", w.Name, trace, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json %q", w.Name, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v", w.Name, m.Name, v.Value)
				case trace == 0 && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, m.Name, v.Value)
				}
			}
		}

		layer := make(map[string]float64)
		for _, m := range append(w.EndToEnd, w.PerLayer...) {
			layer[m.Name] = m.Value
		}
		if layer["failed_share"] != 0 {
			t.Errorf("%s: failed_share = %v", w.Name, layer["failed_share"])
		}
		// The designed mixes, on the traced run's first ops.
		switch w.Name {
		case "poll-hit":
			if layer["pilgrim.cache.misses"] != distinctPollQueries || layer["pilgrim.cache.hits"] != float64(p.tracedOps-distinctPollQueries) {
				t.Errorf("poll-hit: %v hits / %v misses, want every query to miss once", layer["pilgrim.cache.hits"], layer["pilgrim.cache.misses"])
			}
		case "cold-miss":
			if layer["pilgrim.cache.hits"] != 0 || layer["pilgrim.cache.misses"] != float64(p.tracedOps) {
				t.Errorf("cold-miss: %v hits / %v misses, want all misses", layer["pilgrim.cache.hits"], layer["pilgrim.cache.misses"])
			}
		case "whatif-grid":
			n := layer["pilgrim.evaluate.base_groups"] // one supergroup per request
			if layer["pilgrim.evaluate.reuse"] != gridReuse*n || layer["pilgrim.evaluate.fork"] != gridFork*n || layer["pilgrim.evaluate.cold"] != gridCold*n || n == 0 {
				t.Errorf("whatif-grid: tiers %v/%v/%v over %v requests, want %d/%d/%d each",
					layer["pilgrim.evaluate.reuse"], layer["pilgrim.evaluate.fork"], layer["pilgrim.evaluate.cold"], n, gridReuse, gridFork, gridCold)
			}
		case "ingest-churn":
			writes := layer["pilgrim.registry.epochs_minted"]
			if writes == 0 || layer["pilgrim.cache.misses"] != distinctChurnQueries*writes {
				t.Errorf("ingest-churn: %v misses after %v writes, want %d per write", layer["pilgrim.cache.misses"], writes, distinctChurnQueries)
			}
			if layer["store.appends"] != writes {
				t.Errorf("ingest-churn: store appended %v records for %v writes", layer["store.appends"], writes)
			}
		}
		// Layers that belong to one workload are silent on the others.
		for _, own := range []struct{ layer, workload string }{
			{"pilgrim.evaluate", "whatif-grid"}, {"scenario", "whatif-grid"},
			{"store", "ingest-churn"}, {"pilgrim.registry", "ingest-churn"},
		} {
			if calls := layer[own.layer+".calls"]; (calls != 0) != (w.Name == own.workload) {
				t.Errorf("%s: %s.calls = %v", w.Name, own.layer, calls)
			}
		}
		// No negative self time (the run itself fails the workload beyond
		// the noise tolerance; nothing may be negative beyond it here).
		if len(w.Layers) != int(numLayers) {
			t.Errorf("%s: layer table has %d rows, want %d", w.Name, len(w.Layers), numLayers)
		}
		for _, l := range w.Layers {
			if l.SelfUs < -p.selfTolerance*l.BusyUs || math.IsNaN(l.SelfUs) || math.IsNaN(l.BusyUs) {
				t.Errorf("%s: %s self_us = %v of busy_us %v", w.Name, l.Layer, l.SelfUs, l.BusyUs)
			}
		}
	}
}
