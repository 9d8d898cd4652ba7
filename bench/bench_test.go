package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tiny runs every workload in a second or two with tinyNodes-node streams:
// ten queries per deployment, four traced.
var tiny = scale{seconds: 200 * time.Millisecond, setups: 2, exact: 6, traced: 4, queries: 10}

const tinyNodes = 2000

// exactMetrics are the values that must repeat bit for bit on a seed:
// budget splits and kernel work of the one-shot reference (cold, one
// worker), and the answers' cost and quality over the exact prefix.
var exactMetrics = []string{
	"sssp_per_query", "kth_delta_mean",
	"budget.selection_sssp", "budget.extraction_sssp",
	"sssp.selection_edges", "sssp.selection_nodes", "sssp.extraction_edges", "sssp.extraction_nodes",
	"sssp.repair_edges", "prune.skipped_per_query", "prune.cutoffs_per_query",
}

func TestWorkloadsAtTinyScale(t *testing.T) {
	for _, w := range workloads {
		// Two deployments exercise the per-deployment split and keep the
		// test short.
		w.deployments = min(w.deployments, 2)
		w.nodes = tinyNodes
		t.Run(w.name, func(t *testing.T) {
			first, err := runWorkload(w, tiny, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := first.print(&out, true); err != nil {
				t.Fatal(err)
			}
			printed := out.String()
			emitted := append(append(append([]metricDef(nil), endToEnd...), perLayer...), infoMetrics...)
			for _, d := range emitted {
				if !metricLine(printed, d) {
					t.Errorf("metric %s (%s) not printed", d.name, d.unit)
				}
			}
			for traced, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
				res := first.result(traced)
				if len(res.Metrics) != len(defs) {
					t.Errorf("traced=%v: result has %d metrics, want %d", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("traced=%v: result metric %s = %+v, want unit %s", traced, d.name, m, d.unit)
					}
				}
			}

			if first.failed != 0 || first.values["fail_ratio"] != 0 {
				t.Errorf("%d of %d operations failed:\n%s", first.failed, first.attempted, strings.Join(first.warnings, "\n"))
			}
			in, err := makeInputs(w, 1, 0, tiny.queries)
			if err != nil {
				t.Fatal(err)
			}
			maxM := 0
			for _, q := range in.queries {
				maxM = max(maxM, q.M)
			}
			if got := first.values["sssp_per_query"]; got > float64(2*maxM) {
				t.Errorf("sssp_per_query = %v, above the 2m budget %d", got, 2*maxM)
			}

			second, err := runWorkload(w, tiny, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range exactMetrics {
				if a, b := first.values[name], second.values[name]; a != b {
					t.Errorf("%s differs between same-seed runs: %v vs %v", name, a, b)
				}
			}
		})
	}
}

// metricLine reports whether out has a "name value unit" line for d.
func metricLine(out string, d metricDef) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == d.name && f[2] == d.unit {
			return true
		}
	}
	return false
}

// TestInputsDependOnlyOnSeed pins seed hygiene: a seed and deployment index
// fix the stream and the query list, and changing either changes both.
func TestInputsDependOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		w.nodes = tinyNodes
		gen := func(seed int64, d int) *inputs {
			in, err := makeInputs(w, seed, d, 50)
			if err != nil {
				t.Fatal(err)
			}
			return in
		}
		a := gen(7, 0)
		if !reflect.DeepEqual(a, gen(7, 0)) {
			t.Errorf("%s: two makeInputs calls with seed 7 differ", w.name)
		}
		for _, other := range []*inputs{gen(8, 0), gen(7, 1)} {
			if reflect.DeepEqual(a.setup, other.setup) {
				t.Errorf("%s: another seed or deployment gives the same stream", w.name)
			}
			if reflect.DeepEqual(a.queries, other.queries) {
				t.Errorf("%s: another seed or deployment gives the same query list", w.name)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json's workloads and metrics
// to the ones this program runs and reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name  string  `json:"name"`
			Unit  string  `json:"unit"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit {
			t.Errorf("end_to_end %d: BENCHMARK.json %s (%s), program %s (%s)", i, got.Name, got.Unit, d.name, d.unit)
		}
		// A metric that cannot repeat within a tenth gets a longer run or is
		// dropped; its bound is never widened. setup_s cannot be dropped and
		// carries the largest bound (README.md, "End-to-end metrics").
		limit := 0.1
		if got.Name == "setup_s" {
			limit = 0.25
		}
		if got.Bound <= 0 || got.Bound > limit {
			t.Errorf("end_to_end %s: bound %v outside (0, %v]", got.Name, got.Bound, limit)
		}
		if got.Bound > doc.EndToEnd[0].Bound {
			t.Errorf("end_to_end %s: bound %v above setup_s's %v", got.Name, got.Bound, doc.EndToEnd[0].Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := doc.PerLayer[i]; got.Name != d.name || got.Unit != d.unit {
			t.Errorf("per_layer %d: BENCHMARK.json %s (%s), program %s (%s)", i, got.Name, got.Unit, d.name, d.unit)
		}
	}
}
