package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists the
// same names and units (bench_test.go pins that).
type metricDef struct{ name, unit string }

// endToEnd are the timed run's metrics, what a user of the service sees,
// each with a regression bound in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"sssp_per_query", "SSSPs"},
	{"kth_delta_mean", "hops"},
	{"heap_live_mb", "MB"},
}

// perLayer are the traced pass's metrics, one group per package the query
// passes through.
var perLayer = []metricDef{
	{"serve.query_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"core.topk_ms", "ms"},
	{"core.selection_ms", "ms"},
	{"core.extraction_ms", "ms"},
	{"core.sortcut_ms", "ms"},
	{"candidates.select_ms", "ms"},
	{"budget.selection_sssp", "SSSPs"},
	{"budget.extraction_sssp", "SSSPs"},
	{"dist.batcher_tax_ms", "ms"},
	{"dist.batcher_tax_selection_ms", "ms"},
	{"dist.batcher_tax_extraction_ms", "ms"},
	{"dist.sources_per_sweep_mean", "sources"},
	{"dist.coalesced_ratio", "ratio"},
	{"dist.paired_build_ms", "ms"},
	{"sssp.selection_edges", "edges"},
	{"sssp.selection_nodes", "nodes"},
	{"sssp.extraction_edges", "edges"},
	{"sssp.extraction_nodes", "nodes"},
	{"sssp.extraction_edges_per_ms", "edges/ms"},
	{"sssp.repair_edges", "edges"},
	{"prune.skipped_per_query", "count"},
	{"prune.cutoffs_per_query", "count"},
	{"graph.ingest_ns_per_edge", "ns/edge"},
	{"graph.seal_ms", "ms"},
	{"graph.window_us", "us"},
	{"bench.trace_overhead_pct", "%"},
}

// infoMetrics are printed but kept out of the JSON result. The p90 and
// throughput did not repeat within a tenth across seeds (README.md,
// "Measured spread"), so no regression bound can rest on them. fail_ratio is
// normally 0, and the result's failed/attempted fields carry it.
var infoMetrics = []metricDef{
	{"query_p90_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"fail_ratio", "ratio"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func nsMS(ns int64) float64 { return float64(ns) / 1e6 }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics, skipping NaNs; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	var s []float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	if len(s) == 0 {
		return math.NaN()
	}
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
