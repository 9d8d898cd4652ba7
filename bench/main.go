// Command bench is the repository's served-query benchmark. For one named
// workload it starts an in-process serve.Server behind a loopback HTTP
// listener, times fresh set-ups, drives /ingest, /seal and /query for a
// fixed run length, verifies every response, and prints each metric by name
// with its unit. With -trace 1 a separate one-client pass replays the first
// queries through each layer's entry point and reports per-layer time and
// exact traversal work. The last line of standard output is a JSON result:
// the end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
//
// From the repository root:
//
//	bash bench/run.sh --workload fb-maxmin-lone --seed 1 --seconds 20 --trace 0
//
// or, inside bench/, `go run . -seed 1` runs every workload, timed and
// traced. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
)

// production is the scale every command-line run uses.
var production = scale{setups: 20, exact: 60, traced: 20, queries: 4000}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed for the edge streams and query lists")
	seconds := flag.Int("seconds", 20, "length of the timed query phase")
	trace := flag.Int("trace", 1, "1 adds the traced per-layer pass and reports its metrics; 0 reports the end-to-end metrics")
	traceOut := flag.String("traceout", "", "directory for the traced pass's Chrome trace JSON (none when empty)")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	run := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		run = []workload{w}
	}
	sc := production
	sc.seconds = time.Duration(*seconds) * time.Second
	for _, w := range run {
		rep, err := runWorkload(w, sc, *seed, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if *traceOut != "" && rep.trace != nil {
			path := filepath.Join(*traceOut, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
			if err := writeTrace(rep.trace, path); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			rep.lines = append(rep.lines, "# trace: "+path)
		}
		if err := rep.print(os.Stdout, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
}

func writeTrace(tr *obs.Trace, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return tr.WriteChromeFile(path)
}

// report is one workload's outcome: every measured value by metric name,
// the context lines printed above them, and the consistency warnings.
type report struct {
	values    map[string]float64
	lines     []string
	warnings  []string
	attempted int
	failed    int
	trace     *obs.Trace
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result selects the JSON metrics: per-layer for a traced run, end-to-end
// otherwise.
func (r *report) result(traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		out.Metrics[d.name] = metric{Value: r.values[d.name], Unit: d.unit}
	}
	return out
}

func (r *report) print(w io.Writer, traced bool) error {
	var b strings.Builder
	for _, l := range r.lines {
		fmt.Fprintln(&b, l)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer, infoMetrics} {
		for _, d := range defs {
			if v, ok := r.values[d.name]; ok {
				fmt.Fprintf(&b, "%-32s %16.6f %s\n", d.name, v, d.unit)
			}
		}
	}
	for _, warn := range r.warnings {
		fmt.Fprintln(&b, "warning:", warn)
	}
	res, err := json.Marshal(r.result(traced))
	if err != nil {
		return err
	}
	b.Write(res)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// runWorkload generates the workload's inputs from seed, runs it timed and,
// when traced, replays its first queries layer by layer.
func runWorkload(w workload, sc scale, seed int64, traced bool) (*report, error) {
	cl := newClient()
	defer cl.CloseIdleConnections()
	tr, err := runTimed(w, sc, seed, cl)
	if err != nil {
		return nil, err
	}
	rep := &report{values: map[string]float64{}}
	rep.lines = append(rep.lines,
		fmt.Sprintf("# workload %s: %s", w.name, w.why),
		"# machine: "+machine(seed),
		fmt.Sprintf("# timed: run_s=%g wall_s=%.3f deployments=%d nodes=%d queries=%d exact_prefix=%d setups=%d",
			sc.seconds.Seconds(), tr.wall.Seconds(), w.deployments, tr.nodes, len(tr.latency), w.deployments*perDeployment(sc.exact, w),
			len(tr.setup)))
	rep.addTimed(tr)
	rep.attempted, rep.failed = tr.attempted, tr.failed
	for _, f := range tr.failures {
		rep.warnings = append(rep.warnings, "failed: "+f)
	}
	if !traced {
		return rep, nil
	}
	tp, trace, err := runTraced(w, sc, seed, cl)
	if err != nil {
		return nil, err
	}
	rep.trace = trace
	rep.lines = append(rep.lines, fmt.Sprintf("# traced: queries=%d paths=6 (one-shot, HTTP, serve.Query, batched, unbatched, Select)", len(tp.perQuery)))
	rep.addTraced(tr, tp)
	rep.attempted += tp.attempted
	rep.failed += tp.failed
	for _, f := range tp.failures {
		rep.warnings = append(rep.warnings, "failed: "+f)
	}
	rep.values["fail_ratio"] = ratio(float64(rep.failed), float64(rep.attempted))
	return rep, nil
}

func (r *report) addTimed(tr *timedRun) {
	v := r.values
	setup := make([]float64, len(tr.setup))
	for i, d := range tr.setup {
		setup[i] = d.Seconds()
	}
	lat := durationsMS(tr.latency)
	v["setup_s"] = median(setup)
	v["query_p50_ms"] = quantile(lat, 0.5)
	v["query_p90_ms"] = quantile(lat, 0.9)
	v["queries_per_s"] = float64(len(lat)) / tr.wall.Seconds()
	var spent, kth []float64
	for _, prefix := range tr.prefix {
		for _, pr := range prefix {
			if pr.done {
				spent = append(spent, float64(pr.spent))
				if pr.pairs > 0 {
					kth = append(kth, float64(pr.kth))
				}
			}
		}
	}
	v["sssp_per_query"] = mean(spent)
	v["kth_delta_mean"] = mean(kth)
	v["heap_live_mb"] = median(tr.heapMB)
	v["fail_ratio"] = ratio(float64(tr.failed), float64(tr.attempted))
}

// addTraced derives the per-layer metrics. Path times are medians over the
// traced queries; a layer's overhead is the median of per-query
// differences between two paths running the same query.
func (r *report) addTraced(tr *timedRun, tp *tracedRun) {
	v := r.values
	col := func(f func(pathTimes) float64) []float64 {
		out := make([]float64, len(tp.perQuery))
		for i, p := range tp.perQuery {
			out[i] = f(p)
		}
		return out
	}
	n := float64(len(tp.perQuery))
	v["serve.query_ms"] = median(col(func(p pathTimes) float64 { return p.query }))
	v["serve.http_ms"] = median(col(func(p pathTimes) float64 { return p.http - p.query }))
	v["core.topk_ms"] = median(col(func(p pathTimes) float64 { return p.topk }))
	v["core.selection_ms"] = median(col(func(p pathTimes) float64 { return p.sel }))
	v["core.extraction_ms"] = median(col(func(p pathTimes) float64 { return p.ext }))
	v["core.sortcut_ms"] = median(col(func(p pathTimes) float64 { return p.cut }))
	v["candidates.select_ms"] = median(col(func(p pathTimes) float64 { return p.selectMS }))
	v["budget.selection_sssp"] = tp.budgetSel / n
	v["budget.extraction_sssp"] = tp.budgetExt / n
	v["dist.batcher_tax_ms"] = median(col(func(p pathTimes) float64 { return p.topk - p.unbatched }))
	v["dist.batcher_tax_selection_ms"] = median(col(func(p pathTimes) float64 { return p.sel - p.uSel }))
	v["dist.batcher_tax_extraction_ms"] = median(col(func(p pathTimes) float64 { return p.ext - p.uExt }))
	v["dist.sources_per_sweep_mean"] = ratio(tr.sweepSources, tr.sweeps)
	v["dist.coalesced_ratio"] = ratio(tr.coalesced, tr.sweepSources)
	v["dist.paired_build_ms"] = median(tp.pairedBuildMS)
	v["sssp.selection_edges"] = tp.selEdges / n
	v["sssp.selection_nodes"] = tp.selNodes / n
	v["sssp.extraction_edges"] = tp.extEdges / n
	v["sssp.extraction_nodes"] = tp.extNodes / n
	v["sssp.extraction_edges_per_ms"] = ratio(tp.extEdges, tp.extNanos/1e6)
	v["sssp.repair_edges"] = tp.repairEdges / n
	v["prune.skipped_per_query"] = tp.skipped / n
	v["prune.cutoffs_per_query"] = tp.cutoffs / n
	v["graph.ingest_ns_per_edge"] = ratio(tp.ingestNS, tp.ingestEdges)
	v["graph.seal_ms"] = median(tp.sealMS)
	v["graph.window_us"] = median(tp.windowUS)
	// The traced queries are the first queries of each deployment's exact
	// prefix, so the timed run has a latency for each.
	overhead := make([]float64, len(tp.perQuery))
	for i, p := range tp.perQuery {
		overhead[i] = math.NaN()
		if pr := tr.prefix[p.dep][p.idx]; pr.done {
			overhead[i] = 100 * (p.http/ms(pr.latency) - 1)
		}
	}
	v["bench.trace_overhead_pct"] = median(overhead)

	// Consistency checks: warnings with the numbers, never failures.
	var phases, topk float64
	for _, p := range tp.perQuery {
		if !math.IsNaN(p.topk) {
			phases += p.sel + p.ext + p.cut
			topk += p.topk
		}
	}
	if math.Abs(topk-phases) > 0.05*topk {
		r.warnings = append(r.warnings, fmt.Sprintf("Result.Phases sum to %.3f ms over the traced queries, core.Session.TopK took %.3f ms: more than 5%% apart",
			phases, topk))
	}
	// Each path waits out its own Batcher windows, whose timer jitter moves
	// a path by a few percent either way, so only an inversion larger than
	// 5% of the inner path is reported.
	serveOverTopK := median(col(func(p pathTimes) float64 { return p.query - p.topk }))
	if serveOverTopK < -0.05*v["core.topk_ms"] || v["serve.http_ms"] < -0.05*v["serve.query_ms"] {
		r.warnings = append(r.warnings, fmt.Sprintf("want core.topk_ms <= serve.query_ms <= HTTP within 5%%: per-query medians of serve.Server.Query - TopK = %.3f ms, HTTP - serve.Server.Query = %.3f ms",
			serveOverTopK, v["serve.http_ms"]))
	}
}

// machine describes the host every result was measured on.
func machine(seed int64) string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d cores_used=%d go=%s seed=%d",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0), runtime.Version(), seed)
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where it
// cannot).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
