// Command convpairs finds the top-k converging pairs of an evolving graph
// under a shortest-path budget — the library's end-user entry point.
//
// Usage:
//
//	convpairs -in data/Facebook.txt -selector MMSD -m 100 -k 20
//	convpairs -in data/DBLP.txt -selector MaxAvg -m 50 -delta 3
//	convpairs -in data/Actors.txt -exact -k 10          # unbudgeted baseline
//	convpairs -in data/Facebook.txt -weighted -m 100 -k 20
//
// The input is a "u v t" edge-list file (see cmd/gendata); the snapshots are
// the -f1 and -f2 fractions of the stream (defaults 0.8 and 1.0). With
// -weighted the input must be the 4-column "u v t w" format (gendata
// -weighted) and the run goes through the same Algorithm 1 pipeline with
// Dijkstra distances; -trace, -metricsaddr, and -events work identically.
// Traversals run across GOMAXPROCS workers; set that variable to cap them.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	convergence "repro"
	"repro/internal/candidates"
	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/obs"
	"repro/internal/sssp"
)

func main() {
	in := flag.String("in", "", "input edge-list file (required)")
	selName := flag.String("selector", "MMSD", "candidate selector (see -list)")
	modelPath := flag.String("model", "", "trained model JSON (from cmd/trainmodel); overrides -selector")
	m := flag.Int("m", 100, "endpoint budget (2m shortest-path computations)")
	l := flag.Int("l", 10, "landmark count for landmark-based selectors")
	k := flag.Int("k", 20, "number of pairs to report")
	delta := flag.Int("delta", 0, "report all pairs with distance decrease >= delta (overrides -k)")
	f1 := flag.Float64("f1", 0.8, "first snapshot fraction of the edge stream")
	f2 := flag.Float64("f2", 1.0, "second snapshot fraction of the edge stream")
	seed := flag.Int64("seed", 1, "seed for randomized selectors")
	exact := flag.Bool("exact", false, "run the unbudgeted all-pairs baseline instead")
	weightedRun := flag.Bool("weighted", false, "use edge weights (4-column input) and Dijkstra distances")
	list := flag.Bool("list", false, "list available selectors and exit")
	explain := flag.Bool("explain", false, "trace each found pair's shortest path and mark the new edges behind it")
	dotOut := flag.String("dot", "", "write a GraphViz DOT rendering of G_t2 with the found pairs highlighted")
	jsonOut := flag.String("json", "", "write the run result as a JSON report")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the run's phases (load at chrome://tracing or ui.perfetto.dev)")
	ocli := obs.BindCLIFlags(flag.CommandLine)
	flag.Parse()

	if err := ocli.Start(); err != nil {
		fatal(err)
	}
	defer func() {
		if err := ocli.Finish(); err != nil {
			fatal(err)
		}
	}()

	if *list {
		for _, name := range convergence.Selectors() {
			fmt.Printf("%-8s %s\n", name, convergence.SelectorDescription(name))
		}
		return
	}
	if *in == "" {
		fatal(fmt.Errorf("missing -in (use -list to see selectors)"))
	}
	ds, err := dataset.LoadFile(*in)
	if err != nil {
		fatal(err)
	}

	if *weightedRun {
		if *exact || *modelPath != "" || *explain || *dotOut != "" {
			fatal(fmt.Errorf("-weighted runs the budgeted name-based pipeline only (drop -exact, -model, -explain, and -dot)"))
		}
		runWeighted(ds, *selName, *m, *l, *k, int32(*delta), *f1, *f2, *seed, *traceOut, *jsonOut)
		return
	}

	pair, err := ds.Ev.Pair(*f1, *f2)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset %s: G_t1 %d edges, G_t2 %d edges over %d nodes\n",
		ds.Name, pair.G1.NumEdges(), pair.G2.NumEdges(), pair.G1.NumNodes())

	if *exact {
		pairs, err := convergence.Exact(pair, *k, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("exact top-%d converging pairs (unbudgeted baseline):\n", len(pairs))
		printPairs(pairs)
		return
	}

	var sel convergence.Selector
	if *modelPath != "" {
		var err error
		sel, err = loadModelSelector(*modelPath)
		if err != nil {
			fatal(err)
		}
	} else {
		var err error
		sel, err = convergence.NewSelector(*selName)
		if err != nil {
			fatal(err)
		}
	}
	// The explicit meter is bit-identical to the self-metered default; it
	// makes the thin client's budget routing visible (convlint budgetcheck
	// requires Session queries to show where their meter comes from).
	opts := convergence.Options{
		Selector: sel, M: *m, L: *l, Seed: *seed,
		Meter: convergence.NewBudgetMeter(*m),
	}
	if *delta > 0 {
		opts.MinDelta = int32(*delta)
	} else {
		opts.K = *k
	}
	var tr *convergence.Trace
	var kernelsBefore sssp.MetricsSnapshot
	if *traceOut != "" {
		tr = convergence.NewTrace("convpairs " + ds.Name)
		opts.Trace = tr
		kernelsBefore = sssp.SnapshotMetrics()
	}
	// convpairs is a thin client of the session layer: one Session, one
	// query. A convserve daemon runs the same Session code over the same
	// snapshots, which is what makes served results bit-identical to this
	// one-shot run.
	sess, err := convergence.NewSession(pair)
	if err != nil {
		fatal(err)
	}
	res, err := sess.TopK(context.Background(), opts)
	if err != nil {
		fatal(err)
	}
	if tr != nil {
		if err := writeTrace(tr, *traceOut, res.Budget, kernelsBefore); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("selector %s, budget: %s\n", res.SelectorName, res.Budget)
	fmt.Printf("found %d converging pairs from %d candidate endpoints:\n",
		len(res.Pairs), len(res.Candidates))
	printPairs(res.Pairs)
	if *explain {
		for _, p := range res.Pairs {
			exp, err := convergence.Explain(pair, p)
			if err != nil {
				fmt.Printf("  explain %v: %v\n", p, err)
				continue
			}
			fmt.Println("  ", exp)
		}
	}

	if *dotOut != "" {
		if err := writeFileWith(*dotOut, func(w io.Writer) error {
			return export.WriteDOT(w, pair.G2, export.DOTOptions{
				Name: ds.Name, Pairs: res.Pairs, Candidates: res.Candidates,
			})
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("DOT rendering written to %s\n", *dotOut)
	}
	if *jsonOut != "" {
		if err := writeFileWith(*jsonOut, func(w io.Writer) error {
			return export.WriteJSON(w, res.SelectorName, *m,
				res.Budget.Total(), res.Budget.Limit, res.Candidates, res.Pairs)
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("JSON report written to %s\n", *jsonOut)
	}
}

// runWeighted is the -weighted leg: the same Algorithm 1 run on the unified
// pipeline with Dijkstra distances, sharing the trace verification and
// output plumbing with the unweighted path.
func runWeighted(ds *dataset.Dataset, selName string, m, l, k int, delta int32, f1, f2 float64, seed int64, traceOut, jsonOut string) {
	sp, err := ds.WeightedPair(f1, f2)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset %s (weighted): G_t1 %d edges, G_t2 %d edges over %d nodes\n",
		ds.Name, sp.G1.NumEdges(), sp.G2.NumEdges(), sp.G1.NumNodes())
	opts := convergence.WeightedOptions{Selector: selName, M: m, L: l, Seed: seed}
	if delta > 0 {
		opts.MinDelta = delta
	} else {
		opts.K = k
	}
	var tr *convergence.Trace
	var kernelsBefore sssp.MetricsSnapshot
	if traceOut != "" {
		tr = convergence.NewTrace("convpairs " + ds.Name + " (weighted)")
		opts.Trace = tr
		kernelsBefore = sssp.SnapshotMetrics()
	}
	res, err := convergence.WeightedTopK(sp, opts)
	if err != nil {
		fatal(err)
	}
	if tr != nil {
		if err := writeTrace(tr, traceOut, res.Budget, kernelsBefore); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("selector %s (Dijkstra distances), budget: %s\n", res.SelectorName, res.Budget)
	fmt.Printf("found %d converging pairs from %d candidate endpoints:\n",
		len(res.Pairs), len(res.Candidates))
	printPairs(res.Pairs)
	if jsonOut != "" {
		if err := writeFileWith(jsonOut, func(w io.Writer) error {
			return export.WriteJSON(w, res.SelectorName, m,
				res.Budget.Total(), res.Budget.Limit, res.Candidates, res.Pairs)
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("JSON report written to %s\n", jsonOut)
	}
}

// writeTrace verifies the trace against the budget report, annotates it
// with the kernel work the run performed, writes the Chrome JSON, and prints
// the phase tree. The verification is the observability layer's own
// acceptance check: every SSSP the meter charged must have been attributed
// to a phase span, so the trace's totals and the budget report are two views
// of the same spending.
func writeTrace(tr *convergence.Trace, path string, report convergence.BudgetReport, before sssp.MetricsSnapshot) error {
	byPhase := tr.SSSPByPhase()
	if got := byPhase["candidate-generation"]; got != report.CandidateGen {
		return fmt.Errorf("trace attribution mismatch: candidate-generation %d SSSPs traced, report says %d",
			got, report.CandidateGen)
	}
	if got := byPhase["top-k-extraction"]; got != report.TopK {
		return fmt.Errorf("trace attribution mismatch: top-k-extraction %d SSSPs traced, report says %d",
			got, report.TopK)
	}
	work := sssp.SnapshotMetrics().Sub(before)
	total := work.Total()
	tr.Instant("kernel-work",
		obs.Int64("kernel-calls", total.Calls),
		obs.Int64("nodes-visited", total.Nodes),
		obs.Int64("edges-scanned", total.Edges),
		obs.Int64("diropt-switches", work.DirectionOpt.Switches),
		obs.Int64("frontier-peak", total.FrontierPeak))
	if err := tr.WriteChromeFile(path); err != nil {
		return err
	}
	if err := tr.WriteTree(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("trace written to %s (kernels: %d calls, %d nodes, %d edges)\n",
		path, total.Calls, total.Nodes, total.Edges)
	return nil
}

// writeFileWith creates path and streams fn's output into it.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadModelSelector loads a trainmodel JSON file, trying the classifier
// format first and falling back to the regression format.
func loadModelSelector(path string) (convergence.Selector, error) {
	if m, err := candidates.LoadModelFile(path); err == nil {
		return convergence.NewClassifierSelector("Classifier("+path+")", m), nil
	}
	m, err := candidates.LoadRegressionModelFile(path)
	if err != nil {
		return nil, fmt.Errorf("not a classifier or regression model: %w", err)
	}
	return convergence.NewRegressionSelector("Regression("+path+")", m), nil
}

func printPairs(pairs []convergence.Pair) {
	for i, p := range pairs {
		fmt.Printf("%4d. (%6d, %6d)  d_t1=%-3d d_t2=%-3d Δ=%d\n", i+1, p.U, p.V, p.D1, p.D2, p.Delta)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "convpairs:", err)
	os.Exit(1)
}
