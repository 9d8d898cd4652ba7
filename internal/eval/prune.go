package eval

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/budget"
	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/sssp"
	"repro/internal/topk"
)

// PruneTable measures the Δ-threshold pruned extraction against the full
// baseline on the synthetic DBLP stream at n=50000 (the acceptance size,
// independent of the suite's -scale): for each k it runs the identical MMSD
// query with Prune off and on, attributes traversal work to the extraction
// phase by subtracting a standalone selection's work (selection is
// deterministic, so both modes spend exactly the same there), and verifies
// the two results are bit-identical. The Edges× column is the headline:
// full-extraction edges / pruned-extraction edges.
func (s *Suite) PruneTable(ks []int) (*AblationResult, error) {
	if len(ks) == 0 {
		ks = []int{10, 50, 200}
	}
	const (
		m    = 100
		l    = 10
		seed = 1
	)
	ev, err := datagen.DBLP(datagen.Config{Seed: seed, Scale: 50000.0 / 18000})
	if err != nil {
		return nil, fmt.Errorf("eval: prune datagen: %w", err)
	}
	pair, err := ev.Pair(0.8, 1.0)
	if err != nil {
		return nil, fmt.Errorf("eval: prune pair: %w", err)
	}

	// Standalone selection run: the per-query selection work both modes
	// repeat verbatim (same selector, seed, and pair), measured once so the
	// per-mode rows can report extraction-only traversal work.
	selNodes, selEdges, err := selectionWork(pair, m, l, seed, s.Config.Workers)
	if err != nil {
		return nil, err
	}

	res := &AblationResult{
		Title: fmt.Sprintf("Δ-threshold pruned extraction — DBLP n=%d (80%% split), MMSD m=%d l=%d; extraction-phase traversal work (selection's %d edges subtracted)",
			pair.G2.NumNodes(), m, l, selEdges),
		Columns: []string{"k", "Mode", "ExtNodes", "ExtEdges", "Edges×", "Skipped", "Cutoffs", "Wall", "Pairs", "Identical"},
	}
	for _, k := range ks {
		var fullPairs []topk.Pair
		var fullEdges int64
		for _, mode := range []core.PruneMode{core.PruneOff, core.PruneAuto} {
			before := sssp.SnapshotMetrics()
			prunedBefore := sssp.SnapshotPrunedWork()
			//convlint:nondet wall time is observational, not part of results
			start := time.Now()
			r, err := core.TopK(pair, core.Options{
				Selector: candidates.MMSD(), M: m, L: l, K: k,
				Seed: seed, Workers: s.Config.Workers, Prune: mode,
			})
			//convlint:nondet wall time is observational, not part of results
			wall := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("eval: prune k=%d mode=%d: %w", k, mode, err)
			}
			d := sssp.SnapshotMetrics().Sub(before).Total()
			cuts := sssp.SnapshotPrunedWork().Sub(prunedBefore)
			extNodes, extEdges := d.Nodes-selNodes, d.Edges-selEdges
			name, ratio, identical := "full", "", ""
			if mode == core.PruneOff {
				fullPairs, fullEdges = r.Pairs, extEdges
			} else {
				name = "pruned"
				if extEdges > 0 {
					ratio = fmt.Sprintf("%.2fx", float64(fullEdges)/float64(extEdges))
				}
				identical = fmt.Sprint(samePairs(fullPairs, r.Pairs))
			}
			res.Rows = append(res.Rows, []string{
				fmt.Sprint(k), name, fmt.Sprint(extNodes), fmt.Sprint(extEdges), ratio,
				fmt.Sprint(r.Pruned.CandidatesSkipped), fmt.Sprint(cuts.Cutoffs),
				durString(wall.Nanoseconds()), fmt.Sprint(len(r.Pairs)), identical,
			})
		}
	}
	return res, nil
}

// samePairs reports whether two result slices are bit-identical.
func samePairs(a, b []topk.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// selectionWork runs the MMSD selection standalone — exactly the call core
// makes — and returns its traversal-work delta.
func selectionWork(pair graph.SnapshotPair, m, l int, seed int64, workers int) (nodes, edges int64, err error) {
	src := dist.BFSPair(pair)
	cctx := &candidates.Context{
		Pair: pair, S1: src.S1, S2: src.S2, M: m, L: l,
		RNG:   rand.New(rand.NewSource(seed)),
		Meter: budget.NewMeter(m), Workers: workers, Ctx: context.Background(),
	}
	before := sssp.SnapshotMetrics()
	if _, err := candidates.MMSD().Select(cctx); err != nil {
		return 0, 0, fmt.Errorf("eval: prune selection baseline: %w", err)
	}
	d := sssp.SnapshotMetrics().Sub(before).Total()
	return d.Nodes, d.Edges, nil
}
