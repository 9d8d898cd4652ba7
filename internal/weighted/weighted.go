// Package weighted extends the converging-pairs problem to weighted graphs,
// which the paper's problem statement explicitly admits ("undirected
// (weighted) graphs") but its evaluation never exercises. Distances come
// from Dijkstra instead of BFS; evolution is still insertion-only, and a
// new edge may also arrive with a smaller weight than an existing one
// (e.g. a road upgrade), which likewise only decreases distances.
//
// The package is a thin adapter over the unified pipeline: it validates the
// weighted domination invariant, wraps the snapshots as Dijkstra distance
// sources (dist.DijkstraPair), and delegates both the exact ground truth
// (topk.ComputeSources) and the budgeted Algorithm 1 (core.TopKSources) to
// the same code the unweighted pipeline runs — one algorithm, two metrics.
// Every selector in the candidates registry works here; only the structural
// extras (BetDiff, EmbedSum, Incidence policies) are unweighted-only, and
// they reject weighted sources with a clear error.
package weighted

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/budget"
	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/topk"
)

// SnapshotPair is a weighted (G_t1, G_t2) pair. Validity requires the same
// node universe and that G_t2 dominates G_t1: every G_t1 edge exists in
// G_t2 with weight at most its G_t1 weight. That is exactly the condition
// under which all distances are non-increasing, hence Delta >= 0.
type SnapshotPair struct {
	G1, G2 *graph.Weighted
}

// Validate checks the domination invariant.
func (sp SnapshotPair) Validate() error {
	if sp.G1 == nil || sp.G2 == nil {
		return errors.New("weighted: nil snapshot")
	}
	if sp.G1.NumNodes() != sp.G2.NumNodes() {
		return fmt.Errorf("weighted: node universes differ: %d vs %d",
			sp.G1.NumNodes(), sp.G2.NumNodes())
	}
	for u := 0; u < sp.G1.NumNodes(); u++ {
		adj1, w1 := sp.G1.Neighbors(u)
		adj2, w2 := sp.G2.Neighbors(u)
		for i, v := range adj1 {
			j := sort.Search(len(adj2), func(j int) bool { return adj2[j] >= v })
			if j == len(adj2) || adj2[j] != v {
				return fmt.Errorf("weighted: edge (%d,%d) missing from G2", u, v)
			}
			if w2[j] > w1[i] {
				return fmt.Errorf("weighted: edge (%d,%d) weight grew %d -> %d",
					u, v, w1[i], w2[j])
			}
		}
	}
	return nil
}

// Sources wraps the validated pair as Dijkstra distance sources, the form
// the unified pipeline consumes.
func (sp SnapshotPair) Sources() dist.Pair { return dist.DijkstraPair(sp.G1, sp.G2) }

// Compute runs the exact weighted all-pairs sweep (Dijkstra per source on
// both snapshots) through topk's generic engine, producing the same
// GroundTruth structure as the unweighted sweep. Diameters are weighted
// eccentricities.
func Compute(sp SnapshotPair, opts topk.Options) (*topk.GroundTruth, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return topk.ComputeSources(sp.Sources(), opts)
}

// DefaultSelector is the selector an empty Options.Selector resolves to.
const DefaultSelector = SelDegree

// Selector names for the weighted pipeline. These are plain names into the
// unified candidates registry, kept as constants for compatibility; every
// registry selector (see Selectors) is accepted, not only these.
const (
	SelDegree  = "Degree"
	SelDegDiff = "DegDiff"
	SelDegRel  = "DegRel"
	SelMaxMin  = "MaxMin"
	SelMaxAvg  = "MaxAvg"
	SelSumDiff = "SumDiff"
	SelMaxDiff = "MaxDiff"
	SelMMSD    = "MMSD"
	SelMMMD    = "MMMD"
	SelMASD    = "MASD"
	SelMAMD    = "MAMD"
	SelRandom  = "Random"
)

// Selectors lists every selector name the weighted pipeline accepts, sorted —
// the full candidates registry, since selection runs on abstract distance
// sources.
func Selectors() []string { return candidates.Names() }

// Options configures a budgeted weighted run; semantics mirror core.Options.
type Options struct {
	// Selector names a candidates-registry selector; "" means
	// DefaultSelector. Unknown names error, listing the valid set.
	Selector string
	M        int
	L        int
	K        int
	MinDelta int32
	Seed     int64
	Workers  int
	// Trace, when non-nil, records the run's phases and budget charges
	// exactly like the unweighted pipeline (same span names, same phases).
	Trace *obs.Trace
}

// Result mirrors core.Result for the weighted pipeline.
type Result struct {
	Pairs      []topk.Pair
	Candidates []int
	Budget     budget.Report
	// SelectorName records which algorithm generated the candidates.
	SelectorName string
}

// TopK runs the budgeted converging-pairs algorithm on a weighted pair by
// delegating to the generic core over Dijkstra sources. Selection,
// extraction, budget metering, and tracing are the exact same code as the
// unweighted core.TopK.
func TopK(sp SnapshotPair, opts Options) (*Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	name := opts.Selector
	if name == "" {
		name = DefaultSelector
	}
	sel, err := candidates.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("weighted: %w", err)
	}
	res, err := core.TopKSources(sp.Sources(), core.Options{
		Selector: sel,
		M:        opts.M,
		L:        opts.L,
		K:        opts.K,
		MinDelta: opts.MinDelta,
		Seed:     opts.Seed,
		Workers:  opts.Workers,
		Trace:    opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Pairs:        res.Pairs,
		Candidates:   res.Candidates,
		Budget:       res.Budget,
		SelectorName: res.SelectorName,
	}, nil
}
