// Package convergence identifies converging pairs of nodes on a budget: the
// pairs of nodes in an evolving graph whose shortest-path distance decreased
// the most between two snapshots, found with a fixed budget of single-source
// shortest-path computations. It is a from-scratch Go implementation of
// "Identifying Converging Pairs of Nodes on a Budget" (EDBT 2015).
//
// # Quick start
//
//	ev, _ := convergence.NewEvolving(stream)      // timestamped edge stream
//	pair, _ := ev.Pair(0.8, 1.0)                   // G_t1 = 80%, G_t2 = full
//	res, _ := convergence.TopK(pair, convergence.Options{
//		Selector: convergence.MustSelector("MMSD"),
//		M:        100, // at most 2*100 shortest-path computations
//		K:        50,  // the 50 most-converging pairs
//	})
//	for _, p := range res.Pairs {
//		fmt.Printf("(%d,%d) came closer by %d hops\n", p.U, p.V, p.Delta)
//	}
//
// The selector decides which m nodes get their shortest paths computed;
// thirteen strategies from the paper are available (see Selectors), from
// degree heuristics through dispersion and landmark rankings to trained
// classifiers, plus the Incidence baseline in internal/incidence.
package convergence

import (
	"math/rand"

	"repro/internal/budget"
	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/topk"
)

// Re-exported graph substrate types. Node IDs are dense ints in
// [0, NumNodes); snapshots from one Evolving stream share a node universe.
type (
	// Graph is an immutable undirected snapshot in CSR form.
	Graph = graph.Graph
	// Builder accumulates edges into a Graph.
	Builder = graph.Builder
	// Edge is an undirected edge.
	Edge = graph.Edge
	// TimedEdge is an edge insertion with its time slice.
	TimedEdge = graph.TimedEdge
	// Evolving is a growing graph defined by a timestamped edge stream.
	Evolving = graph.Evolving
	// SnapshotPair is a (G_t1, G_t2) instance pair with G_t2 ⊇ G_t1.
	SnapshotPair = graph.SnapshotPair
	// Weighted is an undirected graph with non-negative edge weights.
	Weighted = graph.Weighted
	// WeightedEdge is an edge with a weight.
	WeightedEdge = graph.WeightedEdge

	// Pair is a converging pair: endpoints (U < V), distances in both
	// snapshots, and the decrease Delta = D1 - D2.
	Pair = topk.Pair
	// GroundTruth is the exact result of an unbudgeted all-pairs sweep.
	GroundTruth = topk.GroundTruth
	// PairsGraph is G^p_k, the graph whose edges are the top-k pairs.
	PairsGraph = topk.PairsGraph

	// Selector generates candidate endpoints under a budget.
	Selector = candidates.Selector
	// SelectorContext carries a selector invocation's inputs.
	SelectorContext = candidates.Context
	// ClassifierModel is a trained classification-based selector model.
	ClassifierModel = candidates.Model
	// TrainSample is a labeled snapshot pair for classifier training.
	TrainSample = candidates.TrainSample

	// Options configures a budgeted TopK run.
	Options = core.Options
	// Result is the outcome of a budgeted TopK run.
	Result = core.Result
	// BudgetReport is the per-phase SSSP spending of a run.
	BudgetReport = budget.Report
	// PruneStats reports what the top-K Δ-threshold pruning did in one run
	// (Result.Pruned).
	PruneStats = core.PruneStats
	// WarmCache memoizes finished queries over one snapshot pair
	// (Options.Warm): an exact repeat charges the first run's spending per
	// phase and returns its answer without traversing. Create with
	// NewWarmCache.
	WarmCache = candidates.Warm

	// Trace records the phases of a run as spans (set Options.Trace or
	// MonitorConfig.Trace) and exports them as a Chrome trace_event JSON
	// timeline or a human-readable tree.
	Trace = obs.Trace
)

// NewTrace starts an empty observability trace; thread it through
// Options.Trace (one run) or MonitorConfig.Trace (a windowed watch), then
// export with WriteChrome/WriteChromeFile or WriteTree.
func NewTrace(name string) *Trace { return obs.New(name) }

// NewWarmCache creates an empty warm cache for Options.Warm. Scope one cache
// to one snapshot pair; reuse across pairs would be unsound.
func NewWarmCache() *WarmCache { return candidates.NewWarm() }

// NewBuilder creates a Builder over a node universe of size n.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a Graph over n nodes from an edge list.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// NewEvolving validates and wraps a timestamped edge stream.
func NewEvolving(stream []TimedEdge) (*Evolving, error) { return graph.NewEvolving(stream) }

// NewWeighted builds a weighted undirected graph.
func NewWeighted(n int, edges []WeightedEdge) (*Weighted, error) {
	return graph.NewWeighted(n, edges)
}

// TopK runs the budgeted top-k converging-pairs algorithm (the paper's
// Algorithm 1) on a snapshot pair. The run performs at most 2*opts.M
// single-source shortest-path computations; Result.Budget reports the exact
// spending.
func TopK(pair SnapshotPair, opts Options) (*Result, error) { return core.TopK(pair, opts) }

// Exact computes the true top-k converging pairs with the unbudgeted
// quadratic baseline (all-pairs BFS on both snapshots, parallelized).
func Exact(pair SnapshotPair, k, workers int) ([]Pair, error) { return core.Exact(pair, k, workers) }

// ComputeGroundTruth runs the exact all-pairs sweep, returning the Δ
// histogram, Δmax, exact diameters, and all pairs within the slack window.
func ComputeGroundTruth(pair SnapshotPair, workers int) (*GroundTruth, error) {
	return topk.Compute(pair, topk.Options{Workers: workers})
}

// NewPairsGraph builds G^p_k from a top-k pair set.
func NewPairsGraph(pairs []Pair) *PairsGraph { return topk.NewPairsGraph(pairs) }

// Coverage returns the fraction of pairs with at least one endpoint among
// the candidate nodes — the paper's evaluation metric.
func Coverage(pairs []Pair, candidateNodes []int) float64 {
	return topk.Coverage(pairs, topk.NodeSet(candidateNodes))
}

// NewSelector constructs one of the paper's candidate-generation algorithms
// by name: Degree, DegDiff, DegRel, MaxMin, MaxAvg, SumDiff, MaxDiff, MMSD,
// MMMD, MASD, MAMD, or Random.
func NewSelector(name string) (Selector, error) { return candidates.ByName(name) }

// MustSelector is NewSelector that panics on unknown names; convenient for
// literals in examples and tests.
func MustSelector(name string) Selector {
	sel, err := candidates.ByName(name)
	if err != nil {
		panic(err)
	}
	return sel
}

// Selectors lists the available selector names. Every listed selector runs
// on both pipelines — unweighted TopK and WeightedTopK — because selection
// reads only degrees and metered distance rows through the shared distance
// engine.
func Selectors() []string { return candidates.Names() }

// SelectorDescription returns the one-line description of a selector
// (the paper's Table 4), or "" if unknown.
func SelectorDescription(name string) string { return candidates.Descriptions[name] }

// TrainClassifier trains a classification-based selector from labeled
// snapshot pairs (positives are typically the greedy vertex cover of the
// training pair's G^p_k; see GreedyCover). Wrap the result with
// NewClassifierSelector.
func TrainClassifier(samples []TrainSample, opts candidates.TrainOptions) (*ClassifierModel, error) {
	return candidates.Train(samples, opts)
}

// NewClassifierSelector wraps a trained model as a Selector.
func NewClassifierSelector(name string, model *ClassifierModel) Selector {
	return candidates.Classifier(name, model)
}

// GreedyCover computes the greedy vertex cover of a pair set — the paper's
// reference candidate set and the positive class for classifier training.
// (Re-exported from internal/cover to keep the public import graph flat.)
func GreedyCover(pairs []Pair) []int32 { return coverGreedy(pairs) }

// NewRNG returns a deterministic RNG for seeding selector runs.
func NewRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
