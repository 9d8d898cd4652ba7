package convergence

import (
	"math/rand"

	"repro/internal/budget"
	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/dynsssp"
	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/monitor"
	"repro/internal/topk"
	"repro/internal/weighted"
)

// --- Session-oriented pipeline (the serving deployment) ---

type (
	// Session is a reusable TopK pipeline over one snapshot pair: distance
	// sources, scratch buffers, and selector caches persist across queries,
	// and each TopK call runs under a context.
	Session = core.Session

	// Ingester accumulates a timestamped edge stream and seals it into
	// immutable epochs.
	Ingester = graph.Ingester
	// IngesterOptions tunes an Ingester (node universe floor, retention).
	IngesterOptions = graph.IngesterOptions
	// EpochStore holds the sealed epochs and hands out pinned windows.
	EpochStore = graph.Store
	// Epoch is one immutable sealed snapshot with its sequence number.
	Epoch = graph.Epoch
	// EpochWindow is a pinned (t1, t2) snapshot pair; Close releases the
	// pins so retention may prune the epochs.
	EpochWindow = graph.Window
	// Delta is the edge difference between two snapshots.
	Delta = graph.Delta

	// BudgetMeter charges and enforces an SSSP allowance (Options.Meter).
	BudgetMeter = budget.Meter
	// BudgetRegistry tracks per-tenant SSSP allowances.
	BudgetRegistry = budget.Registry
	// BudgetTenant is one tenant's SSSP allowance: Admit reserves a query's
	// whole 2m and returns its meter, and Settle charges the tenant what
	// that meter spent and releases the rest.
	BudgetTenant = budget.Tenant
)

// NewSession builds a reusable query session over a snapshot pair. A
// Session's TopK is bit-identical to the package-level TopK at every
// setting; it differs only in reuse (cached sources and scratch) and in
// taking a context for cancellation.
func NewSession(pair SnapshotPair) (*Session, error) {
	return core.NewSession(pair)
}

// NewIngester starts an empty edge ingester whose sealed epochs land in its
// EpochStore.
func NewIngester(opts IngesterOptions) *Ingester { return graph.NewIngester(opts) }

// NewDelta computes the edge difference between two snapshots over the same
// node universe.
func NewDelta(g1, g2 *Graph) *Delta { return graph.NewDelta(g1, g2) }

// NewBudgetRegistry creates an empty tenant registry.
func NewBudgetRegistry() *BudgetRegistry { return budget.NewRegistry() }

// NewBudgetMeter creates the paper's standard per-query meter: m candidate
// endpoints, 2m SSSP computations. Passing it via Options.Meter is
// bit-identical to the self-metered default; it exists so callers holding a
// Session show where the query's budget comes from.
func NewBudgetMeter(m int) *BudgetMeter { return budget.NewMeter(m) }

// ErrBudgetExhausted is returned (wrapped) when a tenant's free allowance
// cannot cover a query's 2m, or a charge would pass its meter's limit.
var ErrBudgetExhausted = budget.ErrExhausted

// --- Streaming / monitoring (sliding-window deployment) ---

type (
	// MonitorConfig configures a windowed Watch run.
	MonitorConfig = monitor.Config
	// WindowReport is the outcome of one monitoring window.
	WindowReport = monitor.WindowReport
	// LandmarkTracker maintains landmark distance vectors incrementally
	// across the edge stream (one BFS per landmark, total).
	LandmarkTracker = monitor.LandmarkTracker
	// DynamicBFS maintains one source's BFS distances under edge
	// insertions.
	DynamicBFS = dynsssp.DynamicBFS
)

// Watch slices the stream at the given ascending fractions and reports the
// converging pairs of every consecutive window under a budget.
func Watch(ev *Evolving, fractions []float64, cfg MonitorConfig) ([]WindowReport, error) {
	return monitor.Watch(ev, fractions, cfg)
}

// EvenWindows splits [start, 1] into count equal windows for Watch.
func EvenWindows(start float64, count int) []float64 {
	return monitor.EvenWindows(start, count)
}

// NewLandmarkTracker starts incremental landmark maintenance at the given
// edge prefix of the stream.
func NewLandmarkTracker(ev *Evolving, landmarks []int, startPrefix int) (*LandmarkTracker, error) {
	return monitor.NewLandmarkTracker(ev, landmarks, startPrefix)
}

// NewDynamicBFS starts incremental single-source maintenance from src on an
// initial snapshot.
func NewDynamicBFS(g *Graph, src int) (*DynamicBFS, error) { return dynsssp.New(g, src) }

// --- Weighted graphs ---

type (
	// WeightedSnapshotPair is a weighted (G_t1, G_t2) pair; G_t2 must
	// dominate G_t1 (every edge present with equal or smaller weight).
	WeightedSnapshotPair = weighted.SnapshotPair
	// WeightedOptions configures a budgeted weighted run.
	WeightedOptions = weighted.Options
	// WeightedResult is the outcome of a budgeted weighted run.
	WeightedResult = weighted.Result
)

// WeightedTopK runs the budgeted converging-pairs algorithm with Dijkstra
// distances. It is the same Algorithm 1 implementation as TopK — selection,
// extraction, budget metering, and tracing run generically over a distance
// engine — so every registry selector works (see WeightedSelectors); an
// empty Options.Selector means weighted.DefaultSelector ("Degree"), and
// unknown names error listing the valid set.
func WeightedTopK(pair WeightedSnapshotPair, opts WeightedOptions) (*WeightedResult, error) {
	return weighted.TopK(pair, opts)
}

// WeightedSelectors lists the selector names WeightedTopK accepts, sorted.
// Because the pipeline is metric-agnostic, this is the full single-feature
// registry — the same names Selectors reports.
func WeightedSelectors() []string { return weighted.Selectors() }

// WeightedGroundTruth runs the exact weighted all-pairs sweep.
func WeightedGroundTruth(pair WeightedSnapshotPair, workers int) (*GroundTruth, error) {
	return weighted.Compute(pair, topk.Options{Workers: workers})
}

// --- Orion-style embedding (the paper's future-work direction) ---

type (
	// GraphEmbedding maps nodes to Euclidean coordinates approximating
	// shortest-path distances.
	GraphEmbedding = embed.Embedding
	// EmbedOptions tunes the embedding optimization.
	EmbedOptions = embed.Options
)

// EmbedGraph builds an Orion-style embedding of g over the given anchor
// landmarks (rows may carry precomputed BFS vectors, or nil).
func EmbedGraph(g *Graph, landmarks []int, rows [][]int32, opts EmbedOptions, rng *rand.Rand) (*GraphEmbedding, error) {
	return embed.Embed(g, landmarks, rows, opts, rng)
}

// NewEmbedSelector builds the embedding-based candidate generator
// ("EmbedSum"): probes is the random probe-sample size (0 = 64).
func NewEmbedSelector(opts EmbedOptions, probes int) Selector {
	return embed.NewSelector(opts, probes)
}

// --- Regression-based selection (the paper's ref-[5] direction) ---

type (
	// RegressionModel ranks nodes by predicted converging-pair
	// participation.
	RegressionModel = candidates.RegressionModel
	// RegressionSample is one training pair with per-node targets.
	RegressionSample = candidates.RegressionSample
)

// TrainRegression fits the regression-based selector model.
func TrainRegression(samples []RegressionSample, opts candidates.TrainOptions) (*RegressionModel, error) {
	return candidates.TrainRegression(samples, opts)
}

// NewRegressionSelector wraps a trained regression model as a Selector.
func NewRegressionSelector(name string, model *RegressionModel) Selector {
	return candidates.Regression(name, model)
}

// PairDegreeTargets converts a top-k pair set into regression targets (the
// G^p_k degree of every endpoint).
func PairDegreeTargets(pairs []Pair) map[int32]float64 {
	return candidates.PairDegreeTargets(pairs)
}

// --- Explanations ---

// Explanation attributes a converging pair to the new edges on its
// shortest path in G_t2.
type Explanation = core.Explanation

// Explain traces one shortest path behind a converging pair and splits it
// into pre-existing and newly inserted edges.
func Explain(pair SnapshotPair, p Pair) (*Explanation, error) {
	return core.Explain(pair, p)
}

// EdgeImpact counts how many converging pairs route over a new edge.
type EdgeImpact = core.EdgeImpact

// CriticalNewEdges ranks the new edges by how many of the given converging
// pairs route over them (explanation aggregation).
func CriticalNewEdges(pair SnapshotPair, pairs []Pair, topN int) []EdgeImpact {
	return core.CriticalNewEdges(pair, pairs, topN)
}

// FeatureWeight pairs a classifier feature name with its trained weight.
type FeatureWeight = candidates.FeatureWeight
