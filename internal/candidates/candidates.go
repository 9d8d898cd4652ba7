// Package candidates implements the paper's candidate-endpoint generation
// algorithms (Section 4.2): centrality-based (Degree, DegDiff, DegRel),
// dispersion-based (MaxMin, MaxAvg), landmark-based (SumDiff, MaxDiff), the
// four hybrids (MMSD, MMMD, MASD, MAMD), a uniform-random baseline, and the
// classification-based selectors built on internal/ml.
//
// A Selector consumes a Context — the snapshot pair as a pair of abstract
// distance sources (dist.Source), the endpoint budget m, the landmark count
// l, an RNG, and a budget meter — and returns at most m candidate node IDs.
// Because selection only reads degrees, adjacency, and metered distance
// rows, every selector here runs unchanged on BFS distances (unweighted
// snapshots) and Dijkstra distances (weighted snapshots). All shortest-path
// work is charged to the meter; distance rows on G_t1 computed during
// selection are cached in the Context so the top-k extraction phase can
// reuse them, reproducing the paper's Table 1 budget split exactly.
package candidates

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/budget"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/landmark"
)

// DefaultLandmarks is the paper's landmark-set size (Section 5.1 fixes
// l = 10 for all algorithms; larger values did not improve performance).
const DefaultLandmarks = 10

// Context carries the inputs of one candidate-generation run.
type Context struct {
	// Pair is the unweighted (G_t1, G_t2) snapshot pair. Optional when S1/S2
	// are set directly: only the structural selectors (BetDiff, Incidence,
	// EmbedSum) and classifier training need raw graphs; the paper's thirteen
	// selectors run on the abstract sources alone.
	Pair graph.SnapshotPair
	// S1 and S2 are the snapshots as abstract distance sources. When nil,
	// Validate derives BFS sources from Pair, so unweighted callers can keep
	// constructing Contexts from a pair only.
	S1, S2 dist.Source
	// M is the endpoint budget: at most M candidates, 2M SSSPs total.
	M int
	// L is the landmark-set size; 0 means DefaultLandmarks.
	L int
	// RNG drives the random choices (landmark sampling, Random baseline).
	RNG *rand.Rand
	// Meter receives every SSSP charge. nil disables budget enforcement.
	Meter *budget.Meter
	// Workers bounds SSSP parallelism; <=0 means GOMAXPROCS.
	Workers int
	// Ctx, when non-nil, carries the query's cancellation signal. No
	// selector reads it today: core checks it between phases and between
	// extraction candidates.
	Ctx context.Context

	// D1Rows and D2Rows cache distance rows on G_t1 / G_t2 keyed by source
	// node, filled by selectors whose selection work already computed them
	// (dispersion picks, hybrid landmark rows). The extraction phase
	// consults these caches before spending more budget, which is what
	// makes the overall cost land exactly on the paper's 2m.
	D1Rows map[int][]int32
	D2Rows map[int][]int32

	// LandmarkNodes records the landmark set whose full (d1, d2) row pairs
	// the selector cached in D1Rows/D2Rows (the landmark and hybrid
	// selectors). The pruned extraction uses those rows to upper-bound each
	// candidate's best achievable Δ before traversing it; selectors that
	// cache no d2 rows leave it empty and extraction simply cannot skip
	// whole candidates.
	LandmarkNodes []int
}

// Landmarks returns the effective landmark count.
func (ctx *Context) Landmarks() int {
	if ctx.L > 0 {
		return ctx.L
	}
	return DefaultLandmarks
}

// Sources returns the snapshot pair as a dist.Pair (valid after Validate).
func (ctx *Context) Sources() dist.Pair { return dist.Pair{S1: ctx.S1, S2: ctx.S2} }

// Unweighted returns the raw unweighted snapshot pair for structural
// selectors that need more than distances (betweenness, embeddings,
// incidence). It fails with a clear error when the run is driven by a
// non-BFS distance source, e.g. a weighted pipeline run.
func (ctx *Context) Unweighted() (graph.SnapshotPair, error) {
	if ctx.Pair.G1 != nil && ctx.Pair.G2 != nil {
		return ctx.Pair, nil
	}
	if g1, ok := dist.UnweightedGraph(ctx.S1); ok {
		if g2, ok2 := dist.UnweightedGraph(ctx.S2); ok2 {
			return graph.SnapshotPair{G1: g1, G2: g2}, nil
		}
	}
	return graph.SnapshotPair{}, errors.New(
		"candidates: selector requires unweighted snapshots (structural graph access)")
}

// CacheD1 records a distance row on G_t1 for later reuse.
func (ctx *Context) CacheD1(node int, row []int32) {
	if ctx.D1Rows == nil {
		ctx.D1Rows = make(map[int][]int32)
	}
	ctx.D1Rows[node] = row
}

// CacheRows records a node's distance rows on G_t1 and G_t2 for later
// reuse. A G_t2 row is only ever cached beside its G_t1 row, so extraction
// never meets a cached d2 row without its d1 row.
func (ctx *Context) CacheRows(node int, d1, d2 []int32) {
	ctx.CacheD1(node, d1)
	if ctx.D2Rows == nil {
		ctx.D2Rows = make(map[int][]int32)
	}
	ctx.D2Rows[node] = d2
}

// Validate checks the Context invariants shared by all selectors, deriving
// the distance sources from Pair when the caller did not set them.
func (ctx *Context) Validate() error {
	if ctx.S1 == nil || ctx.S2 == nil {
		if err := ctx.Pair.Validate(); err != nil {
			return err
		}
		ctx.S1 = dist.NewBFS(ctx.Pair.G1)
		ctx.S2 = dist.NewBFS(ctx.Pair.G2)
	}
	if n1, n2 := ctx.S1.NumNodes(), ctx.S2.NumNodes(); n1 != n2 {
		return fmt.Errorf("candidates: node universes differ: %d vs %d", n1, n2)
	}
	if ctx.M <= 0 {
		return fmt.Errorf("candidates: non-positive endpoint budget m=%d", ctx.M)
	}
	return nil
}

// Selector generates candidate endpoints for the converging-pairs search.
type Selector interface {
	// Name returns the paper's algorithm name (Table 4).
	Name() string
	// Select returns at most ctx.M candidate node IDs, charging any
	// shortest-path work to ctx.Meter.
	Select(ctx *Context) ([]int, error)
}

// ErrBudgetTooSmall reports a budget m that cannot even pay for the
// selector's setup (e.g. landmark computation).
var ErrBudgetTooSmall = errors.New("candidates: budget too small for selector setup")

// --- Centrality-based selection (Section 4.2.1) ---

// degreeKind distinguishes the three degree-derived rankings.
type degreeKind int

const (
	byDegree degreeKind = iota
	byDegDiff
	byDegRel
)

// degreeSelector ranks nodes by a degree statistic. It performs no
// shortest-path work during selection.
type degreeSelector struct {
	kind degreeKind
}

// Degree ranks by degree in G_t1 — the paper shows it is negatively
// correlated with converging-pair participation (high-degree nodes are
// already central).
func Degree() Selector { return degreeSelector{byDegree} }

// DegDiff ranks by the absolute degree increase deg_t2 - deg_t1.
func DegDiff() Selector { return degreeSelector{byDegDiff} }

// DegRel ranks by the relative degree increase
// (deg_t2 - deg_t1) / deg_t1, mitigating preferential attachment.
func DegRel() Selector { return degreeSelector{byDegRel} }

func (s degreeSelector) Name() string {
	switch s.kind {
	case byDegree:
		return "Degree"
	case byDegDiff:
		return "DegDiff"
	default:
		return "DegRel"
	}
}

func (s degreeSelector) Select(ctx *Context) ([]int, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	s1, s2 := ctx.S1, ctx.S2
	n := s1.NumNodes()
	score := make([]float64, n)
	absent := map[int]bool{} // nodes not present in G_t1, which no ranking returns
	for u := 0; u < n; u++ {
		d1, d2 := s1.Degree(u), s2.Degree(u)
		switch {
		case d1 == 0:
			absent[u] = true // DegRel's relative change is undefined here
		case s.kind == byDegree:
			score[u] = float64(d1)
		case s.kind == byDegDiff:
			score[u] = float64(d2 - d1)
		default:
			score[u] = float64(d2-d1) / float64(d1)
		}
	}
	return landmark.TopByScore(score, ctx.M, absent), nil
}

// --- Random baseline ---

type randomSelector struct{}

// Random selects m uniformly random nodes of G_t1 — the sanity baseline
// every structural method must beat.
func Random() Selector { return randomSelector{} }

func (randomSelector) Name() string { return "Random" }

func (randomSelector) Select(ctx *Context) ([]int, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	if ctx.RNG == nil {
		return nil, errors.New("candidates: Random selector requires an RNG")
	}
	s1 := ctx.S1
	present := make([]int, 0, s1.NumNodes())
	for u := 0; u < s1.NumNodes(); u++ {
		if s1.Degree(u) > 0 {
			present = append(present, u)
		}
	}
	m := ctx.M
	if m > len(present) {
		m = len(present)
	}
	perm := ctx.RNG.Perm(len(present))[:m]
	out := make([]int, m)
	for i, j := range perm {
		out[i] = present[j]
	}
	sort.Ints(out)
	return out, nil
}

// --- Dispersion-based selection (Section 4.2.2) ---

type dispersionSelector struct {
	strategy landmark.Strategy
}

// MaxMin greedily selects nodes maximizing the minimum distance to the
// already-selected set; the picks cover the graph's clusters.
func MaxMin() Selector { return dispersionSelector{landmark.MaxMin} }

// MaxAvg greedily selects nodes maximizing the average distance to the
// already-selected set; the picks favor the graph's periphery, which the
// paper finds slightly better for candidate generation.
func MaxAvg() Selector { return dispersionSelector{landmark.MaxAvg} }

func (s dispersionSelector) Name() string {
	if s.strategy == landmark.MaxMin {
		return "MaxMin"
	}
	return "MaxAvg"
}

func (s dispersionSelector) Select(ctx *Context) ([]int, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	// Each greedy pick costs one SSSP on G_t1, charged inside
	// landmark.SelectSource; the rows double as the D1 rows of the
	// extraction phase.
	set, err := landmark.SelectSource(s.strategy, ctx.S1, ctx.M, ctx.RNG, ctx.Meter, ctx.Workers)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name(), err)
	}
	for i, u := range set.Nodes {
		ctx.CacheD1(u, set.D1[i])
	}
	return set.Nodes, nil
}

// --- Landmark-based selection (Section 4.2.3) ---

type landmarkSelector struct {
	useL1 bool
}

// SumDiff ranks nodes by the L1 norm of their landmark delta vector over l
// random landmarks; high scores mark nodes that came closer to many parts of
// the graph.
func SumDiff() Selector { return landmarkSelector{useL1: true} }

// MaxDiff ranks nodes by the L∞ norm of their landmark delta vector over l
// random landmarks.
func MaxDiff() Selector { return landmarkSelector{useL1: false} }

func (s landmarkSelector) Name() string {
	if s.useL1 {
		return "SumDiff"
	}
	return "MaxDiff"
}

func (s landmarkSelector) Select(ctx *Context) ([]int, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	if ctx.RNG == nil {
		return nil, fmt.Errorf("candidates: %s requires an RNG for landmark sampling", s.Name())
	}
	l := ctx.Landmarks()
	if ctx.M <= l {
		// The whole budget would go to random landmarks that are unlikely
		// endpoints; the paper's Figure 1 shows this dead zone as zero
		// coverage. Returning no candidates models it faithfully.
		return nil, fmt.Errorf("%w: m=%d <= l=%d random landmarks", ErrBudgetTooSmall, ctx.M, l)
	}
	set, err := landmark.SelectSource(landmark.Random, ctx.S1, l, ctx.RNG, ctx.Meter, ctx.Workers)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name(), err)
	}
	norms, d1, d2, err := landmark.ComputeNormsSource(set, ctx.Sources(), ctx.Meter, ctx.Workers)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name(), err)
	}
	// Cache the landmark rows: if a landmark happens to rank into the
	// candidate set, the extraction phase reuses them for free — and the
	// pruned extraction bounds every candidate's Δ with them.
	for i, u := range set.Nodes {
		ctx.CacheRows(u, d1[i], d2[i])
	}
	ctx.LandmarkNodes = append([]int(nil), set.Nodes...)
	m := ctx.M - len(set.Nodes)
	if s.useL1 {
		return landmark.TopByScore(norms.L1, m, nil), nil
	}
	return landmark.TopByScore(norms.LInf, m, nil), nil
}

// --- Hybrid selection (Section 4.2.4) ---

type hybridSelector struct {
	strategy landmark.Strategy
	useL1    bool
}

// MMSD is MaxMin-SumDiff: MaxMin-dispersed landmarks, L1 ranking — the
// paper's best performer in most settings.
func MMSD() Selector { return hybridSelector{landmark.MaxMin, true} }

// MMMD is MaxMin-MaxDiff.
func MMMD() Selector { return hybridSelector{landmark.MaxMin, false} }

// MASD is MaxAvg-SumDiff.
func MASD() Selector { return hybridSelector{landmark.MaxAvg, true} }

// MAMD is MaxAvg-MaxDiff.
func MAMD() Selector { return hybridSelector{landmark.MaxAvg, false} }

func (s hybridSelector) Name() string {
	name := "MA"
	if s.strategy == landmark.MaxMin {
		name = "MM"
	}
	if s.useL1 {
		return name + "SD"
	}
	return name + "MD"
}

func (s hybridSelector) Select(ctx *Context) ([]int, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	l := ctx.Landmarks()
	if ctx.M < l {
		// With fewer endpoints than landmarks, fall back to pure dispersion:
		// the hybrid's landmarks are themselves meaningful candidates, so
		// unlike the random-landmark methods the budget is not wasted.
		return dispersionSelector{s.strategy}.Select(ctx)
	}
	set, err := landmark.SelectSource(s.strategy, ctx.S1, l, ctx.RNG, ctx.Meter, ctx.Workers)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name(), err)
	}
	norms, d1, d2, err := landmark.ComputeNormsSource(set, ctx.Sources(), ctx.Meter, ctx.Workers)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name(), err)
	}
	for i, u := range set.Nodes {
		ctx.CacheRows(u, d1[i], d2[i])
	}
	ctx.LandmarkNodes = append([]int(nil), set.Nodes...)
	// The dispersed landmarks join the candidate set (their SSSPs are paid
	// for already), topped up with the best-ranked remaining nodes.
	exclude := make(map[int]bool, len(set.Nodes))
	for _, u := range set.Nodes {
		exclude[u] = true
	}
	var ranked []int
	if s.useL1 {
		ranked = landmark.TopByScore(norms.L1, ctx.M-len(set.Nodes), exclude)
	} else {
		ranked = landmark.TopByScore(norms.LInf, ctx.M-len(set.Nodes), exclude)
	}
	return append(append([]int(nil), set.Nodes...), ranked...), nil
}
