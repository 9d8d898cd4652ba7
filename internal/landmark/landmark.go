// Package landmark implements landmark selection and landmark-based distance
// change estimation. A landmark set L gives every node u a delta vector
// Λ(u)[i] = d_t1(u, w_i) − d_t2(u, w_i); its L1 and L∞ norms are the paper's
// SumDiff and MaxDiff ranking scores, and dispersion-selected landmark sets
// (MaxMin / MaxAvg) power the hybrid algorithms.
//
// Selection and norm computation are metric-generic: they run over
// dist.Source / dist.Pair, so the same code serves BFS distances on
// unweighted snapshots and Dijkstra distances on weighted ones. The
// *graph.Graph entry points (Select, ComputeNorms, ComputeNormsRows) remain
// as thin BFS-source wrappers.
//
// Budget discipline follows the paper's Table 1: every SSSP performed here
// is charged to the caller's budget meter in the candidate-generation phase
// — l per snapshot for the landmark rows, with dispersion selection's G_t1
// rows cached and reused so hybrids pay 2l total, not 3l.
package landmark

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/budget"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/sssp"
	"repro/internal/topk"
)

// Strategy selects how landmarks are picked from G_t1.
type Strategy int

const (
	// Random samples landmarks uniformly from the largest component.
	Random Strategy = iota
	// MaxMin greedily maximizes the minimum distance to selected landmarks,
	// spreading landmarks to cover the graph's clusters.
	MaxMin
	// MaxAvg greedily maximizes the average distance to selected landmarks,
	// favoring peripheral nodes.
	MaxAvg
	// HighDegree picks the highest-degree nodes (a cheap centrality-flavored
	// baseline, used in ablations).
	HighDegree
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case Random:
		return "random"
	case MaxMin:
		return "maxmin"
	case MaxAvg:
		return "maxavg"
	case HighDegree:
		return "highdegree"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// ErrNoLandmarks reports a selection request that cannot produce landmarks.
var ErrNoLandmarks = errors.New("landmark: no landmarks selectable")

// Set is a selected landmark set. For dispersion strategies, D1 caches the
// distance rows on G_t1 computed during selection (row i is distances from
// Nodes[i]); reusing them halves the landmark budget of hybrids.
type Set struct {
	Strategy Strategy
	Nodes    []int
	D1       [][]int32
}

// Select picks l landmarks from the unweighted g1; it is SelectSource over a
// BFS distance source at GOMAXPROCS workers, kept for structural callers
// (oracle, ablations).
func Select(strategy Strategy, g1 *graph.Graph, l int, rng *rand.Rand, meter *budget.Meter) (Set, error) {
	return SelectSource(strategy, dist.NewBFS(g1), l, rng, meter, 0)
}

// SelectSource picks l landmarks from a snapshot under any distance metric.
// Landmarks come from the largest connected component, where pairwise
// dispersion distances are well defined. Dispersion strategies charge one
// SSSP per pick to meter (candidate-generation phase); Random and HighDegree
// are free. rng is used by Random only and may be nil for the other
// strategies. workers bounds the parallelism of the dispersion rows (<=0
// means GOMAXPROCS); it never changes the set.
func SelectSource(strategy Strategy, s1 dist.Source, l int, rng *rand.Rand, meter *budget.Meter, workers int) (Set, error) {
	if l <= 0 {
		return Set{}, fmt.Errorf("landmark: non-positive landmark count %d", l)
	}
	comp, size, _ := dist.LargestComponent(s1)
	if size == 0 {
		return Set{}, fmt.Errorf("%w: empty graph", ErrNoLandmarks)
	}
	if l > size {
		l = size
	}
	switch strategy {
	case Random:
		if rng == nil {
			return Set{}, errors.New("landmark: Random strategy requires an rng")
		}
		// Landmark i is the component node of rank idx[i]; sorted, the
		// ranks select the sorted set in one pass over the bitmap.
		idx := rng.Perm(size)[:l]
		sort.Ints(idx)
		return Set{Strategy: Random, Nodes: comp.AtRanks(idx)}, nil
	case HighDegree:
		// Nodes outside the component score −1, below any degree.
		score := make([]int32, s1.NumNodes())
		for v := range score {
			score[v] = -1
			if comp.Has(v) {
				score[v] = int32(s1.Degree(v))
			}
		}
		return Set{Strategy: HighDegree, Nodes: TopByScore(score, l, nil)}, nil
	case MaxMin, MaxAvg:
		return selectDispersed(strategy, s1, comp, l, meter, workers)
	default:
		return Set{}, fmt.Errorf("landmark: unknown strategy %v", strategy)
	}
}

// selectDispersed runs the greedy dispersion selection shared by MaxMin and
// MaxAvg. The first pick is the highest-degree node of the component (a
// deterministic, central anchor); each subsequent pick maximizes the
// min (MaxMin) or sum (MaxAvg) of distances to the already-selected set.
// MaxMin over a BFS source runs maxMinChain; MaxAvg, whose sums move at
// every node, and Dijkstra sources compute one full row per pick.
func selectDispersed(strategy Strategy, s1 dist.Source, comp graph.NodeBits, l int, meter *budget.Meter, workers int) (Set, error) {
	first := -1
	for u := range s1.NumNodes() {
		if comp.Has(u) && (first < 0 || s1.Degree(u) > s1.Degree(first)) {
			first = u
		}
	}
	if g, ok := dist.UnweightedGraph(s1); ok && strategy == MaxMin {
		return maxMinChain(g, s1, first, l, meter, workers)
	}
	return dispersedRows(strategy, s1, comp, first, l, meter)
}

// dispersedRows is the full-row greedy loop: each pick charges one SSSP
// and computes its row, which updates every component node's score.
func dispersedRows(strategy Strategy, s1 dist.Source, comp graph.NodeBits, first, l int, meter *budget.Meter) (Set, error) {
	n := s1.NumNodes()
	selected := make([]int, 0, l)
	isSelected := make([]bool, n)
	score := make([]int64, n) // min- or sum-distance to selected
	rows := make([][]int32, 0, l)

	pick := func(u int) error {
		if err := meter.Charge(budget.PhaseCandidateGen, 1); err != nil {
			return err
		}
		row := make([]int32, n)
		s1.DistancesInto(u, row)
		rows = append(rows, row)
		selected = append(selected, u)
		isSelected[u] = true
		for w, word := range comp {
			for ; word != 0; word &= word - 1 {
				v := w*64 + bits.TrailingZeros64(word)
				d := int64(row[v]) // finite within the component
				if strategy == MaxAvg {
					score[v] += d
				} else if len(selected) == 1 || d < score[v] {
					score[v] = d
				}
			}
		}
		return nil
	}

	if err := pick(first); err != nil {
		return Set{}, fmt.Errorf("landmark: %v selection: %w", strategy, err)
	}
	for len(selected) < l {
		best, bestScore := -1, int64(-1)
		for w, word := range comp {
			for ; word != 0; word &= word - 1 {
				v := w*64 + bits.TrailingZeros64(word)
				if !isSelected[v] && score[v] > bestScore {
					best, bestScore = v, score[v]
				}
			}
		}
		if best < 0 {
			break
		}
		if err := pick(best); err != nil {
			return Set{}, fmt.Errorf("landmark: %v selection: %w", strategy, err)
		}
	}
	return Set{Strategy: strategy, Nodes: selected, D1: rows}, nil
}

// maxMinChain is MaxMin over a BFS source, with dispersedRows's picks,
// rows, charges and their order. Only the greedy choice is serial: near[v],
// the distance to the nearest pick, starts as the first pick's full row, and
// a later pick lowers it only inside its own Voronoi cell, which
// sssp.LowerNearest traverses alone. Each pick still charges its one SSSP
// before its traversal, and after the last pick one sweep at workers
// produces the full rows those charges paid for.
func maxMinChain(g *graph.Graph, s1 dist.Source, first, l int, meter *budget.Meter, workers int) (Set, error) {
	if err := meter.Charge(budget.PhaseCandidateGen, 1); err != nil {
		return Set{}, fmt.Errorf("landmark: %v selection: %w", MaxMin, err)
	}
	row := make([]int32, g.NumNodes())
	s1.DistancesInto(first, row)
	near := slices.Clone(row)
	nodes := append(make([]int, 0, l), first)
	// Picks have near 0, the component's other nodes at least 1, and the
	// nodes outside it, which no pick reaches, stay Unreachable: a scan of
	// near sees the component alone. The first of the farthest in node
	// order wins. near only falls, and every node before the last pick (at)
	// held less than its value top, so the next pick is the first node
	// after it still at top; only when none is left does a full scan find
	// the new top.
	n := g.NumNodes()
	at, top := n, int32(0)
	for len(nodes) < l {
		best := -1
		for at++; at < n; at++ {
			if near[at] == top {
				best = at
				break
			}
		}
		if best < 0 {
			top = 0
			for v, d := range near {
				if d > top {
					best, top, at = v, d, v
				}
			}
		}
		if best < 0 {
			break
		}
		if err := meter.Charge(budget.PhaseCandidateGen, 1); err != nil {
			return Set{}, fmt.Errorf("landmark: %v selection: %w", MaxMin, err)
		}
		sssp.LowerNearest(g, best, near, nil)
		nodes = append(nodes, best)
	}
	rows := append([][]int32{row}, dist.DistanceMatrix(s1, nodes[1:], workers)...)
	return Set{Strategy: MaxMin, Nodes: nodes, D1: rows}, nil
}

// Norms holds, per node of the snapshot universe, the L1 and L∞ norms of the
// landmark delta vector. Unreachable (in G_t1) landmark–node combinations
// contribute zero: such pairs are not connected, hence not converging.
type Norms struct {
	L1   []int64
	LInf []int32
}

// ComputeNorms evaluates the delta-vector norms of every node for the given
// landmark set. It charges one SSSP per landmark on G_t2, plus one per
// landmark on G_t1 when the set carries no cached D1 rows.
func ComputeNorms(set Set, pair graph.SnapshotPair, meter *budget.Meter, workers int) (Norms, error) {
	norms, _, _, err := ComputeNormsRows(set, pair, meter, workers)
	return norms, err
}

// ComputeNormsRows is ComputeNorms but also returns the landmark distance
// matrices on both snapshots (row i = distances from set.Nodes[i]). Hybrid
// selectors cache these rows so the extraction phase re-spends nothing on
// landmark sources, preserving the paper's exact 2m SSSP budget.
func ComputeNormsRows(set Set, pair graph.SnapshotPair, meter *budget.Meter, workers int) (Norms, [][]int32, [][]int32, error) {
	return ComputeNormsSource(set, dist.BFSPair(pair), meter, workers)
}

// ComputeNormsSource is the metric-generic ComputeNormsRows: it evaluates
// the delta-vector norms over any distance-source pair, with the same
// charging discipline.
func ComputeNormsSource(set Set, p dist.Pair, meter *budget.Meter, workers int) (Norms, [][]int32, [][]int32, error) {
	l := len(set.Nodes)
	if l == 0 {
		return Norms{}, nil, nil, ErrNoLandmarks
	}
	d1 := set.D1
	if d1 == nil {
		if err := meter.Charge(budget.PhaseCandidateGen, l); err != nil {
			return Norms{}, nil, nil, fmt.Errorf("landmark: G_t1 rows: %w", err)
		}
		d1 = dist.DistanceMatrix(p.S1, set.Nodes, workers)
	} else if len(d1) != l {
		return Norms{}, nil, nil, fmt.Errorf("landmark: cached D1 has %d rows for %d landmarks", len(d1), l)
	}
	if err := meter.Charge(budget.PhaseCandidateGen, l); err != nil {
		return Norms{}, nil, nil, fmt.Errorf("landmark: G_t2 rows: %w", err)
	}
	d2 := dist.DistanceMatrix(p.S2, set.Nodes, workers)

	n := p.NumNodes()
	norms := Norms{L1: make([]int64, n), LInf: make([]int32, n)}
	L1, LInf := norms.L1, norms.LInf[:n]
	for i := 0; i < l; i++ {
		r1, r2 := d1[i][:n], d2[i][:n]
		if invariant.Enabled {
			dist.CheckGrowing(set.Nodes[i], r1, r2)
		}
		// Branch-free: the landmark itself gives 0 − 0 and a node it cannot
		// reach in G_t1 gives −1 − r2 <= 0, so max(0, ·) folds both to the
		// zero they contribute.
		for v := range L1 {
			delta := max(0, r1[v]-r2[v])
			L1[v] += int64(delta)
			LInf[v] = max(LInf[v], delta)
		}
	}
	return norms, d1, d2, nil
}

// TopByScore returns the m nodes with the highest score, excluding any node
// in the exclude set, breaking ties toward smaller IDs. score must be
// indexable by node ID; nodes with zero score still qualify (the paper's
// rankings keep the top-m regardless).
func TopByScore[T int64 | int32 | float64](score []T, m int, exclude map[int]bool) []int {
	if m <= 0 {
		return nil
	}
	best := topk.NewBest(min(m, len(score)), func(a, b int) int {
		if c := cmp.Compare(score[b], score[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for v := range score {
		if best.Admits(v) && !exclude[v] {
			best.Offer(v)
		}
	}
	return best.Sorted()
}
