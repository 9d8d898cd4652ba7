// Package oracle implements a landmark-based approximate distance oracle in
// the style the paper cites for fast shortest-path estimation (Potamias et
// al., "Fast shortest path distance estimation in large networks"): after
// precomputing BFS rows from l landmarks, any pair distance is bounded in
// O(l) by the triangle inequality,
//
//	lower(u,v) = max_i |d(u, L_i) − d(v, L_i)|
//	upper(u,v) = min_i  d(u, L_i) + d(v, L_i)
//
// The paper's introduction argues that even with such oracles the exact
// top-k computation stays quadratic ("regardless of how fast we compute the
// shortest paths ... just outputting the pairs requires time O(n²)"); the
// oracle package makes that argument measurable: an oracle-based
// approximate top-k baseline that is fast per query but still scans pairs,
// compared in the benchmarks against both the exact sweep and the budgeted
// algorithm.
package oracle

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/sssp"
	"repro/internal/topk"
)

// Oracle answers approximate distance queries on one snapshot.
type Oracle struct {
	landmarks []int
	rows      [][]int32 // rows[i][v] = d(L_i, v)
	n         int
}

// New builds an oracle from explicit landmarks; rows may carry precomputed
// BFS vectors (pass nil to compute them here, costing l BFS runs).
func New(g *graph.Graph, landmarks []int, rows [][]int32, workers int) (*Oracle, error) {
	if len(landmarks) == 0 {
		return nil, errors.New("oracle: no landmarks")
	}
	if rows == nil {
		rows = dist.DistanceMatrix(dist.NewBFS(g), landmarks, workers)
	}
	if len(rows) != len(landmarks) {
		return nil, fmt.Errorf("oracle: %d rows for %d landmarks", len(rows), len(landmarks))
	}
	return &Oracle{landmarks: append([]int(nil), landmarks...), rows: rows, n: g.NumNodes()}, nil
}

// Build selects l landmarks with the given strategy and constructs the
// oracle (costing l BFS runs).
func Build(g *graph.Graph, strategy landmark.Strategy, l int, rng *rand.Rand, workers int) (*Oracle, error) {
	set, err := landmark.Select(strategy, g, l, rng, nil)
	if err != nil {
		return nil, err
	}
	return New(g, set.Nodes, set.D1, workers)
}

// NumLandmarks returns the landmark count.
func (o *Oracle) NumLandmarks() int { return len(o.landmarks) }

// Landmarks returns the landmark nodes; the slice must not be modified.
func (o *Oracle) Landmarks() []int { return o.landmarks }

// Bounds returns the triangle-inequality lower and upper bounds on d(u, v).
// If no landmark reaches both nodes, ok is false (different components as
// far as the oracle can tell).
func (o *Oracle) Bounds(u, v int) (lower, upper int32, ok bool) {
	lower, upper = 0, int32(1)<<30
	for _, row := range o.rows {
		du, dv := row[u], row[v]
		if du < 0 || dv < 0 {
			continue
		}
		ok = true
		diff := du - dv
		if diff < 0 {
			diff = -diff
		}
		if diff > lower {
			lower = diff
		}
		if s := du + dv; s < upper {
			upper = s
		}
	}
	return lower, upper, ok
}

// Estimate returns the oracle's point estimate of d(u, v): the upper bound,
// which is exact whenever a shortest path passes near a landmark and is the
// standard landmark estimate. Returns -1 when the pair looks disconnected.
func (o *Oracle) Estimate(u, v int) int32 {
	if u == v {
		return 0
	}
	_, upper, ok := o.Bounds(u, v)
	if !ok {
		return -1
	}
	return upper
}

// MeanBoundsError measures the oracle against exact BFS from the probe
// sources: average slack of the upper bound and of the lower bound.
func (o *Oracle) MeanBoundsError(g *graph.Graph, probes []int) (upperSlack, lowerSlack float64) {
	dist := make([]int32, g.NumNodes())
	var count float64
	for _, src := range probes {
		sssp.BFS(g, src, dist)
		for v, d := range dist {
			if d <= 0 || v == src {
				continue
			}
			lo, hi, ok := o.Bounds(src, v)
			if !ok {
				continue
			}
			upperSlack += float64(hi - d)
			lowerSlack += float64(d - lo)
			count++
		}
	}
	if count == 0 {
		return 0, 0
	}
	return upperSlack / count, lowerSlack / count
}

// PairOracle estimates distance *changes* between two snapshots sharing a
// landmark set: Δ̂(u,v) = est1(u,v) − est2(u,v). It powers the approximate
// top-k baseline.
type PairOracle struct {
	O1, O2 *Oracle
}

// NewPair builds oracles for both snapshots over one landmark set chosen on
// G_t1 (2l BFS runs total).
func NewPair(pair graph.SnapshotPair, strategy landmark.Strategy, l int, rng *rand.Rand, workers int) (*PairOracle, error) {
	if err := pair.Validate(); err != nil {
		return nil, err
	}
	set, err := landmark.Select(strategy, pair.G1, l, rng, nil)
	if err != nil {
		return nil, err
	}
	o1, err := New(pair.G1, set.Nodes, set.D1, workers)
	if err != nil {
		return nil, err
	}
	o2, err := New(pair.G2, set.Nodes, nil, workers)
	if err != nil {
		return nil, err
	}
	return &PairOracle{O1: o1, O2: o2}, nil
}

// DeltaEstimate returns the estimated distance decrease for a pair, clamped
// at 0 (the true Δ is non-negative). Pairs the oracle cannot see as
// connected in G_t1 report 0.
func (p *PairOracle) DeltaEstimate(u, v int) int32 {
	d1 := p.O1.Estimate(u, v)
	if d1 <= 0 {
		return 0
	}
	d2 := p.O2.Estimate(u, v)
	if d2 < 0 {
		return 0
	}
	if d2 > d1 {
		return 0
	}
	return d1 - d2
}

// ApproxTopK scans all (or a sampled fraction of) pairs with the oracle and
// returns the k pairs with the largest estimated Δ. It is the "fast
// approximate shortest paths don't fix the quadratic scan" baseline: each
// query is O(l) but the loop is still O(n²·l/sampleStride).
//
// sampleStride > 1 scans only every stride-th pair per source, trading
// recall for time. Returns estimated (not exact) distances in the pairs.
func (p *PairOracle) ApproxTopK(k int, sampleStride int) []topk.Pair {
	if sampleStride < 1 {
		sampleStride = 1
	}
	n := p.O1.n
	var pairs []topk.Pair
	var floor int32 = 1
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v += sampleStride {
			delta := p.DeltaEstimate(u, v)
			if delta < floor {
				continue
			}
			pairs = append(pairs, topk.Pair{
				U: int32(u), V: int32(v),
				D1: p.O1.Estimate(u, v), D2: p.O2.Estimate(u, v), Delta: delta,
			})
			// Periodically prune to bound memory and raise the floor.
			if len(pairs) > 4*k && k > 0 {
				topk.SortPairs(pairs)
				pairs = pairs[:k]
				if f := pairs[len(pairs)-1].Delta; f > floor {
					floor = f
				}
			}
		}
	}
	topk.SortPairs(pairs)
	if k > 0 && len(pairs) > k {
		pairs = pairs[:k]
	}
	return pairs
}

// Recall measures how many of the true pairs the approximate result
// recovered (by endpoint identity).
func Recall(truth, approx []topk.Pair) float64 {
	if len(truth) == 0 {
		return 1
	}
	set := make(map[[2]int32]bool, len(approx))
	for _, p := range approx {
		set[[2]int32{p.U, p.V}] = true
	}
	hit := 0
	for _, p := range truth {
		if set[[2]int32{p.U, p.V}] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// CandidateNodes converts the approximate top pairs into a candidate
// endpoint list (deduped, sorted) — how an oracle would feed Algorithm 1.
func CandidateNodes(pairs []topk.Pair, m int) []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range pairs {
		for _, u := range [2]int32{p.U, p.V} {
			if !seen[int(u)] {
				seen[int(u)] = true
				out = append(out, int(u))
				if len(out) == m {
					sort.Ints(out)
					return out
				}
			}
		}
	}
	sort.Ints(out)
	return out
}
