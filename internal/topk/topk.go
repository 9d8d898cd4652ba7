// Package topk computes exact ground truth for the converging-pairs problem:
// for a snapshot pair (G_t1, G_t2) it finds every connected pair of G_t1
// whose shortest-path distance decreased the most (Problem 1 of the paper),
// the Δ histogram used to pick tie-free k values (the paper's δ thresholds),
// and the pairs graph G^p_k whose vertex covers define good candidate sets
// (Problem 2).
//
// The computation streams one BFS pair per source through a pruned
// accumulator, so memory stays O(n + kept pairs) instead of O(n²).
package topk

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/sssp"
)

// Pair is a converging pair: a pair of nodes connected in G_t1 together with
// its distances in both snapshots and the decrease Delta = D1 - D2.
// Invariant: U < V.
type Pair struct {
	U, V  int32
	D1    int32
	D2    int32
	Delta int32
}

func (p Pair) String() string {
	return fmt.Sprintf("(%d,%d) d1=%d d2=%d Δ=%d", p.U, p.V, p.D1, p.D2, p.Delta)
}

// Options configures the exact ground-truth computation.
type Options struct {
	// Workers bounds BFS parallelism; <=0 means GOMAXPROCS.
	Workers int
	// Slack keeps all pairs with Delta >= MaxDelta - Slack. The paper
	// evaluates δ ∈ {Δmax, Δmax-1, Δmax-2}, so the default of 2 retains
	// exactly the pairs every experiment needs.
	Slack int32
}

// GroundTruth is the exact result of an all-pairs Δ sweep.
type GroundTruth struct {
	// MaxDelta is Δmax, the largest distance decrease over all connected
	// pairs of G_t1 (0 if no distance decreased).
	MaxDelta int32
	// Pairs holds every pair with Delta >= max(1, MaxDelta-Slack), sorted by
	// Delta descending, then (U, V) ascending.
	Pairs []Pair
	// Slack echoes the option the sweep ran with.
	Slack int32
	// Histogram[d] is the exact number of connected pairs with Delta == d,
	// for every d >= 1 (smaller deltas than the slack window are counted but
	// their pairs are not retained).
	Histogram map[int32]int64
	// Diameter1 and Diameter2 are the exact diameters (largest finite
	// eccentricities) of the two snapshots, free by-products of the sweep.
	Diameter1, Diameter2 int32
}

// Compute runs the exact all-pairs sweep for the snapshot pair. It validates
// the pair first: G_t2 must be a supergraph of G_t1 on the same universe,
// which guarantees Delta >= 0 for every connected pair.
func Compute(pair graph.SnapshotPair, opts Options) (*GroundTruth, error) {
	if err := pair.Validate(); err != nil {
		return nil, err
	}
	return ComputeSources(dist.BFSPair(pair), opts)
}

// ComputeSources runs the exact all-pairs sweep over an arbitrary pair of
// distance sources — the metric-agnostic form shared by the unweighted (BFS)
// and weighted (Dijkstra) ground truths. The caller validates the
// metric-specific domination invariant; here only the shared universe is
// checked.
//
//convlint:unbudgeted exact ground-truth sweep; the paper's 2m budget is defined relative to this quadratic baseline
func ComputeSources(p dist.Pair, opts Options) (*GroundTruth, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.NumNodes()
	s1, s2 := p.S1, p.S2

	// Only sources with at least one edge in G_t1 can participate in a
	// connected pair of G_t1.
	sources := make([]int, 0, n)
	for u := 0; u < n; u++ {
		if s1.Degree(u) > 0 {
			sources = append(sources, u)
		}
	}
	// Nodes isolated in G_t1 but connected in G_t2 cannot start a converging
	// pair, yet they may carry G_t2's diameter: sweep them separately.
	var extra []int
	for u := 0; u < n; u++ {
		if s1.Degree(u) == 0 && s2.Degree(u) > 0 {
			extra = append(extra, u)
		}
	}
	if opts.Slack <= 0 {
		opts.Slack = 2
	}
	workers := sssp.ClampWorkers(opts.Workers, len(sources))

	type shard struct {
		acc        accumulator
		ecc1, ecc2 int32
	}
	// Shards hold per-goroutine partial results. The sweep may interleave
	// sources across goroutines arbitrarily, so shards are handed out
	// through a free list rather than bound to worker indices.
	shards := make([]*shard, workers)
	free := make(chan *shard, workers)
	for w := 0; w < workers; w++ {
		sh := &shard{acc: accumulator{slack: opts.Slack, hist: map[int32]int64{}}}
		shards[w] = sh
		free <- sh
	}
	// The BFS pair routes to sssp's paired multi-source driver (the
	// all-pairs phase's hot path); Dijkstra runs dist's worker pool.
	dist.PairedSweep(p, sources, workers, func(src int, d1, d2 []int32) {
		sh := <-free
		for v := src + 1; v < n; v++ {
			dv1 := d1[v]
			if dv1 <= 0 {
				continue
			}
			delta := dv1 - d2[v]
			if delta <= 0 {
				continue
			}
			sh.acc.add(Pair{U: int32(src), V: int32(v), D1: dv1, D2: d2[v], Delta: delta})
		}
		for v := 0; v < n; v++ {
			if d1[v] > sh.ecc1 {
				sh.ecc1 = d1[v]
			}
			if d2[v] > sh.ecc2 {
				sh.ecc2 = d2[v]
			}
		}
		free <- sh
	})

	merged := accumulator{slack: opts.Slack, hist: map[int32]int64{}}
	var diam1, diam2 int32
	for _, sh := range shards {
		merged.merge(&sh.acc)
		if sh.ecc1 > diam1 {
			diam1 = sh.ecc1
		}
		if sh.ecc2 > diam2 {
			diam2 = sh.ecc2
		}
	}
	var mu sync.Mutex
	dist.Sweep(s2, extra, workers, func(src int, row []int32) {
		var ecc int32
		for _, d := range row {
			if d > ecc {
				ecc = d
			}
		}
		mu.Lock()
		if ecc > diam2 {
			diam2 = ecc //convlint:shared max-fold guarded by mu
		}
		mu.Unlock()
	})

	gt := &GroundTruth{
		MaxDelta:  merged.max,
		Pairs:     merged.pairs,
		Slack:     opts.Slack,
		Histogram: merged.hist,
		Diameter1: diam1,
		Diameter2: diam2,
	}
	SortPairs(gt.Pairs)
	return gt, nil
}

// comparePairs is the canonical order used across the library: Delta
// descending, then (U, V) ascending.
func comparePairs(a, b Pair) int {
	if a.Delta != b.Delta {
		return cmp.Compare(b.Delta, a.Delta)
	}
	if a.U != b.U {
		return cmp.Compare(a.U, b.U)
	}
	return cmp.Compare(a.V, b.V)
}

// SortPairs orders pairs canonically: Delta descending, breaking ties by
// (U, V) ascending.
func SortPairs(pairs []Pair) {
	slices.SortFunc(pairs, comparePairs)
}

// TopPairs returns the first k pairs of the canonical order, sorted: what
// SortPairs followed by a cut to k returns, without sorting the pairs the
// cut drops. When k cuts, the result is a new slice and pairs is left as
// is; otherwise (k <= 0 keeps every pair) pairs is sorted in place and
// returned.
func TopPairs(pairs []Pair, k int) []Pair {
	if k <= 0 || k >= len(pairs) {
		SortPairs(pairs)
		return pairs
	}
	best := NewBest(k, comparePairs)
	for _, p := range pairs {
		best.Offer(p)
	}
	return best.Sorted()
}

// accumulator keeps the running Δ histogram plus all pairs within the slack
// window below the running maximum, pruning as the maximum rises.
type accumulator struct {
	slack int32
	max   int32
	pairs []Pair
	hist  map[int32]int64
}

func (a *accumulator) floor() int32 {
	f := a.max - a.slack
	if f < 1 {
		f = 1
	}
	return f
}

func (a *accumulator) add(p Pair) {
	a.hist[p.Delta]++
	if p.Delta > a.max {
		a.max = p.Delta
		a.prune()
	}
	if p.Delta >= a.floor() {
		a.pairs = append(a.pairs, p)
	}
}

func (a *accumulator) prune() {
	floor := a.floor()
	kept := a.pairs[:0]
	for _, p := range a.pairs {
		if p.Delta >= floor {
			kept = append(kept, p)
		}
	}
	a.pairs = kept
}

func (a *accumulator) merge(b *accumulator) {
	for d, c := range b.hist {
		a.hist[d] += c
	}
	if b.max > a.max {
		a.max = b.max
		a.prune()
	}
	floor := a.floor()
	for _, p := range b.pairs {
		if p.Delta >= floor {
			a.pairs = append(a.pairs, p)
		}
	}
}

// PairsAtLeast returns the retained pairs with Delta >= delta, in canonical
// order. It panics if delta is below the retained window (MaxDelta - Slack),
// because the answer would be incomplete — callers must re-run Compute with
// a larger Slack for deeper thresholds.
func (gt *GroundTruth) PairsAtLeast(delta int32) []Pair {
	if gt.MaxDelta > 0 && delta < gt.MaxDelta-gt.Slack {
		panic(fmt.Sprintf("topk: δ=%d below retained window [%d, %d]; recompute with larger Slack",
			delta, gt.MaxDelta-gt.Slack, gt.MaxDelta))
	}
	// Pairs are sorted by Delta descending: binary search for the cut.
	i := sort.Search(len(gt.Pairs), func(i int) bool { return gt.Pairs[i].Delta < delta })
	return gt.Pairs[:i]
}

// KForDelta returns the number of pairs with Delta >= delta — the paper's way
// of choosing k so the top-k set is unique (no ties straddle the cut).
func (gt *GroundTruth) KForDelta(delta int32) int {
	var k int64
	for d, c := range gt.Histogram {
		if d >= delta {
			k += c
		}
	}
	return int(k)
}

// TopK returns the first k retained pairs in canonical order. It panics if k
// exceeds the retained window, for the same reason as PairsAtLeast.
func (gt *GroundTruth) TopK(k int) []Pair {
	if k <= len(gt.Pairs) {
		return gt.Pairs[:k]
	}
	panic(fmt.Sprintf("topk: k=%d exceeds the %d retained pairs; recompute with larger Slack",
		k, len(gt.Pairs)))
}
