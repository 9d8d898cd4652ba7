// Package embed implements an Orion-style graph embedding: nodes are mapped
// into a low-dimensional Euclidean space so that coordinate distances
// approximate shortest-path distances. The paper names this (its ref [25])
// as future work for landmark selection and distance estimation — "it is
// beyond the scope of this work" — so this package is the library's
// implementation of that extension.
//
// The construction follows Orion's two stages: a small set of anchor
// landmarks is embedded first by fitting their exact pairwise distances
// (spring relaxation), then every other node is placed independently by
// minimizing the squared error to its BFS distances from the anchors. The
// only shortest-path cost is the anchors' BFS rows — the same 2l budget the
// paper's landmark methods pay — after which any pair's distance can be
// estimated in O(dim).
package embed

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/sssp"
)

// Embedding holds Euclidean coordinates for every node of a snapshot.
type Embedding struct {
	// Dim is the embedding dimensionality.
	Dim int
	// Coords[u] is node u's coordinate vector.
	Coords [][]float64
	// Landmarks are the anchor nodes whose BFS rows shaped the space.
	Landmarks []int
	// Reached marks nodes reachable from at least one anchor; estimates
	// involving unreached nodes are meaningless and reported as +Inf.
	Reached []bool
}

// Options tunes the embedding optimization.
type Options struct {
	// Dim is the space dimensionality; 0 means 6 (Orion found 5-7 ideal).
	Dim int
	// AnchorIters bounds the spring iterations of the anchor stage; 0 = 200.
	AnchorIters int
	// NodeIters bounds the per-node placement steps; 0 = 50.
	NodeIters int
	// Workers is accepted for symmetry; placement is cheap enough serially.
	Workers int
}

func (o Options) dim() int {
	if o.Dim <= 0 {
		return 6
	}
	return o.Dim
}

// Embed builds the embedding of g. rows[i] must be the BFS distance vector
// of landmarks[i] on g (the caller usually has them — landmark.Set.D1 or a
// budgeted DistanceMatrix); pass nil to let Embed compute them (unmetered).
//
//convlint:unbudgeted budgeted callers pass pre-charged rows; nil rows is an explicitly unmetered convenience
func Embed(g *graph.Graph, landmarks []int, rows [][]int32, opts Options, rng *rand.Rand) (*Embedding, error) {
	l := len(landmarks)
	if l < 2 {
		return nil, errors.New("embed: need at least 2 landmarks")
	}
	if rng == nil {
		return nil, errors.New("embed: nil rng")
	}
	if rows == nil {
		rows = dist.DistanceMatrix(dist.NewBFS(g), landmarks, opts.Workers)
	}
	if len(rows) != l {
		return nil, fmt.Errorf("embed: %d rows for %d landmarks", len(rows), l)
	}
	n := g.NumNodes()
	dim := opts.dim()
	anchorIters := opts.AnchorIters
	if anchorIters <= 0 {
		anchorIters = 200
	}
	nodeIters := opts.NodeIters
	if nodeIters <= 0 {
		nodeIters = 50
	}

	e := &Embedding{
		Dim:       dim,
		Coords:    make([][]float64, n),
		Landmarks: append([]int(nil), landmarks...),
		Reached:   make([]bool, n),
	}
	backing := make([]float64, n*dim)
	for u := 0; u < n; u++ {
		e.Coords[u] = backing[u*dim : (u+1)*dim : (u+1)*dim]
	}

	// Stage 1: embed the anchors against their exact pairwise distances.
	// rows[i][landmarks[j]] is d(L_i, L_j).
	anchors := make([][]float64, l)
	for i := range anchors {
		anchors[i] = make([]float64, dim)
		for d := range anchors[i] {
			anchors[i][d] = rng.NormFloat64()
		}
	}
	springFit(anchors, func(i, j int) float64 {
		d := rows[i][landmarks[j]]
		if d < 0 {
			return -1 // different components: no constraint
		}
		return float64(d)
	}, anchorIters)

	// Stage 2: place every node against its anchor distances.
	target := make([]float64, l)
	for u := 0; u < n; u++ {
		known := 0
		for i := 0; i < l; i++ {
			d := rows[i][u]
			target[i] = float64(d)
			if d >= 0 {
				known++
			}
		}
		if known == 0 {
			continue // unreachable from every anchor
		}
		e.Reached[u] = true
		// Warm start at the centroid of the nearest anchor, jittered.
		nearest := 0
		for i := 1; i < l; i++ {
			if target[i] >= 0 && (target[nearest] < 0 || target[i] < target[nearest]) {
				nearest = i
			}
		}
		for d := 0; d < dim; d++ {
			e.Coords[u][d] = anchors[nearest][d] + 0.1*rng.NormFloat64()
		}
		placeNode(e.Coords[u], anchors, target, nodeIters)
	}
	// Anchors get their stage-1 coordinates exactly.
	for i, w := range landmarks {
		copy(e.Coords[w], anchors[i])
		e.Reached[w] = true
	}
	return e, nil
}

// springFit relaxes the points so pairwise Euclidean distances approach
// dist(i, j); dist < 0 means unconstrained.
func springFit(pts [][]float64, dist func(i, j int) float64, iters int) {
	l := len(pts)
	dim := len(pts[0])
	step := 0.1
	for it := 0; it < iters; it++ {
		for i := 0; i < l; i++ {
			for j := i + 1; j < l; j++ {
				want := dist(i, j)
				if want < 0 {
					continue
				}
				got := euclid(pts[i], pts[j])
				if got < 1e-9 {
					// Coincident points: push apart along a deterministic axis.
					pts[j][it%dim] += 1e-3
					got = euclid(pts[i], pts[j])
				}
				// Move both endpoints along the connecting line by half the
				// error each (classic spring update).
				coef := step * (want - got) / got / 2
				for d := 0; d < dim; d++ {
					delta := coef * (pts[j][d] - pts[i][d])
					pts[j][d] += delta
					pts[i][d] -= delta
				}
			}
		}
		step *= 0.99
	}
}

// placeNode runs gradient descent on sum_i (||x - a_i|| - t_i)^2 for the
// anchors with t_i >= 0.
func placeNode(x []float64, anchors [][]float64, target []float64, iters int) {
	dim := len(x)
	step := 0.2
	for it := 0; it < iters; it++ {
		for i, a := range anchors {
			want := target[i]
			if want < 0 {
				continue
			}
			got := euclid(x, a)
			if got < 1e-9 {
				x[it%dim] += 1e-3
				got = euclid(x, a)
			}
			// Gradient of (||x-a|| - t)^2 is 2(||x-a||-t)(x-a)/||x-a||;
			// descending it moves x along the ray through a until the
			// distance matches the target.
			coef := step * (want - got) / got
			for d := 0; d < dim; d++ {
				x[d] += coef * (x[d] - a[d])
			}
		}
		step *= 0.97
	}
}

func euclid(a, b []float64) float64 {
	var s float64
	for d := range a {
		diff := a[d] - b[d]
		s += diff * diff
	}
	return math.Sqrt(s)
}

// Estimate returns the embedded distance between u and v, or +Inf when
// either node was unreachable from every anchor.
func (e *Embedding) Estimate(u, v int) float64 {
	if !e.Reached[u] || !e.Reached[v] {
		return math.Inf(1)
	}
	return euclid(e.Coords[u], e.Coords[v])
}

// EstimateToMany fills out[i] with the estimated distance from u to each of
// the given nodes.
func (e *Embedding) EstimateToMany(u int, nodes []int, out []float64) {
	for i, v := range nodes {
		out[i] = e.Estimate(u, v)
	}
}

// MeanAbsoluteError measures the embedding's accuracy against exact BFS
// distances from the given probe sources (a diagnostics helper; it performs
// len(probes) BFS computations).
//
//convlint:unbudgeted accuracy diagnostics outside any budgeted run; probe cost is documented above
func (e *Embedding) MeanAbsoluteError(g *graph.Graph, probes []int) float64 {
	var sum float64
	var count int
	dist := make([]int32, g.NumNodes())
	for _, src := range probes {
		sssp.BFS(g, src, dist)
		for v, d := range dist {
			if d <= 0 || !e.Reached[src] || !e.Reached[v] {
				continue
			}
			sum += math.Abs(e.Estimate(src, v) - float64(d))
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
