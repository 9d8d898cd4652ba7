package graph

import (
	"errors"
	"fmt"
	"sort"
)

// WeightedEdge is an undirected edge with a non-negative integer weight.
// The paper states the problem for "undirected (weighted) graphs"; the
// evaluation datasets are unweighted, but the library supports weights so
// that traffic-style networks from the paper's introduction work too.
type WeightedEdge struct {
	U, V   int
	Weight int32
}

// Weighted is an immutable undirected graph with per-edge weights, in CSR
// form. Build one with NewWeighted.
type Weighted struct {
	offsets   []int32
	neighbors []int32
	weights   []int32
	numEdges  int
	largest   largestMemo
}

// ErrNegativeWeight reports an edge with a negative weight; shortest-path
// engines in this library require non-negative weights.
var ErrNegativeWeight = errors.New("graph: negative edge weight")

// NewWeighted builds a weighted undirected graph over n nodes. Self-loops are
// dropped; for duplicate edges the smallest weight wins (the shortest-path
// semantics of parallel edges).
func NewWeighted(n int, edges []WeightedEdge) (*Weighted, error) {
	best := make(map[Edge]int32, len(edges))
	for _, e := range edges {
		if e.U < 0 || e.V < 0 {
			return nil, fmt.Errorf("%w: (%d, %d)", ErrNodeRange, e.U, e.V)
		}
		if e.Weight < 0 {
			return nil, fmt.Errorf("%w: (%d, %d) weight %d", ErrNegativeWeight, e.U, e.V, e.Weight)
		}
		if e.U == e.V {
			continue
		}
		if e.U >= n {
			n = e.U + 1
		}
		if e.V >= n {
			n = e.V + 1
		}
		c := Edge{e.U, e.V}.Canon()
		if w, ok := best[c]; !ok || e.Weight < w {
			best[c] = e.Weight
		}
	}
	deg := make([]int32, n)
	for e := range best {
		deg[e.U]++
		deg[e.V]++
	}
	offsets := make([]int32, n+1)
	for i, d := range deg {
		offsets[i+1] = offsets[i] + d
	}
	neighbors := make([]int32, offsets[n])
	weights := make([]int32, offsets[n])
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for e, w := range best {
		neighbors[cursor[e.U]], weights[cursor[e.U]] = int32(e.V), w
		cursor[e.U]++
		neighbors[cursor[e.V]], weights[cursor[e.V]] = int32(e.U), w
		cursor[e.V]++
	}
	wg := &Weighted{offsets: offsets, neighbors: neighbors, weights: weights, numEdges: len(best)}
	for u := 0; u < n; u++ {
		lo, hi := offsets[u], offsets[u+1]
		adj, ws := neighbors[lo:hi], weights[lo:hi]
		sort.Sort(&adjSorter{adj, ws})
	}
	return wg, nil
}

type adjSorter struct {
	adj []int32
	ws  []int32
}

func (s *adjSorter) Len() int           { return len(s.adj) }
func (s *adjSorter) Less(i, j int) bool { return s.adj[i] < s.adj[j] }
func (s *adjSorter) Swap(i, j int) {
	s.adj[i], s.adj[j] = s.adj[j], s.adj[i]
	s.ws[i], s.ws[j] = s.ws[j], s.ws[i]
}

// NumNodes returns the size of the node universe.
func (g *Weighted) NumNodes() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of undirected edges.
func (g *Weighted) NumEdges() int { return g.numEdges }

// Degree returns the number of neighbors of node u.
func (g *Weighted) Degree(u int) int { return int(g.offsets[u+1] - g.offsets[u]) }

// Neighbors returns u's adjacency and the parallel weight slice. Both alias
// internal storage and must not be modified.
func (g *Weighted) Neighbors(u int) (adj, weights []int32) {
	return g.neighbors[g.offsets[u]:g.offsets[u+1]], g.weights[g.offsets[u]:g.offsets[u+1]]
}

// NeighborIDs returns u's adjacency without the weights, satisfying
// AdjacencyLister so component analysis works on weighted graphs too.
func (g *Weighted) NeighborIDs(u int) []int32 {
	return g.neighbors[g.offsets[u]:g.offsets[u+1]]
}

// FromUnweighted lifts an unweighted graph to a Weighted with unit weights;
// shortest paths coincide with BFS distances, which tests exploit.
func FromUnweighted(g *Graph) *Weighted {
	edges := g.Edges()
	wes := make([]WeightedEdge, len(edges))
	for i, e := range edges {
		wes[i] = WeightedEdge{U: e.U, V: e.V, Weight: 1}
	}
	wg, err := NewWeighted(g.NumNodes(), wes)
	if err != nil {
		// Edges from a valid Graph cannot have negative IDs or weights.
		panic(err)
	}
	return wg
}
