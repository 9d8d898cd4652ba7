// Package graph provides the undirected-graph substrate used throughout the
// convergence library: an immutable compressed-sparse-row (CSR) snapshot
// representation, a mutable builder, and an evolving-graph abstraction that
// turns a timestamped edge stream into snapshots at arbitrary points of the
// stream (the paper's G_t1 / G_t2 instances).
//
// Node identifiers are dense integers in [0, NumNodes). Snapshots taken from
// the same Evolving stream share one node universe, so distances between the
// same pair of IDs are directly comparable across snapshots — exactly what the
// converging-pairs problem requires.
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/invariant"
)

// Edge is an undirected edge between two nodes. U < V is not required on
// input; the builder normalizes orientation internally.
type Edge struct {
	U, V int
}

// Canon returns the edge with endpoints ordered so that U <= V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Graph is an immutable undirected graph in CSR form. The zero value is an
// empty graph. Build one with a Builder or FromEdges.
type Graph struct {
	offsets   []int32 // len NumNodes+1
	neighbors []int32 // len 2*NumEdges
	numEdges  int
}

// ErrNodeRange reports a node identifier outside [0, NumNodes), or, where
// the universe grows with the input, outside [0, math.MaxInt32].
var ErrNodeRange = errors.New("graph: node out of range")

// validNode reports whether u can be a node ID: the CSR stores IDs as
// int32, so anything above math.MaxInt32 would wrap.
func validNode(u int) bool { return u >= 0 && u <= math.MaxInt32 }

// NumNodes returns the size of the node universe, including isolated nodes.
func (g *Graph) NumNodes() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// Degree returns the number of neighbors of node u.
func (g *Graph) Degree(u int) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors returns the adjacency slice of node u, sorted ascending. The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) Neighbors(u int) []int32 {
	return g.neighbors[g.offsets[u]:g.offsets[u+1]]
}

// NeighborIDs is Neighbors under the AdjacencyLister interface name, so the
// unweighted graph plugs into the generic component analysis directly.
func (g *Graph) NeighborIDs(u int) []int32 { return g.Neighbors(u) }

// CSR exposes the raw compressed-sparse-row arrays: offsets has length
// NumNodes()+1 and neighbors holds the concatenated sorted adjacency lists
// (node u's neighbors are neighbors[offsets[u]:offsets[u+1]]). Both slices
// alias internal storage and must not be modified. Flat array access lets
// traversal kernels (internal/sssp) avoid a bounds-checked method call per
// node.
func (g *Graph) CSR() (offsets, neighbors []int32) {
	if invariant.Enabled {
		g.checkCSR()
	}
	return g.offsets, g.neighbors
}

// checkCSR asserts the structural invariants every traversal kernel relies
// on: well-formed offsets, neighbor storage matching the symmetric edge
// count, and sorted adjacency lists. Compiled in only under
// -tags invariants (it is O(V+E) per call).
func (g *Graph) checkCSR() {
	n := g.NumNodes()
	if n == 0 {
		invariant.Checkf(len(g.neighbors) == 0 && g.numEdges == 0,
			"empty graph carries %d neighbor entries, %d edges", len(g.neighbors), g.numEdges)
		return
	}
	invariant.Checkf(len(g.offsets) == n+1, "offsets length %d, want NumNodes+1 = %d", len(g.offsets), n+1)
	invariant.Checkf(g.offsets[0] == 0, "offsets[0] = %d, want 0", g.offsets[0])
	for u := 0; u < n; u++ {
		invariant.Checkf(g.offsets[u] <= g.offsets[u+1],
			"offsets decrease at node %d: %d > %d", u, g.offsets[u], g.offsets[u+1])
		adj := g.neighbors[g.offsets[u]:g.offsets[u+1]]
		for i, v := range adj {
			invariant.Checkf(0 <= v && int(v) < n, "node %d has out-of-range neighbor %d", u, v)
			if i > 0 {
				invariant.Checkf(adj[i-1] < v,
					"adjacency of node %d not strictly sorted at index %d (%d, %d)", u, i, adj[i-1], v)
			}
		}
	}
	invariant.Checkf(int(g.offsets[n]) == len(g.neighbors),
		"offsets[n] = %d, but %d neighbor entries", g.offsets[n], len(g.neighbors))
	invariant.Checkf(len(g.neighbors) == 2*g.numEdges,
		"%d neighbor entries for %d undirected edges (want symmetric 2E)", len(g.neighbors), g.numEdges)
}

// HasEdge reports whether the undirected edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.NumNodes() || v >= g.NumNodes() {
		return false
	}
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= int32(v) })
	return i < len(adj) && adj[i] == int32(v)
}

// Edges returns all undirected edges with U <= V, in ascending order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.numEdges)
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if int32(u) <= v {
				out = append(out, Edge{u, int(v)})
			}
		}
	}
	return out
}

// Density returns the edge density 2E / (N(N-1)), or 0 for graphs with fewer
// than two nodes.
func (g *Graph) Density() float64 {
	n := g.NumNodes()
	if n < 2 {
		return 0
	}
	return 2 * float64(g.numEdges) / (float64(n) * float64(n-1))
}

// MaxDegree returns the largest node degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for u := 0; u < g.NumNodes(); u++ {
		if d := g.Degree(u); d > max {
			max = d
		}
	}
	return max
}

// IsSupergraphOf reports whether g contains every edge of h and h's node
// universe fits inside g's. The converging-pairs problem requires
// G_t2 ⊇ G_t1; Validate uses this to reject malformed snapshot pairs.
func (g *Graph) IsSupergraphOf(h *Graph) bool {
	if h.NumNodes() > g.NumNodes() {
		return false
	}
	for u := 0; u < h.NumNodes(); u++ {
		gAdj := g.Neighbors(u)
		for _, v := range h.Neighbors(u) {
			i := sort.Search(len(gAdj), func(i int) bool { return gAdj[i] >= v })
			if i == len(gAdj) || gAdj[i] != v {
				return false
			}
		}
	}
	return true
}

// Builder accumulates undirected edges and produces an immutable Graph.
// Duplicate edges and self-loops are silently dropped.
type Builder struct {
	n     int
	edges map[Edge]struct{}
}

// NewBuilder creates a Builder for a node universe of size n. AddEdge may
// grow the universe beyond n. The edge map is pre-sized for roughly 2n
// edges, the density regime of the paper's snapshots, so typical builds do
// not rehash.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, edges: make(map[Edge]struct{}, 2*n)}
}

// AddEdge records the undirected edge {u, v}. Self-loops and duplicates are
// ignored. Node IDs outside [0, math.MaxInt32] cause an ErrNodeRange error.
func (b *Builder) AddEdge(u, v int) error {
	if !validNode(u) || !validNode(v) {
		return fmt.Errorf("%w: (%d, %d)", ErrNodeRange, u, v)
	}
	if u == v {
		return nil
	}
	if u >= b.n {
		b.n = u + 1
	}
	if v >= b.n {
		b.n = v + 1
	}
	b.edges[Edge{u, v}.Canon()] = struct{}{}
	return nil
}

// NumEdges returns the number of distinct edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build produces the immutable CSR graph. The Builder may be reused
// afterwards; subsequent AddEdge calls do not affect the built Graph.
func (b *Builder) Build() *Graph {
	deg := make([]int32, b.n)
	for e := range b.edges {
		deg[e.U]++
		deg[e.V]++
	}
	offsets := make([]int32, b.n+1)
	for i, d := range deg {
		offsets[i+1] = offsets[i] + d
	}
	neighbors := make([]int32, offsets[b.n])
	cursor := make([]int32, b.n)
	copy(cursor, offsets[:b.n])
	for e := range b.edges {
		neighbors[cursor[e.U]] = int32(e.V)
		cursor[e.U]++
		neighbors[cursor[e.V]] = int32(e.U)
		cursor[e.V]++
	}
	g := &Graph{offsets: offsets, neighbors: neighbors, numEdges: len(b.edges)}
	for u := 0; u < b.n; u++ {
		slices.Sort(neighbors[offsets[u]:offsets[u+1]])
	}
	return g
}

// FromEdges builds a graph over n nodes from an edge list. It is a
// convenience wrapper around Builder for tests and examples.
func FromEdges(n int, edges []Edge) *Graph {
	b := &Builder{n: n, edges: make(map[Edge]struct{}, len(edges))}
	for _, e := range edges {
		// AddEdge only fails on out-of-range IDs; FromEdges treats that as
		// a programming error in the caller.
		if err := b.AddEdge(e.U, e.V); err != nil {
			panic(err)
		}
	}
	return b.Build()
}
