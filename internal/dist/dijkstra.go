package dist

import (
	"repro/internal/graph"
	"repro/internal/sssp"
)

// Dijkstra is the weighted distance source: shortest travel times on a
// graph.Weighted via sssp's lazy-deletion heap Dijkstra. Distances are
// int32 weight sums, directly comparable to BFS hop counts in the shared
// pipeline (both use Unreachable for disconnected pairs).
type Dijkstra struct {
	g *graph.Weighted
}

// NewDijkstra wraps g as a weighted distance source.
func NewDijkstra(g *graph.Weighted) *Dijkstra { return &Dijkstra{g: g} }

// DijkstraPair wraps a weighted snapshot pair as a dist.Pair. The caller
// validates domination (weighted.SnapshotPair.Validate).
func DijkstraPair(g1, g2 *graph.Weighted) Pair {
	return Pair{S1: NewDijkstra(g1), S2: NewDijkstra(g2)}
}

// NumNodes returns the node-universe size.
func (s *Dijkstra) NumNodes() int { return s.g.NumNodes() }

// NumEdges returns the undirected edge count.
func (s *Dijkstra) NumEdges() int { return s.g.NumEdges() }

// Degree returns the neighbor count of u.
func (s *Dijkstra) Degree(u int) int { return s.g.Degree(u) }

// NeighborIDs returns u's adjacency without weights; aliases internal
// storage.
func (s *Dijkstra) NeighborIDs(u int) []int32 { return s.g.NeighborIDs(u) }

// Graph returns the underlying weighted graph.
func (s *Dijkstra) Graph() *graph.Weighted { return s.g }

// DistancesInto runs one Dijkstra from src, borrowing pooled scratch.
func (s *Dijkstra) DistancesInto(src int, dst []int32) {
	sssp.Dijkstra(s.g, src, dst)
}

// WeightedGraph unwraps a Source to its underlying *graph.Weighted when it
// is Dijkstra-backed.
func WeightedGraph(s Source) (*graph.Weighted, bool) {
	if d, ok := s.(*Dijkstra); ok {
		return d.g, true
	}
	return nil, false
}
