package dist

import (
	"repro/internal/graph"
	"repro/internal/sssp"
)

// BFS is the unweighted distance source: hop distances on a graph.Graph via
// the sssp BFS kernels.
type BFS struct {
	g *graph.Graph
}

// NewBFS wraps g as a BFS distance source.
func NewBFS(g *graph.Graph) *BFS {
	return &BFS{g: g}
}

// NewBFSPar is NewBFS for callers written against the deleted engine and
// intra-traversal parallelism knobs; both arguments are ignored.
func NewBFSPar(g *graph.Graph, _ sssp.Engine, _ int) *BFS {
	return NewBFS(g)
}

// BatcherOptions and NewBatcher remain only for callers written against the
// deleted cross-request Batcher; NewBatcher returns src unchanged.
type BatcherOptions struct{}

// NewBatcher returns src unchanged; see BatcherOptions.
func NewBatcher(src Source, _ BatcherOptions) Source { return src }

// BFSPair wraps an unweighted snapshot pair as a dist.Pair. The caller
// validates the pair (supergraph invariant). The engine arguments are
// ignored; they remain only for callers written against the deleted
// kernel-selection knob.
func BFSPair(pair graph.SnapshotPair, _ ...sssp.Engine) Pair {
	return Pair{S1: NewBFS(pair.G1), S2: NewBFS(pair.G2)}
}

// NumNodes returns the node-universe size.
func (s *BFS) NumNodes() int { return s.g.NumNodes() }

// NumEdges returns the undirected edge count.
func (s *BFS) NumEdges() int { return s.g.NumEdges() }

// Degree returns the neighbor count of u.
func (s *BFS) Degree(u int) int { return s.g.Degree(u) }

// NeighborIDs returns u's adjacency; aliases internal storage.
func (s *BFS) NeighborIDs(u int) []int32 { return s.g.Neighbors(u) }

// Graph returns the underlying unweighted graph, for structural consumers
// (betweenness, embeddings, DOT export) that need more than distances.
func (s *BFS) Graph() *graph.Graph { return s.g }

// DistancesInto runs one BFS from src, borrowing pooled scratch.
func (s *BFS) DistancesInto(src int, dst []int32) {
	sssp.BFSWith(s.g, src, dst, nil)
}

// UnweightedGraph returns the *graph.Graph under a BFS-backed Source.
// Structural selectors (betweenness, embedding, incidence) use it to detect,
// and cleanly reject, metrics they do not generalize to.
func UnweightedGraph(s Source) (*graph.Graph, bool) {
	if b, ok := s.(*BFS); ok {
		return b.g, true
	}
	return nil, false
}
