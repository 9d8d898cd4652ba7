package dist

import (
	"repro/internal/graph"
	"repro/internal/sssp"
)

// BFS is the unweighted distance source: hop distances on a graph.Graph via
// the sssp BFS kernels. The zero engine (sssp.Auto) picks the fastest kernel
// per call; ablations pin one.
type BFS struct {
	g      *graph.Graph
	engine sssp.Engine
}

// NewBFS wraps g as a distance source computing distances with the given
// BFS kernel (sssp.Auto for automatic selection).
func NewBFS(g *graph.Graph, engine sssp.Engine) *BFS {
	return &BFS{g: g, engine: engine}
}

// NewBFSPar is NewBFS for callers written against the former
// intra-traversal parallelism knob. par is ignored: every traversal is
// serial, and sweeps parallelize across sources instead.
func NewBFSPar(g *graph.Graph, engine sssp.Engine, par int) *BFS {
	return NewBFS(g, engine)
}

// BatcherOptions and NewBatcher remain only for callers written against the
// deleted cross-request Batcher; NewBatcher returns src unchanged.
type BatcherOptions struct{}

// NewBatcher returns src unchanged; see BatcherOptions.
func NewBatcher(src Source, _ BatcherOptions) Source { return src }

// BFSPair wraps an unweighted snapshot pair as a dist.Pair sharing one
// engine choice. The caller validates the pair (supergraph invariant).
func BFSPair(pair graph.SnapshotPair, engine sssp.Engine) Pair {
	return Pair{S1: NewBFS(pair.G1, engine), S2: NewBFS(pair.G2, engine)}
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

// Engine returns the configured BFS kernel.
func (s *BFS) Engine() sssp.Engine { return s.engine }

// DistancesInto runs one BFS from src, borrowing pooled scratch.
func (s *BFS) DistancesInto(src int, dst []int32) {
	sssp.BFSWith(s.g, src, dst, s.engine, nil)
}

// NewSession returns a handle owning a private sssp.Scratch.
func (s *BFS) NewSession() Session {
	return &bfsSession{src: s, scratch: sssp.NewScratch(s.g.NumNodes())}
}

// bfsSession reuses one scratch across queries from a single goroutine.
type bfsSession struct {
	src     *BFS
	scratch *sssp.Scratch
}

func (s *bfsSession) DistancesInto(src int, dst []int32) {
	sssp.BFSWith(s.src.g, src, dst, s.src.engine, s.scratch)
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
