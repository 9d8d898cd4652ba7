package dist

import (
	"context"
	"sync"

	"repro/internal/dynsssp"
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

// SweepCtx drives the batched multi-source kernels (bit-parallel BFS when
// the engine resolution picks it), amortizing traversals across sources;
// once ctx is done no further source or batch starts.
func (s *BFS) SweepCtx(ctx context.Context, sources []int, workers int, fn func(src int, dst []int32)) error {
	return sssp.AllSourcesEngineCtxFunc(ctx, s.g, sources, workers, s.engine, fn)
}

// pairedSweep implements the paired fast path when both snapshots are
// BFS-backed with the same engine, reusing one traversal state for the
// (G_t1, G_t2) row pair per source.
func (s *BFS) pairedSweep(ctx context.Context, other Source, sources []int, workers int, fn func(src int, d1, d2 []int32)) (bool, error) {
	o, ok := other.(*BFS)
	if !ok || o.engine != s.engine {
		return false, nil
	}
	return true, sssp.PairedSourcesEngineCtxFunc(ctx, s.g, o.g, sources, workers, s.engine, fn)
}

// bfsSession reuses one scratch across queries from a single goroutine.
type bfsSession struct {
	src     *BFS
	scratch *sssp.Scratch
}

func (s *bfsSession) DistancesInto(src int, dst []int32) {
	sssp.BFSWith(s.src.g, src, dst, s.src.engine, s.scratch)
}

// newIncrementalPairedEngine implements the incrementalPairable capability:
// when both sides are BFS-backed over the same node universe, the engine
// computes each source's t1 row with the regular kernels and repairs a copy
// of it into the t2 row with dynsssp's batch decrease-only wave over the
// edge delta G2 \ G1 — computed once here and shared read-only by every
// session. S1's engine drives the t1 traversal; S2's engine is irrelevant
// because G2 is never fully traversed.
func (s *BFS) newIncrementalPairedEngine(other Source) (PairedEngine, bool) {
	o, ok := other.(*BFS)
	if !ok || o.g.NumNodes() != s.g.NumNodes() {
		return nil, false
	}
	return &incrPairedEngine{
		g1:     s.g,
		g2:     o.g,
		engine: s.engine,
		delta:  graph.NewDelta(s.g, o.g),
	}, true
}

// incrPairedEngine is the BFS-backed incremental paired engine. Immutable
// after construction; sessions and the batched sweep share it concurrently.
type incrPairedEngine struct {
	g1, g2 *graph.Graph
	engine sssp.Engine
	delta  *graph.Delta
}

func (e *incrPairedEngine) Mode() PairedMode { return PairedIncremental }

func (e *incrPairedEngine) NewSession() PairedSession {
	return &incrPairedSession{
		e:       e,
		scratch: sssp.NewScratch(e.g1.NumNodes()),
		repair:  dynsssp.NewScratch(),
	}
}

// incrPairedSession owns the per-worker traversal and repair scratch.
type incrPairedSession struct {
	e       *incrPairedEngine
	scratch *sssp.Scratch
	repair  *dynsssp.Scratch
}

func (s *incrPairedSession) DistancesPairInto(src int, d1, d2 []int32) {
	sssp.BFSWith(s.e.g1, src, d1, s.e.engine, s.scratch)
	s.DeriveInto(src, d1, d2)
}

// DeriveInto copies the t1 row and repairs the copy over the delta; the
// result is bit-identical to a fresh BFS on G2 (pinned by differential fuzz
// tests in dynsssp and dist).
func (s *incrPairedSession) DeriveInto(src int, d1, d2 []int32) {
	copy(d2, d1)
	s.repair.ApplyAll(s.e.g2, s.e.delta.Edges, d2)
}

// incrSweepState is the pooled per-callback state of the batched incremental
// sweep: the derived-row buffer and a repair scratch.
type incrSweepState struct {
	d2     []int32
	repair *dynsssp.Scratch
}

// sweep implements incrementalSweeper: the t1 side runs through the batched
// multi-source kernels (bit-parallel BFS when the engine resolution picks
// it), and each emitted row is repaired into its t2 counterpart in the
// worker that produced it.
func (e *incrPairedEngine) sweep(ctx context.Context, sources []int, workers int, fn func(src int, d1, d2 []int32)) error {
	n := e.g1.NumNodes()
	var pool sync.Pool
	return sssp.AllSourcesEngineCtxFunc(ctx, e.g1, sources, workers, e.engine, func(src int, d1 []int32) {
		st, _ := pool.Get().(*incrSweepState)
		if st == nil {
			st = &incrSweepState{d2: make([]int32, n), repair: dynsssp.NewScratch()}
		}
		copy(st.d2, d1)
		st.repair.ApplyAll(e.g2, e.delta.Edges, st.d2)
		fn(src, d1, st.d2)
		pool.Put(st)
	})
}

// UnweightedGraph unwraps a Source to its underlying *graph.Graph when it is
// BFS-backed, looking through wrappers (e.g. the cross-request Batcher) that
// expose Unwrap. Structural selectors (betweenness, embedding, incidence)
// use this to detect — and cleanly reject — metrics they do not generalize to.
func UnweightedGraph(s Source) (*graph.Graph, bool) {
	for {
		if b, ok := s.(*BFS); ok {
			return b.g, true
		}
		u, ok := s.(interface{ Unwrap() Source })
		if !ok {
			return nil, false
		}
		s = u.Unwrap()
	}
}
