// Package dist is the distance-engine abstraction behind the paper's
// Algorithm 1. The algorithm is metric-agnostic — select m endpoints,
// compute their single-source distances on both snapshots, rank the pairwise
// decreases — so everything above the traversal kernels (selectors, budget
// metering, extraction, tracing) is written once against Source and runs
// unchanged on unweighted BFS distances and weighted Dijkstra distances.
//
// A Source is a read-only view of one snapshot that answers single-source
// distance queries; the paper's cost model charges one budget unit per
// DistancesInto call (callers charge their budget.Meter before invoking, a
// discipline convlint's budgetcheck enforces mechanically). Batched helpers
// (Sweep, PairedSweep, RowsInto, DistanceMatrix) route BFS sources to
// sssp's multi-source drivers, and run everything else on a worker pool
// that calls DistancesInto per source.
//
// The package declares one interface, Source. Extraction's t1 rows come
// from RowsInto and its t2 rows from the concrete PairedEngine. Traversal
// scratch belongs to sssp, whose kernels borrow it from their pools, so
// nothing here holds traversal state and callers own only their distance
// rows. BFS-only fast paths are found by asserting *BFS.
package dist

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/sssp"
)

// Unreachable re-exports the distance value marking disconnected pairs, so
// dist callers need not import sssp for the sentinel.
const Unreachable = sssp.Unreachable

// Source is one snapshot under some distance metric. Implementations must be
// safe for concurrent DistancesInto calls with distinct buffers. The two
// implementations are BFS (hop distances) and Dijkstra (weighted).
//
// The structural methods (NumEdges, Degree, NeighborIDs) expose the
// weight-less adjacency every selector heuristic ranks on; NeighborIDs makes
// every Source a graph.AdjacencyLister, so component analysis is shared too.
type Source interface {
	// NumNodes returns the node-universe size.
	NumNodes() int
	// NumEdges returns the undirected edge count.
	NumEdges() int
	// Degree returns the neighbor count of u.
	Degree(u int) int
	// NeighborIDs returns u's adjacency (without weights); the slice aliases
	// internal storage and must not be modified.
	NeighborIDs(u int) []int32
	// DistancesInto fills dst (length NumNodes) with the distances from src,
	// Unreachable for no path. One call costs one unit of the paper's SSSP
	// budget; callers charge their meter before invoking.
	DistancesInto(src int, dst []int32)
}

// Sweep computes the distances from every source in sources, invoking
// fn(src, dst) once per source from at most workers goroutines; dst is only
// valid during the call. BFS sources run sssp's multi-source driver; others
// run the worker pool. The sweep costs len(sources) budget units.
func Sweep(s Source, sources []int, workers int, fn func(src int, dst []int32)) {
	if b, ok := s.(*BFS); ok {
		sssp.AllSourcesFunc(b.g, sources, workers, fn)
		return
	}
	n := s.NumNodes()
	workerPool(len(sources), workers, func() func(i int) {
		dst := make([]int32, n)
		return func(i int) {
			s.DistancesInto(sources[i], dst)
			fn(sources[i], dst)
		}
	})
}

// workerPool feeds the indices [0, count) to at most workers goroutines.
// Each worker builds its own visit function (its row buffers) once, then
// calls it per index.
func workerPool(count, workers int, newVisit func() func(i int)) {
	workers = sssp.ClampWorkers(workers, count)
	var wg sync.WaitGroup
	next := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go pprof.Do(context.Background(), pprof.Labels("subsystem", "dist-sweep"),
			func(context.Context) {
				defer wg.Done()
				visit := newVisit()
				for i := range next {
					visit(i)
				}
			})
	}
	for i := 0; i < count; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// RowsInto fills rows[i] (length NumNodes) with the distances from
// sources[i], from at most workers goroutines. BFS sources go through
// sssp.RowsInto, which picks its kernel per worker share; others run the
// worker pool, calling DistancesInto on each row. It allocates no row, and
// each source's row must be a distinct slice. Costs len(sources) budget
// units.
func RowsInto(s Source, sources []int, rows [][]int32, workers int) {
	if len(rows) != len(sources) {
		panic(fmt.Sprintf("dist: %d rows for %d sources", len(rows), len(sources)))
	}
	if b, ok := s.(*BFS); ok {
		sssp.RowsInto(b.g, sources, rows, workers)
		return
	}
	workerPool(len(sources), workers, func() func(i int) {
		return func(i int) { s.DistancesInto(sources[i], rows[i]) }
	})
}

// DistanceMatrix computes the full rows-by-n distance matrix from the given
// sources (row i = distances from sources[i]). Intended for candidate and
// landmark sets (small m), not all-pairs sweeps. Each distinct source's row
// is allocated once and filled in place by RowsInto; a duplicate source's
// row aliases its first occurrence. Costs one budget unit per distinct
// source.
func DistanceMatrix(s Source, sources []int, workers int) [][]int32 {
	n := s.NumNodes()
	rows := make([][]int32, len(sources))
	first := make(map[int]int, len(sources))
	unique := make([]int, 0, len(sources))
	into := make([][]int32, 0, len(sources))
	for i, src := range sources {
		if j, ok := first[src]; ok {
			rows[i] = rows[j]
			continue
		}
		first[src] = i
		rows[i] = make([]int32, n)
		unique = append(unique, src)
		into = append(into, rows[i])
	}
	RowsInto(s, unique, into, workers)
	return rows
}

// Pair is a snapshot pair under one distance metric — the generic form of
// (G_t1, G_t2) that Algorithm 1 runs on.
type Pair struct {
	S1, S2 Source
}

// Validate checks that both sources exist over the same node universe. The
// metric-specific domination invariant (distances may only decrease) is the
// concrete constructors' responsibility: graph.SnapshotPair.Validate for
// BFS, weighted.SnapshotPair.Validate for Dijkstra.
func (p Pair) Validate() error {
	if p.S1 == nil || p.S2 == nil {
		return errors.New("dist: nil source in pair")
	}
	if n1, n2 := p.S1.NumNodes(), p.S2.NumNodes(); n1 != n2 {
		return fmt.Errorf("dist: node universes differ: %d vs %d", n1, n2)
	}
	return nil
}

// NumNodes returns the shared node-universe size.
func (p Pair) NumNodes() int { return p.S1.NumNodes() }

// CheckGrowing asserts the growing-snapshot contract on src's rows r1 (G_t1)
// and r2 (G_t2): a node src reaches in G_t1 it still reaches in G_t2. Call it
// only under invariant.Enabled.
func CheckGrowing(src int, r1, r2 []int32) {
	for v := range r1 {
		if r1[v] >= 0 && r2[v] < 0 {
			invariant.Checkf(false, "source %d: node %d at %d in G_t1 is unreachable in G_t2", src, v, r1[v])
		}
	}
}

// PairedSweep computes, for every source, its distance rows on both
// snapshots and invokes fn(src, d1, d2); the buffers are only valid during
// the call. BFS pairs route to sssp's paired multi-source driver; anything
// else runs the worker pool. Costs 2·len(sources) budget units.
func PairedSweep(p Pair, sources []int, workers int, fn func(src int, d1, d2 []int32)) {
	b1, ok1 := p.S1.(*BFS)
	b2, ok2 := p.S2.(*BFS)
	if ok1 && ok2 {
		sssp.PairedSourcesFunc(b1.g, b2.g, sources, workers, fn)
		return
	}
	n := p.NumNodes()
	workerPool(len(sources), workers, func() func(i int) {
		d1, d2 := make([]int32, n), make([]int32, n)
		return func(i int) {
			p.S1.DistancesInto(sources[i], d1)
			p.S2.DistancesInto(sources[i], d2)
			fn(sources[i], d1, d2)
		}
	})
}

// LargestComponent returns s's largest connected component as a bitmap
// over its node universe (read-only), with the component's size and the
// total component count. Component analysis is structural (free in the
// paper's cost model). BFS and Dijkstra sources return the memo their
// graph keeps, so a snapshot is labelled once and nothing is expanded;
// any other source is labelled by graph.LargestComponentOf on every call.
func LargestComponent(s Source) (set graph.NodeBits, size, components int) {
	switch s := s.(type) {
	case *BFS:
		return s.g.LargestComponentBits()
	case *Dijkstra:
		return s.g.LargestComponentBits()
	}
	nodes, count := graph.LargestComponentOf(s)
	return graph.NodeBitsOf(s.NumNodes(), nodes), len(nodes), count
}

// Density returns the edge density 2E / (N (N-1)) of a source's snapshot.
func Density(s Source) float64 {
	n := s.NumNodes()
	if n < 2 {
		return 0
	}
	return 2 * float64(s.NumEdges()) / (float64(n) * float64(n-1))
}

// MaxDegree returns the largest degree of a source's snapshot.
func MaxDegree(s Source) int {
	max := 0
	for u := 0; u < s.NumNodes(); u++ {
		if d := s.Degree(u); d > max {
			max = d
		}
	}
	return max
}
