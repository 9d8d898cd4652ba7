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
// (Sweep, PairedSweep, DistanceMatrix) route BFS sources to sssp's
// multi-source drivers, and run everything else on a worker pool that
// calls DistancesInto per source.
//
// The package declares one interface, Source. The two-snapshot rows of
// extraction come from the concrete PairedEngine. Traversal scratch belongs
// to sssp, whose kernels borrow it from their pools, so nothing here holds
// traversal state and callers own only their distance rows. BFS-only fast
// paths are found by asserting *BFS.
package dist

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"

	"repro/internal/graph"
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
	workerPool(sources, workers, func() func(src int) {
		dst := make([]int32, n)
		return func(src int) {
			s.DistancesInto(src, dst)
			fn(src, dst)
		}
	})
}

// workerPool feeds sources to at most workers goroutines. Each worker
// builds its own visit function (its row buffers) once, then calls it per
// source.
func workerPool(sources []int, workers int, newVisit func() func(src int)) {
	workers = sssp.ClampWorkers(workers, len(sources))
	var wg sync.WaitGroup
	next := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go pprof.Do(context.Background(), pprof.Labels("subsystem", "dist-sweep"),
			func(context.Context) {
				defer wg.Done()
				visit := newVisit()
				for i := range next {
					visit(sources[i])
				}
			})
	}
	for i := range sources {
		next <- i
	}
	close(next)
	wg.Wait()
}

// DistanceMatrix computes the full rows-by-n distance matrix from the given
// sources (row i = distances from sources[i]). Intended for candidate and
// landmark sets (small m), not all-pairs sweeps. Costs one budget unit per
// distinct source.
func DistanceMatrix(s Source, sources []int, workers int) [][]int32 {
	rows := make([][]int32, len(sources))
	// Sweep each distinct source once: sweeping duplicates would have two
	// workers store into the same slot concurrently.
	index := make(map[int]int, len(sources))
	unique := make([]int, 0, len(sources))
	for i, src := range sources {
		if _, ok := index[src]; !ok {
			index[src] = i
			unique = append(unique, src)
		}
	}
	Sweep(s, unique, workers, func(src int, dst []int32) {
		row := make([]int32, len(dst))
		copy(row, dst)
		rows[index[src]] = row
	})
	// Duplicate sources all map to one computed row; alias it to the rest.
	for i, src := range sources {
		if rows[i] == nil {
			rows[i] = rows[index[src]]
		}
	}
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
	workerPool(sources, workers, func() func(src int) {
		d1, d2 := make([]int32, n), make([]int32, n)
		return func(src int) {
			p.S1.DistancesInto(src, d1)
			p.S2.DistancesInto(src, d2)
			fn(src, d1, d2)
		}
	})
}

// LargestComponent returns the nodes of s's largest connected component,
// sorted ascending, with the total component count. Component analysis is
// structural (free in the paper's cost model), shared across metrics via
// graph.LargestComponentOf.
func LargestComponent(s Source) (nodes []int, components int) {
	return graph.LargestComponentOf(s)
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
