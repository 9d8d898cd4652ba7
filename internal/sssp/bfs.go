// Package sssp implements the single-source shortest-path engines the paper
// treats as its unit of computational cost: breadth-first search for
// unweighted snapshots, Dijkstra's algorithm for weighted ones, and a
// parallel all-sources driver used to compute exact ground truth.
//
// Distances are int32; Unreachable marks node pairs in different connected
// components. Engines reuse caller-provided buffers so that tight loops
// (candidate generation, all-pairs sweeps) do not allocate per source.
//
// Two BFS kernels back the unweighted entry points, chosen by call shape
// alone: single-source calls and sweeps whose worker shares are small run a
// Beamer-style direction-optimizing BFS, and a share of msShareThreshold or
// more sources runs a bit-parallel multi-source batch kernel of up to 64
// lanes. Both produce bit-identical distances. LowerNearest, the MaxMin
// chain's step, is a third traversal that produces no row.
package sssp

import (
	"fmt"
	"time"

	"repro/internal/graph"
)

// Unreachable is the distance reported for nodes with no path from the
// source. It is negative so that max-style comparisons ignore it naturally.
const Unreachable int32 = -1

// BFS computes unweighted shortest-path distances from src into dist, which
// must have length g.NumNodes(). Unreached nodes get Unreachable. It returns
// the number of reached nodes (including src) and the eccentricity of src
// within its component. Use BFSWith to thread a per-worker Scratch.
func BFS(g *graph.Graph, src int, dist []int32) (reached int, ecc int32) {
	return BFSWith(g, src, dist, nil)
}

// BFSWith is BFS with explicit scratch space. A nil scratch borrows one
// from an internal pool; parallel drivers pass one per worker so the whole
// sweep allocates nothing per source. It always runs the
// direction-optimizing kernel.
//
//convlint:hotpath
func BFSWith(g *graph.Graph, src int, dist []int32, s *Scratch) (reached int, ecc int32) {
	//convlint:nondet sweep latency is observational, not part of results
	start := time.Now()
	n := g.NumNodes()
	if len(dist) != n {
		panic(fmt.Sprintf("sssp: dist buffer length %d, graph has %d nodes", len(dist), n))
	}
	if src < 0 || src >= n {
		panic(fmt.Sprintf("sssp: source %d out of range [0,%d)", src, n))
	}
	if s == nil {
		s = getScratch()
		defer putScratch(s)
	}
	s.ensure(n)
	for i := range dist {
		dist[i] = Unreachable
	}
	ecc, work := dirOptBFS(g, src, dist, s, nil)
	work.flush(kDirOpt, start)
	return int(work.nodes), ecc
}

// Distances is a convenience wrapper around BFS that allocates the buffer.
func Distances(g *graph.Graph, src int) []int32 {
	dist := make([]int32, g.NumNodes())
	BFS(g, src, dist)
	return dist
}

// Path returns one shortest path from src to dst as a node sequence
// (inclusive), or nil if dst is unreachable. It runs a parent-tracking BFS;
// among equal-length paths the one through lowest-ID parents is returned,
// making the result deterministic.
func Path(g *graph.Graph, src, dst int) []int {
	n := g.NumNodes()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		panic(fmt.Sprintf("sssp: path endpoints (%d, %d) out of range [0,%d)", src, dst, n))
	}
	if src == dst {
		return []int{src}
	}
	offsets, neighbors := g.CSR()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = int32(src)
	s := getScratch()
	defer putScratch(s)
	s.ensure(n)
	q := s.queue[:0]
	q = append(q, int32(src))
	defer func() { s.queue = q[:0] }()
	for head := 0; head < len(q); head++ {
		u := q[head]
		for _, v := range neighbors[offsets[u]:offsets[u+1]] {
			if parent[v] >= 0 {
				continue
			}
			parent[v] = u
			if int(v) == dst {
				// Reconstruct by walking parents back to src.
				var rev []int
				for x := int32(dst); x != int32(src); x = parent[x] {
					rev = append(rev, int(x))
				}
				rev = append(rev, src)
				for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
					rev[i], rev[j] = rev[j], rev[i]
				}
				return rev
			}
			q = append(q, v)
		}
	}
	return nil
}
