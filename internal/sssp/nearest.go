package sssp

import (
	"fmt"
	"time"

	"repro/internal/graph"
)

// LowerNearest is the step of a greedy MaxMin dispersion chain (Section
// 4.2.2): p is the new pick, and near[v] holds each node's distance to the
// nearest earlier pick. It lowers near to min(near[v], d(p, v)) by a BFS
// from p that sets and expands only nodes with d(p, v) < near[v], so it
// visits p's new Voronoi cell and nothing else; the bound-pruned traversal
// is the one behind top-k closeness (Borassi et al., Bergamini et al.,
// PAPERS.md).
//
// The pruning is exact. If d(p, x) < near[x], let y lie on a shortest p–x
// path and q be the pick nearest to y; then near[x] <= d(q, x) <=
// near[y] + d(y, x), so d(p, y) = d(p, x) − d(y, x) < near[y], and the BFS
// reaches x through y. near must hold, for every node p reaches, its
// distance to the nearest earlier pick (math.MaxInt32 when there is none
// yet); near[p] becomes 0.
//
// The call produces no distance row: it counts one call and no source on
// the kernel's own counters. In the paper's cost model it is the pick's
// SSSP, whose full row a sweep can produce later. A nil s borrows a pooled
// Scratch, as BFSWith does.
//
//convlint:hotpath
func LowerNearest(g *graph.Graph, p int, near []int32, s *Scratch) {
	//convlint:nondet sweep latency is observational, not part of results
	start := time.Now()
	n := g.NumNodes()
	if len(near) != n {
		panic(fmt.Sprintf("sssp: near buffer length %d, graph has %d nodes", len(near), n))
	}
	if p < 0 || p >= n {
		panic(fmt.Sprintf("sssp: pick %d out of range [0,%d)", p, n))
	}
	if s == nil {
		s = getScratch()
		defer putScratch(s)
	}
	s.ensure(n)
	offsets, neighbors := g.CSR()
	// Levels run in order, so a node is set once, at its distance from p:
	// at most n nodes join q, which never outgrows its capacity.
	q := s.queue[:0]
	q = append(q, int32(p))
	near[p] = 0
	var edges int64
	peak := 1
	for lo, hi, next := 0, 1, int32(1); lo < hi; lo, hi, next = hi, len(q), next+1 {
		peak = max(peak, hi-lo)
		for _, u := range q[lo:hi] {
			edges += int64(offsets[u+1] - offsets[u])
			for _, v := range neighbors[offsets[u]:offsets[u+1]] {
				if next < near[v] {
					near[v] = next
					q = append(q, v)
				}
			}
		}
	}
	s.queue = q[:0]
	c := &kernelMetrics[kNearest]
	c.calls.Add(1)
	c.nodes.Add(int64(len(q)))
	c.edges.Add(edges)
	peakMax(&c.frontierPeak, int64(peak))
	observeSweep(kNearest, start, 0, int64(len(q)), edges)
}
