package sssp

import (
	"time"

	"repro/internal/graph"
)

// Δ-threshold bounded second-snapshot BFS (top-k closeness style early
// termination, after Borassi et al. / Bergamini et al., PAPERS.md).
//
// Pruned extraction computes the first-snapshot row d1 in full, then runs
// this kernel for the second snapshot. Because the snapshots grow (G_t1 ⊆
// G_t2), every node still undiscovered when the traversal is about to
// expand level L has true d2 >= L+1, so its delta d1−d2 is at most
// maxRem − (L+1), where maxRem is the largest d1 among undiscovered nodes.
// Once that ceiling drops strictly below the current kth-Δ threshold, no
// undiscovered node can enter the top-k and the traversal stops: abandoned
// nodes get d2 = d1 (delta 0, discarded by the extraction floor), which
// keeps the emitted pair set bit-identical to a full traversal.
//
// The d2 row a cut run produces is only valid for delta extraction against
// this d1 — it must never be cached or served as a real distance row
// (core.extractPairs never writes rows back, which is what makes bounded
// calls safe to use there).

// PrunedScratch holds the bounded kernel's buffers: the frontier queue and
// the histogram of d1 values over still-undiscovered nodes that drives the
// maxRem walk-down. Grow-only, not safe for concurrent use.
type PrunedScratch struct {
	queue []int32
	cnt   []int32 // cnt[d] = undiscovered nodes with d1 == d (d1 > 0 only)
}

// ensure grows the buffers to serve an n-node graph.
func (s *PrunedScratch) ensure(n int) {
	if cap(s.queue) < n {
		s.queue = make([]int32, 0, n)
	}
	if len(s.cnt) < n+1 {
		s.cnt = make([]int32, n+1)
	}
}

// PrunedSecondBFS fills d2 with second-snapshot distances from src,
// stopping as soon as the Δ-threshold returned by bound proves no
// undiscovered node can reach the top-k. d1 must be the full first-snapshot
// row from the same src, and g2 must be a supergraph of the first snapshot
// (the growing-snapshot contract of dist.Pair) — both are what make the cut
// sound. bound is sampled once per level; values below 1 are clamped to 1
// (the extraction floor: delta 0 pairs are never emitted). Returns true if
// the traversal was cut short.
//
// On a cut, nodes with d1 > 0 that were not yet discovered get d2 = d1;
// everything else undiscovered stays Unreachable. The row is then NOT a
// true distance row — see the package comment above.
//
//convlint:hotpath
func PrunedSecondBFS(g2 *graph.Graph, src int, d1, d2 []int32, bound func() int32, ps *PrunedScratch) bool {
	//convlint:nondet sweep latency is observational, not part of results
	start := time.Now()
	n := g2.NumNodes()
	ps.ensure(n)
	offsets, neighbors := g2.CSR()

	// Histogram of d1 over undiscovered nodes; maxRem is its top. Only
	// d1 > 0 nodes are tracked: the extraction emit loop skips d1 <= 0, so
	// they are the only nodes whose d2 can influence the output.
	cnt := ps.cnt[:n+1]
	for i := range cnt {
		cnt[i] = 0
	}
	maxRem := int32(-1)
	for v := 0; v < n; v++ {
		d2[v] = Unreachable
		if v != src && d1[v] > 0 {
			cnt[d1[v]]++
			if d1[v] > maxRem {
				maxRem = d1[v]
			}
		}
	}

	q := ps.queue[:0]
	q = append(q, int32(src))
	d2[src] = 0

	var nodes, edges int64 = 1, 0
	peak := 0
	level := int32(0)
	levelStart, levelEnd := 0, 1
	cut := false
	for levelStart < levelEnd {
		// Cut check before expanding this level: nodes discovered during it
		// get d2 = level+1, so every still-undiscovered node has true
		// d2 >= level+1 and delta <= maxRem − (level+1). Strictly below the
		// threshold means provably outside the top-k.
		b := bound()
		if b < 1 {
			b = 1
		}
		if maxRem-(level+1) < b {
			cut = true
			break
		}
		if levelEnd-levelStart > peak {
			peak = levelEnd - levelStart
		}
		for i := levelStart; i < levelEnd; i++ {
			u := q[i]
			edges += int64(offsets[u+1] - offsets[u])
			for _, v := range neighbors[offsets[u]:offsets[u+1]] {
				if d2[v] == Unreachable {
					d2[v] = level + 1
					nodes++
					if d1[v] > 0 {
						cnt[d1[v]]--
					}
					q = append(q, v)
				}
			}
		}
		for maxRem >= 0 && cnt[maxRem] == 0 {
			maxRem--
		}
		levelStart, levelEnd = levelEnd, len(q)
		level++
	}
	ps.queue = q[:0]

	// On a cut, settle the abandoned nodes and count exactly what the full
	// traversal would still have done for them. d1 > 0 implies reachable in
	// the supergraph g2, so their node visits and adjacency scans are an
	// exact lower bound on the avoided work.
	var skippedNodes, skippedEdges, remLevels int64
	if cut {
		for v := 0; v < n; v++ {
			if d2[v] == Unreachable && d1[v] > 0 {
				d2[v] = d1[v]
				skippedNodes++
				skippedEdges += int64(offsets[v+1] - offsets[v])
			}
		}
		if rem := int64(maxRem) - int64(level); rem > 0 {
			remLevels = rem
		}
	}
	RecordPrunedBFS(nodes, edges, int64(peak), cut, skippedNodes, skippedEdges, remLevels, start)
	return cut
}
