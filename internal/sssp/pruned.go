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
// keeps the emitted pair set bit-identical to a full traversal. The
// argument needs only that levels complete one at a time, so the traversal
// is dirOptBFS's level loop, and levels may run bottom-up.
//
// The d2 row a cut run produces is only valid for delta extraction against
// this d1 — it must never be cached or served as a real distance row
// (core.extractPairs never writes rows back, which is what makes bounded
// calls safe to use there).

// PrunedSecondBFS fills d2 with second-snapshot distances from src,
// stopping as soon as the Δ-threshold returned by bound proves no
// undiscovered node can reach the top-k. d1 must be the full first-snapshot
// row from the same src, and g2 must be a supergraph of the first snapshot
// (the growing-snapshot contract of dist.Pair) — both are what make the cut
// sound. bound is sampled once per level; values below 1 are clamped to 1
// (the extraction floor: delta 0 pairs are never emitted). s must not be
// nil. Returns true if the traversal was cut short.
//
// On a cut, nodes with d1 > 0 that were not yet discovered get d2 = d1;
// everything else undiscovered stays Unreachable. The row is then NOT a
// true distance row — see the package comment above.
//
//convlint:hotpath
func PrunedSecondBFS(g2 *graph.Graph, src int, d1, d2 []int32, bound func() int32, s *Scratch) bool {
	//convlint:nondet sweep latency is observational, not part of results
	start := time.Now()
	n := g2.NumNodes()
	s.ensureCut(n)

	// Only d1 > 0 nodes are tracked: the extraction emit loop skips
	// d1 <= 0, so they are the only nodes whose d2 can influence the output.
	var cut levelCut
	cut.d1, cut.cnt, cut.maxRem, cut.bound = d1, s.cnt[:n+1], -1, bound
	clear(cut.cnt)
	for v := 0; v < n; v++ {
		d2[v] = Unreachable
		if d := d1[v]; d > 0 {
			cut.cnt[d]++
			cut.maxRem = max(cut.maxRem, d)
		}
	}

	level, work := dirOptBFS(g2, src, d2, s, &cut)

	// On a cut, settle the abandoned nodes and count exactly what the full
	// traversal would still have done for them. d1 > 0 implies reachable in
	// the supergraph g2, so their node visits and adjacency scans are an
	// exact lower bound on the avoided work.
	if cut.fired {
		var skippedNodes, skippedEdges int64
		for v := 0; v < n; v++ {
			if d2[v] == Unreachable && d1[v] > 0 {
				d2[v] = d1[v]
				skippedNodes++
				skippedEdges += int64(g2.Degree(v))
			}
		}
		recordCut(skippedNodes, skippedEdges, max(0, int64(cut.maxRem)-int64(level)))
	}
	work.flush(kPrunedBFS, start)
	return cut.fired
}
