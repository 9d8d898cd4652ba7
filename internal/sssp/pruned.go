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
// maxD1 − (L+1), where maxD1 is the largest d1 of the row. Once that
// ceiling drops strictly below the current Δ threshold, no undiscovered
// node can enter the answer and the traversal stops: the cut is a depth
// limit of maxD1 − max(1, T) levels. Abandoned nodes stay Unreachable; a
// reader that skips d2 < 0 beside d1 <= 0 under a floor of at least the
// cut's max(1, T) emits exactly the pairs a full traversal would. The
// argument needs only that levels complete one at a time, so the traversal
// is dirOptBFS's level loop, and levels may run bottom-up.
//
// The d2 row a cut run produces is only valid for delta extraction against
// this d1 — it must never be cached or served as a real distance row
// (core.extractPairs never writes rows back, which is what makes bounded
// calls safe to use there).

// PrunedSecondBFS fills d2 with second-snapshot distances from src,
// stopping as soon as the Δ-threshold returned by bound proves no
// undiscovered node can reach it. d1 must be the full first-snapshot
// row from the same src, and g2 must be a supergraph of the first snapshot
// (the growing-snapshot contract of dist.Pair) — both are what make the cut
// sound. bound is sampled once per level; values below 1 are clamped to 1
// (the extraction floor: delta 0 pairs are never emitted). A nil s borrows
// a pooled Scratch, as BFSWith does. Returns true if the traversal was cut
// short.
//
// On a cut, every node the call did not discover stays Unreachable, and
// each such node with d1 > 0 has Δ below max(1, T) for the T the cut read.
// The row is then NOT a true distance row — see the package comment above.
// An uncut row is the true row.
//
//convlint:hotpath
func PrunedSecondBFS(g2 *graph.Graph, src int, d1, d2 []int32, bound func() int32, s *Scratch) bool {
	//convlint:nondet sweep latency is observational, not part of results
	start := time.Now()
	n := g2.NumNodes()
	if s == nil {
		s = getScratch()
		defer putScratch(s)
	}
	s.ensure(n)

	// Only d1 > 0 nodes matter: the extraction emit loop skips d1 <= 0, so
	// they are the only nodes whose d2 can influence the output. A row with
	// none keeps maxD1 = 0 and cuts before the first level.
	maxD1 := int32(0)
	for v, d := range d1[:n] {
		d2[v] = Unreachable
		maxD1 = max(maxD1, d)
	}
	var cut levelCut
	cut.maxD1, cut.bound = maxD1, bound

	_, work := dirOptBFS(g2, src, d2, s, &cut)
	if cut.fired {
		prunedCutoffs.Add(1)
	}
	work.flush(kPrunedBFS, start)
	return cut.fired
}
