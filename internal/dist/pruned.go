package dist

import "repro/internal/sssp"

// PrunedPairSession is the Δ-threshold capability of paired sessions: the
// bounded variants stop second-snapshot traversal once the threshold
// returned by bound proves the remaining nodes cannot produce a top-k pair
// (see sssp.PrunedSecondBFS for the soundness argument). The cost model is
// untouched — a bounded row is charged exactly like a full one (2 units for
// the pair, 1 for a derive); the savings show up only in kernel metrics and
// wall time.
//
// A bounded call returning true produced a d2 row that is only valid for
// delta extraction against the accompanying d1: abandoned nodes hold d2 =
// d1 (delta 0), not their true distance. Such rows must never be cached or
// served as distance rows.
type PrunedPairSession interface {
	PairedSession
	// DistancesPairBoundedInto is DistancesPairInto with a Δ-threshold on
	// the second row. Costs 2 budget units. Returns true if the t2
	// traversal was cut short.
	DistancesPairBoundedInto(src int, d1, d2 []int32, bound func() int32) bool
	// DeriveBoundedInto is DeriveInto with a Δ-threshold. Costs 1 budget
	// unit. Returns true if the t2 work was cut short.
	DeriveBoundedInto(src int, d1, d2 []int32, bound func() int32) bool
}

// AsPruned adapts any PairedSession to the pruned capability: sessions that
// implement it are returned as-is; everything else (Dijkstra-backed pairs,
// future engines) gets a full-computation fallback whose bounded methods
// ignore the threshold and never cut. Extraction can therefore call the
// bounded entry points unconditionally.
func AsPruned(ps PairedSession) PrunedPairSession {
	if p, ok := ps.(PrunedPairSession); ok {
		return p
	}
	return prunedFallback{ps}
}

// prunedFallback satisfies PrunedPairSession by computing full rows.
type prunedFallback struct {
	PairedSession
}

func (f prunedFallback) DistancesPairBoundedInto(src int, d1, d2 []int32, bound func() int32) bool {
	f.DistancesPairInto(src, d1, d2)
	return false
}

func (f prunedFallback) DeriveBoundedInto(src int, d1, d2 []int32, bound func() int32) bool {
	f.DeriveInto(src, d1, d2)
	return false
}

// The full engine's session implements the capability whenever the second
// snapshot unwraps to an unweighted graph (including through the serve
// layer's Batcher): the t1 row still runs through the session — batched,
// engine-selected — while the bounded t2 traversal runs the dedicated
// kernel directly on the graph. Bypassing the batcher for t2 only changes
// machine work, never charges (the caller's meter was charged up front).

func (s *fullPairedSession) DistancesPairBoundedInto(src int, d1, d2 []int32, bound func() int32) bool {
	s.s1.DistancesInto(src, d1)
	return s.DeriveBoundedInto(src, d1, d2, bound)
}

func (s *fullPairedSession) DeriveBoundedInto(src int, d1, d2 []int32, bound func() int32) bool {
	if s.g2 == nil {
		s.s2.DistancesInto(src, d2)
		return false
	}
	if s.pruned == nil {
		s.pruned = &sssp.PrunedScratch{}
	}
	return sssp.PrunedSecondBFS(s.g2, src, d1, d2, bound, s.pruned)
}

// The incremental engine's bounded variants run the same decrease-only
// repair wave with a between-level threshold cut.

func (s *incrPairedSession) DistancesPairBoundedInto(src int, d1, d2 []int32, bound func() int32) bool {
	sssp.BFSWith(s.e.g1, src, d1, s.e.engine, s.scratch)
	return s.DeriveBoundedInto(src, d1, d2, bound)
}

func (s *incrPairedSession) DeriveBoundedInto(src int, d1, d2 []int32, bound func() int32) bool {
	copy(d2, d1)
	_, cut := s.repair.ApplyAllBounded(s.e.g2, s.e.delta.Edges, d2, d1, bound)
	return cut
}
