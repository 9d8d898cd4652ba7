package dist

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sssp"
)

// PairedMode, PairedFull, PairedIncremental and ParsePairedMode remain only
// for callers written against the deleted incremental paired engine. Every
// mode runs the same kernel: NewPairedEngine ignores its mode argument.
type PairedMode int

const (
	// PairedFull is the zero mode.
	PairedFull PairedMode = iota
	// PairedIncremental is accepted and runs exactly like PairedFull.
	PairedIncremental
)

// ParsePairedMode parses the former paired-mode spellings "", "full" and
// "incremental"; any other value is an error.
func ParsePairedMode(s string) (PairedMode, error) {
	switch s {
	case "", "full":
		return PairedFull, nil
	case "incremental":
		return PairedIncremental, nil
	default:
		return PairedFull, fmt.Errorf("dist: unknown paired mode %q (want full or incremental)", s)
	}
}

// PairedEngine produces PairedSessions over one snapshot pair. Build it once
// per pair and hand out one session per worker.
type PairedEngine struct {
	p Pair
	// g2 backs the Δ-threshold bounded traversal; nil when the second
	// source is not BFS-backed.
	g2 *graph.Graph
}

// NewPairedEngine builds the paired engine for p. The mode is ignored (see
// PairedMode).
func NewPairedEngine(p Pair, _ PairedMode) *PairedEngine {
	g2, _ := UnweightedGraph(p.S2)
	return &PairedEngine{p: p, g2: g2}
}

// NewSession returns a single-goroutine paired session owning one session
// per snapshot.
func (e *PairedEngine) NewSession() *PairedSession {
	return &PairedSession{s1: e.p.S1.NewSession(), s2: e.p.S2.NewSession(), g2: e.g2}
}

// PairedSession is a single-goroutine handle producing both snapshot rows of
// one source. Both methods follow the paper's cost model: one budget unit per
// distance row *produced*, regardless of how much traversal producing it
// took — so DistancesPairInto costs 2 units and DeriveInto costs 1, whether
// or not the bound cut the work short. Callers charge their meter
// accordingly before invoking.
//
// bound is the Δ-threshold of pruned extraction: on a BFS pair a non-nil
// bound runs sssp.PrunedSecondBFS, which stops the second-snapshot traversal
// once bound() proves the remaining nodes cannot produce a top-k pair; nil,
// or a second source that is not BFS-backed, gives the full row. Both
// methods return whether the t2 work was cut short. A cut d2 row is only
// valid for delta extraction against its d1: abandoned nodes hold d2 = d1
// (delta 0), not their true distance, so such rows must never be cached or
// served as distance rows.
type PairedSession struct {
	s1, s2 Session
	g2     *graph.Graph
	pruned *sssp.Scratch
}

// DistancesPairInto fills d1 and d2 (each length NumNodes) with the distance
// rows of src on G_t1 and G_t2. Costs 2 budget units.
func (s *PairedSession) DistancesPairInto(src int, d1, d2 []int32, bound func() int32) bool {
	s.s1.DistancesInto(src, d1)
	return s.DeriveInto(src, d1, d2, bound)
}

// DeriveInto fills d2 with src's G_t2 row, given its already-computed G_t1
// row d1, which only the bounded traversal reads. Costs 1 budget unit.
func (s *PairedSession) DeriveInto(src int, d1, d2 []int32, bound func() int32) bool {
	if bound == nil || s.g2 == nil {
		s.s2.DistancesInto(src, d2)
		return false
	}
	if s.pruned == nil {
		s.pruned = sssp.NewScratch(s.g2.NumNodes())
	}
	return sssp.PrunedSecondBFS(s.g2, src, d1, d2, bound, s.pruned)
}
