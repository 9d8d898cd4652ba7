package dist

import (
	"fmt"

	"repro/internal/dynsssp"
	"repro/internal/graph"
	"repro/internal/sssp"
)

// PairedMode selects how the second-snapshot distance row of a paired query
// is produced.
type PairedMode int

const (
	// PairedFull recomputes the t2 row with a full traversal of G_t2 — the
	// paper's literal 2-SSSPs-per-candidate extraction.
	PairedFull PairedMode = iota
	// PairedIncremental derives the t2 row from the t1 row by batch-applying
	// the snapshot edge delta with dynsssp's decrease-only repair, skipping
	// the unchanged region of the graph. Falls back to PairedFull when the
	// pair does not support it (non-BFS metrics, mismatched universes).
	PairedIncremental
)

// String returns the CLI spelling of the mode.
func (m PairedMode) String() string {
	switch m {
	case PairedFull:
		return "full"
	case PairedIncremental:
		return "incremental"
	default:
		return fmt.Sprintf("PairedMode(%d)", int(m))
	}
}

// ParsePairedMode parses the -paired CLI flag values "full" and
// "incremental". The empty string means full (the default).
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

// PairedSession is a single-goroutine handle producing both snapshot rows of
// one source. Both methods follow the paper's cost model: one budget unit per
// distance row *produced*, regardless of how much traversal producing it
// took — so DistancesPairInto costs 2 units and DeriveInto costs 1, in every
// mode and whether or not the bound cut the work short. Callers charge their
// meter accordingly before invoking.
//
// bound is the Δ-threshold of pruned extraction: a non-nil bound lets the
// second-snapshot work stop once bound() proves the remaining nodes cannot
// produce a top-k pair (see sssp.PrunedSecondBFS for the soundness
// argument); nil asks for the full row. Both methods return whether the t2
// work was cut short. A cut d2 row is only valid for delta extraction
// against its d1: abandoned nodes hold d2 = d1 (delta 0), not their true
// distance, so such rows must never be cached or served as distance rows.
type PairedSession interface {
	// DistancesPairInto fills d1 and d2 (each length NumNodes) with the
	// distance rows of src on G_t1 and G_t2. Costs 2 budget units.
	DistancesPairInto(src int, d1, d2 []int32, bound func() int32) bool
	// DeriveInto fills d2 with src's G_t2 row, given its already-computed
	// G_t1 row d1 (read-only; full-mode engines re-traverse G_t2). Costs 1
	// budget unit.
	DeriveInto(src int, d1, d2 []int32, bound func() int32) bool
}

// PairedEngine produces PairedSessions over one snapshot pair. Engines are
// built once per run (NewPairedEngine computes the shared edge delta there)
// and hand out one session per worker.
type PairedEngine interface {
	NewSession() PairedSession
	// Mode reports the mode the engine actually runs in — PairedFull when an
	// incremental request fell back.
	Mode() PairedMode
}

// NewPairedEngine builds the paired engine for p in the requested mode.
// PairedIncremental needs two BFS sources over one node universe and
// silently falls back to a full engine otherwise (e.g. Dijkstra sources);
// inspect Mode() on the result to see what was actually built.
func NewPairedEngine(p Pair, mode PairedMode) PairedEngine {
	b1, ok1 := p.S1.(*BFS)
	b2, ok2 := p.S2.(*BFS)
	if mode == PairedIncremental && ok1 && ok2 && b1.g.NumNodes() == b2.g.NumNodes() {
		// S1's engine drives the t1 traversal; S2's is irrelevant because
		// G2 is never fully traversed.
		return &incrPairedEngine{g1: b1.g, g2: b2.g, engine: b1.engine, delta: graph.NewDelta(b1.g, b2.g)}
	}
	return fullPairedEngine{p: p}
}

// fullPairedEngine traverses both snapshots in full: one session per
// snapshot, one traversal per row.
type fullPairedEngine struct {
	p Pair
}

func (e fullPairedEngine) Mode() PairedMode { return PairedFull }

func (e fullPairedEngine) NewSession() PairedSession {
	s := &fullPairedSession{s1: e.p.S1.NewSession(), s2: e.p.S2.NewSession()}
	// A BFS second snapshot also runs the Δ-threshold bounded traversal.
	if g2, ok := UnweightedGraph(e.p.S2); ok {
		s.g2 = g2
	}
	return s
}

type fullPairedSession struct {
	s1, s2 Session
	// g2 and pruned back bounded calls; g2 is nil when the second source is
	// not BFS-backed, and bounded calls then traverse in full.
	g2     *graph.Graph
	pruned *sssp.PrunedScratch
}

func (s *fullPairedSession) DistancesPairInto(src int, d1, d2 []int32, bound func() int32) bool {
	s.s1.DistancesInto(src, d1)
	return s.DeriveInto(src, d1, d2, bound)
}

// DeriveInto in full mode recomputes the t2 row from scratch; d1 is read
// only by the bounded traversal.
func (s *fullPairedSession) DeriveInto(src int, d1, d2 []int32, bound func() int32) bool {
	if bound == nil || s.g2 == nil {
		s.s2.DistancesInto(src, d2)
		return false
	}
	if s.pruned == nil {
		s.pruned = &sssp.PrunedScratch{}
	}
	return sssp.PrunedSecondBFS(s.g2, src, d1, d2, bound, s.pruned)
}

// incrPairedEngine is the BFS-backed incremental paired engine: each
// source's t1 row comes from the regular kernels, and a copy of it is
// repaired into the t2 row with dynsssp's batch decrease-only wave over the
// edge delta G2 \ G1 — computed once at construction and shared read-only
// by every session.
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

func (s *incrPairedSession) DistancesPairInto(src int, d1, d2 []int32, bound func() int32) bool {
	sssp.BFSWith(s.e.g1, src, d1, s.e.engine, s.scratch)
	return s.DeriveInto(src, d1, d2, bound)
}

// DeriveInto copies the t1 row and repairs the copy over the delta; the
// full repair is bit-identical to a fresh BFS on G2 (pinned by differential
// fuzz tests in dynsssp and dist). A bound adds a between-level threshold
// cut to the same wave.
func (s *incrPairedSession) DeriveInto(src int, d1, d2 []int32, bound func() int32) bool {
	copy(d2, d1)
	if bound == nil {
		s.repair.ApplyAll(s.e.g2, s.e.delta.Edges, d2)
		return false
	}
	_, cut := s.repair.ApplyAllBounded(s.e.g2, s.e.delta.Edges, d2, d1, bound)
	return cut
}
