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

// PairedEngine produces a source's G_t2 row from its G_t1 row over one
// snapshot pair; extraction sweeps the G_t1 rows beforehand (RowsInto). It
// holds no traversal state (the sssp kernels it calls borrow scratch from
// their package's pools), so one engine serves every extraction worker at
// once.
//
// DeriveInto follows the paper's cost model: one budget unit per distance
// row *produced*, regardless of how much traversal producing it took,
// whether or not the bound cut the work short. Callers charge their meter
// before invoking.
//
// bound is the Δ-threshold of pruned extraction: on a BFS pair the t2 row
// comes from sssp.PrunedSecondBFS, which stops the second-snapshot
// traversal once bound() proves the remaining nodes cannot produce a pair
// the query returns; a second source that is not BFS-backed gives the full
// row. DeriveInto returns whether the t2 work was cut short. A cut d2 row
// is only valid for delta extraction against its d1: abandoned nodes hold
// d2 = d1 (delta 0), not their true distance, so such rows must never be
// cached or served as distance rows.
type PairedEngine struct {
	s2 Source
	// g2 backs the Δ-threshold bounded traversal; nil when the second
	// source is not BFS-backed.
	g2 *graph.Graph
}

// NewPairedEngine builds the paired engine for p. The mode is ignored (see
// PairedMode).
func NewPairedEngine(p Pair, _ PairedMode) *PairedEngine {
	g2, _ := UnweightedGraph(p.S2)
	return &PairedEngine{s2: p.S2, g2: g2}
}

// DeriveInto fills d2 with src's G_t2 row, given its already-computed G_t1
// row d1, which only the bounded traversal reads. Costs 1 budget unit.
func (e *PairedEngine) DeriveInto(src int, d1, d2 []int32, bound func() int32) bool {
	if e.g2 == nil {
		e.s2.DistancesInto(src, d2)
		return false
	}
	return sssp.PrunedSecondBFS(e.g2, src, d1, d2, bound, nil)
}
