// Package budgettest exercises the budgetcheck analyzer: SSSP entry-point
// calls must either follow a budget.Meter charge within the enclosing
// function or carry a //convlint:unbudgeted reason.
package budgettest

import (
	"context"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dynsssp"
	"repro/internal/graph"
	"repro/internal/prune"
	"repro/internal/sssp"
)

func unmetered(g *graph.Graph, dist []int32) {
	sssp.BFS(g, 0, dist) // want `call to sssp.BFS without a budget.Meter charge`
}

func unmeteredMatrix(g *graph.Graph) [][]int32 {
	return dist.DistanceMatrix(dist.NewBFS(g), []int{0}, 1) // want `call to dist.DistanceMatrix without`
}

func metered(g *graph.Graph, m *budget.Meter, dist []int32) error {
	if err := m.Charge(budget.PhaseCandidateGen, 1); err != nil {
		return err
	}
	sssp.BFS(g, 0, dist)
	return nil
}

// chargeAfter charges only after spending, which the analyzer rejects: the
// charge must be on the path to the call.
func chargeAfter(g *graph.Graph, m *budget.Meter, dist []int32) {
	sssp.BFS(g, 0, dist) // want `call to sssp.BFS without a budget.Meter charge`
	_ = m.Charge(budget.PhaseTopK, 1)
}

// closureMetered charges up front and spends inside a worker closure, the
// selector pattern used throughout internal/core.
func closureMetered(g *graph.Graph, m *budget.Meter, dist []int32) error {
	if err := m.Charge(budget.PhaseTopK, 1); err != nil {
		return err
	}
	run := func() {
		sssp.BFSWith(g, 0, dist, nil)
	}
	run()
	return nil
}

// suppressed is a ground-truth style sweep.
//
//convlint:unbudgeted fixture: exact sweep is budget-free by definition
func suppressed(g *graph.Graph, dist []int32) {
	sssp.BFS(g, 0, dist)
	sssp.AllSourcesFunc(g, []int{0}, 1, func(src int, d []int32) {})
}

// freeCalls never touch budget-relevant entry points and need nothing.
func freeCalls(g *graph.Graph, dist []int32) []int {
	return sssp.Path(g, 0, 0)
}

// The dist abstraction's query entry points cost budget exactly like the
// sssp kernels they dispatch to.

func unmeteredSource(s dist.Source, row []int32) {
	s.DistancesInto(0, row) // want `call to dist.DistancesInto without a budget.Meter charge`
}

func unmeteredSweep(s dist.Source) {
	dist.Sweep(s, []int{0}, 1, func(src int, d []int32) {}) // want `call to dist.Sweep without`
}

func meteredSession(s dist.Source, m *budget.Meter, row []int32) error {
	if err := m.Charge(budget.PhaseTopK, 1); err != nil {
		return err
	}
	s.DistancesInto(0, row)
	return nil
}

func meteredPaired(p dist.Pair, m *budget.Meter) error {
	if err := m.Charge(budget.PhaseCandidateGen, 2); err != nil {
		return err
	}
	dist.PairedSweep(p, []int{0}, 1, func(src int, d1, d2 []int32) {})
	return nil
}

// freeStructural reads only degrees and adjacency, which cost nothing.
func freeStructural(s dist.Source) int {
	return s.Degree(0) + len(s.NeighborIDs(0)) + s.NumEdges()
}

// The dynsssp batch repairs re-derive distance rows, which the rows-produced
// cost model prices like any other row: metered or declared unbudgeted.

func unmeteredRepair(s *dynsssp.Scratch, g2 *graph.Graph, delta []graph.Edge, row []int32) {
	s.ApplyAll(g2, delta, row) // want `call to dynsssp.ApplyAll without a budget.Meter charge`
}

func unmeteredBatch(d *dynsssp.DynamicBFS, edges []graph.TimedEdge) {
	_, _ = d.ApplyBatch(edges) // want `call to dynsssp.ApplyBatch without`
	_, _ = d.InsertEdge(0, 1)  // want `call to dynsssp.InsertEdge without`
}

func meteredRepair(s *dynsssp.Scratch, g2 *graph.Graph, delta []graph.Edge, m *budget.Meter, row []int32) error {
	if err := m.Charge(budget.PhaseTopK, 1); err != nil {
		return err
	}
	s.ApplyAll(g2, delta, row)
	return nil
}

// suppressedStream mirrors the streaming monitor: incremental maintenance is
// the cost the tracker avoids paying per window.
//
//convlint:unbudgeted fixture: tracker setup charged its SSSPs at construction
func suppressedStream(d *dynsssp.DynamicBFS, edges []graph.TimedEdge) {
	_, _ = d.ApplyStream(edges)
}

// freeRepairReads touch only dynsssp accessors, which cost nothing.
func freeRepairReads(d *dynsssp.DynamicBFS) int {
	return d.NumNodes() + int(d.Dist(0)) + d.RepairStats().Nodes
}

// Extraction's entry points cost one unit per row produced: one per source
// for the t1 rows RowsInto sweeps, one for each DeriveInto t2 row.

func unmeteredPairedEngine(p dist.Pair, ps *dist.PairedEngine, d1, d2 []int32) {
	dist.RowsInto(p.S1, []int{0}, [][]int32{d1}, 1)     // want `call to dist.RowsInto without`
	ps.DeriveInto(0, d1, d2, func() int32 { return 1 }) // want `call to dist.DeriveInto without`
}

func meteredPairedEngine(p dist.Pair, m *budget.Meter, d1, d2 []int32) error {
	if err := m.Charge(budget.PhaseTopK, 2); err != nil {
		return err
	}
	dist.RowsInto(p.S1, []int{0}, [][]int32{d1}, 1)
	ps := dist.NewPairedEngine(p, dist.PairedFull)
	ps.DeriveInto(0, d1, d2, func() int32 { return 1 })
	return nil
}

// The Δ-threshold bounded calls cost exactly what a full row does: the
// bound cuts traversal work, never charges. A cut-short row was still
// produced (valid for delta extraction), so it is still one unit.

// meteredChainStep is one MaxMin pick: its charge comes first, then the
// pruned traversal that stands in for its full row.
func meteredChainStep(g *graph.Graph, m *budget.Meter, near []int32) error {
	if err := m.Charge(budget.PhaseCandidateGen, 1); err != nil {
		return err
	}
	sssp.LowerNearest(g, 1, near, nil)
	return nil
}

func unmeteredChainStep(g *graph.Graph, near []int32) {
	sssp.LowerNearest(g, 1, near, nil) // want `call to sssp.LowerNearest without`
}

func unmeteredPrunedBFS(g2 *graph.Graph, d1, d2 []int32, ps *sssp.Scratch) {
	sssp.PrunedSecondBFS(g2, 0, d1, d2, func() int32 { return 1 }, ps) // want `call to sssp.PrunedSecondBFS without`
}

// A batched round's bounded sweep costs one unit per row, like the
// per-candidate rows it stands in for.

func unmeteredBoundedSweep(g2 *graph.Graph, ps *dist.PairedEngine, d1s, d2s [][]int32) {
	sssp.PrunedRowsInto(g2, []int{0}, d1s, d2s, 1, 1) // want `call to sssp.PrunedRowsInto without`
	ps.DeriveRowsInto([]int{0}, d1s, d2s, 1, 1)       // want `call to dist.DeriveRowsInto without`
}

func meteredBoundedSweep(p dist.Pair, m *budget.Meter, d1s, d2s [][]int32) error {
	if err := m.Charge(budget.PhaseTopK, 1); err != nil {
		return err
	}
	ps := dist.NewPairedEngine(p, dist.PairedFull)
	ps.DeriveRowsInto([]int{0}, d1s, d2s, 1, 1)
	return nil
}

// meteredThresholdLoop is the pruned-extraction idiom: charge every row up
// front, sweep the t1 rows, derive bounded t2 rows through the paired
// engine with the shared threshold as the bound, and offer each emitted
// delta back to the threshold. Threshold reads and offers cost nothing — only the row
// computations are budget-relevant.
func meteredThresholdLoop(p dist.Pair, m *budget.Meter, th *prune.Threshold, d1, d2 []int32) error {
	if err := m.Charge(budget.PhaseTopK, 2); err != nil {
		return err
	}
	dist.RowsInto(p.S1, []int{0}, [][]int32{d1}, 1)
	ps := dist.NewPairedEngine(p, dist.PairedFull)
	ps.DeriveInto(0, d1, d2, th.Load)
	for v := range d1 {
		if d1[v] > 0 && d1[v]-d2[v] > 0 {
			th.Offer(d1[v] - d2[v])
		}
	}
	return nil
}

// A held core.Session is the serving idiom: its TopK charges the meter it
// carries, so the caller must show where that meter comes from — a tenant's
// Admit or an explicit NewMeter — before the call.

func unmeteredSessionQuery(ctx context.Context, sess *core.Session) {
	_, _ = sess.TopK(ctx, core.Options{M: 1}) // want `call to core.Session.TopK without meter evidence`
}

func tenantMeteredQuery(ctx context.Context, sess *core.Session, reg *budget.Registry) error {
	tenant := reg.Tenant("alice", 0)
	meter, err := tenant.Admit(5)
	if err != nil {
		return err
	}
	defer tenant.Settle(meter)
	_, err = sess.TopK(ctx, core.Options{M: 5, Meter: meter})
	return err
}

// Resolving a tenant is not admission: without Admit the query runs on
// no meter the caller can show.
func unadmittedTenantQuery(ctx context.Context, sess *core.Session, reg *budget.Registry) {
	_ = reg.Tenant("bob", 0)
	_, _ = sess.TopK(ctx, core.Options{M: 5}) // want `call to core.Session.TopK without meter evidence`
}

func oneShotMeteredQuery(ctx context.Context, sess *core.Session) error {
	meter := budget.NewMeter(5)
	_, err := sess.TopK(ctx, core.Options{M: 5, Meter: meter})
	return err
}
