// Package monitor watches an evolving graph over consecutive windows of its
// edge stream and reports the converging pairs of each window under a
// budget — the "continuous" deployment mode the paper's applications
// (friend recommendation, fraud rings, protein interactions) imply. It also
// provides a streaming landmark tracker that keeps landmark distance
// vectors fresh with incremental BFS (internal/dynsssp) instead of
// recomputing them per window, so a long-running monitor pays the landmark
// SSSP cost once.
package monitor

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/budget"
	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/dynsssp"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sssp"
	"repro/internal/topk"
)

// Config controls a windowed watch.
type Config struct {
	// Selector generates candidate endpoints per window; required.
	Selector candidates.Selector
	// M is the per-window endpoint budget; required.
	M int
	// L is the landmark count for landmark-based selectors (0 = default).
	L int
	// MinDelta reports pairs whose distance dropped by at least this much
	// (0 means 2 — monitoring distance drops of 1 is usually noise).
	MinDelta int32
	// Seed drives randomized selectors.
	Seed int64
	// Workers bounds BFS parallelism.
	Workers int
	// Trace, when non-nil, records one span per monitoring window (with the
	// per-phase spans of each window's Algorithm 1 run nested inside), so a
	// long watch shows where its windows and SSSPs went.
	Trace *obs.Trace
}

// windowNS is the per-window wall-time distribution of Watch: one sample per
// window span, inclusive of snapshot materialization and the window's TopK
// run, so a long watch exposes its window p50/p99 on /metrics.
var windowNS = obs.NewHistogram("monitor.window_ns")

// WindowReport is the outcome of one monitoring window.
type WindowReport struct {
	// StartFrac and EndFrac are the window bounds as stream fractions.
	StartFrac, EndFrac float64
	// NewEdges is the number of edge insertions inside the window.
	NewEdges int
	// Pairs are the converging pairs detected, canonical order.
	Pairs []topk.Pair
	// Budget is the SSSP spending of the window's run.
	Budget budget.Report
}

// Watch slices the stream at the given ascending fractions and runs the
// budgeted converging-pairs algorithm on every consecutive pair of
// snapshots. len(fractions) must be >= 2.
//
// Watch is now a replay client of the epoch substrate: the stream is fed
// through a graph.Ingester (pinned to the stream's full node universe, so
// selector RNG draws match a full-universe run exactly), each fraction cut
// seals an epoch, and every consecutive epoch pair is queried through a
// core.Session over a pinned store window — the same machinery a live
// convserve deployment runs, exercised here in batch. Snapshots, results,
// and budget reports are identical to materializing prefixes directly.
func Watch(ev *graph.Evolving, fractions []float64, cfg Config) ([]WindowReport, error) {
	if cfg.Selector == nil {
		return nil, errors.New("monitor: no selector configured")
	}
	if cfg.M <= 0 {
		return nil, fmt.Errorf("monitor: non-positive budget m=%d", cfg.M)
	}
	if len(fractions) < 2 {
		return nil, fmt.Errorf("monitor: need at least 2 fractions, got %d", len(fractions))
	}
	if !sort.Float64sAreSorted(fractions) {
		return nil, fmt.Errorf("monitor: fractions must ascend: %v", fractions)
	}
	minDelta := cfg.MinDelta
	if minDelta <= 0 {
		minDelta = 2
	}
	// Replay the stream into the epoch store, sealing one epoch per fraction.
	ing := graph.NewIngester(graph.IngesterOptions{Universe: ev.NumNodes()})
	stream := ev.Stream()
	prefix := 0
	for _, f := range fractions {
		cut := int(f * float64(len(stream)))
		if cut > len(stream) {
			cut = len(stream)
		}
		if cut > prefix {
			if _, err := ing.IngestBatch(stream[prefix:cut]); err != nil {
				return nil, fmt.Errorf("monitor: ingest to fraction %v: %w", f, err)
			}
			prefix = cut
		}
		ing.Seal()
	}
	store := ing.Store()
	var reports []WindowReport
	for i := 1; i < len(fractions); i++ {
		f1, f2 := fractions[i-1], fractions[i]
		//convlint:nondet window latency is observational, not part of results
		winStart := time.Now()
		// One flight record per window (Kind "watch-window", Total phase
		// only); the nested TopK run appends its own "topk" record with the
		// per-phase split.
		rec := obs.RunRecord{
			Kind:        "watch-window",
			Fingerprint: fmt.Sprintf("window=%d start=%v end=%v selector=%s m=%d", i-1, f1, f2, cfg.Selector.Name(), cfg.M),
			Outcome:     "ok",
		}
		endWindow := func(err error) {
			//convlint:nondet window latency is observational, not part of results
			rec.Phases.Total = time.Since(winStart).Nanoseconds()
			windowNS.Observe(rec.Phases.Total)
			if err != nil {
				rec.Outcome = err.Error()
			}
			obs.Flight.Append(rec)
		}
		span := cfg.Trace.StartSpan("window",
			obs.Int("index", i-1), obs.Float("start", f1), obs.Float("end", f2))
		fail := func(err error) ([]WindowReport, error) {
			span.End()
			endWindow(err)
			return nil, fmt.Errorf("monitor: window [%v, %v]: %w", f1, f2, err)
		}
		if !(f1 < f2) {
			return fail(fmt.Errorf("graph: snapshot fractions must satisfy f1 < f2, got %v >= %v", f1, f2))
		}
		// Epoch i holds the fractions[i-1] prefix (seals are 1-based).
		win, err := store.Window(i, i+1)
		if err != nil {
			return fail(err)
		}
		sess, err := core.NewSession(win.Pair)
		if err != nil {
			win.Close()
			return fail(err)
		}
		var res *core.Result
		// Each window pays the paper's standard 2m allowance from its own
		// meter, exactly as the one-shot default would allocate.
		meter := budget.NewMeter(cfg.M)
		// The pprof label attributes each iteration's work to the monitor
		// subsystem in profiles of long-running watches.
		pprof.Do(context.Background(), pprof.Labels("subsystem", "monitor-window"),
			func(context.Context) {
				res, err = sess.TopK(context.Background(), core.Options{
					Selector: cfg.Selector,
					M:        cfg.M,
					L:        cfg.L,
					MinDelta: minDelta,
					Seed:     cfg.Seed + int64(i),
					Workers:  cfg.Workers,
					Trace:    cfg.Trace,
					Meter:    meter,
				})
			})
		newEdges := win.Pair.G2.NumEdges() - win.Pair.G1.NumEdges()
		win.Close()
		if err != nil {
			return fail(err)
		}
		span.Set(obs.Int("new-edges", newEdges),
			obs.Int("pairs", len(res.Pairs)))
		span.End()
		rec.Budget = obs.BudgetSplit{Limit: res.Budget.Limit, CandidateGen: res.Budget.CandidateGen, TopK: res.Budget.TopK}
		rec.Candidates = len(res.Candidates)
		rec.Pairs = len(res.Pairs)
		endWindow(nil)
		reports = append(reports, WindowReport{
			StartFrac: f1,
			EndFrac:   f2,
			NewEdges:  newEdges,
			Pairs:     res.Pairs,
			Budget:    res.Budget,
		})
	}
	return reports, nil
}

// EvenWindows returns count+1 fractions splitting [start, 1] evenly — a
// convenience for Watch.
func EvenWindows(start float64, count int) []float64 {
	if count < 1 || start < 0 || start >= 1 {
		return nil
	}
	out := make([]float64, count+1)
	step := (1 - start) / float64(count)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	out[count] = 1
	return out
}

// LandmarkTracker maintains the distance vectors of a fixed landmark set
// across the stream with incremental BFS. A checkpoint freezes the current
// vectors as the comparison baseline; after advancing further, nodes can be
// ranked by how much closer they came to the landmarks since the
// checkpoint — the streaming analogue of the SumDiff/MaxDiff selectors with
// zero per-window SSSP cost after setup.
//
// Each advance materializes the target snapshot once (CSR shared read-only
// across landmarks) and batch-repairs every landmark vector over the
// window's edge delta with dynsssp.Scratch.ApplyAll — one seed pass and one
// level-ordered wave per landmark per window, instead of the former
// one-wave-per-edge insertion loop over per-landmark adjacency copies.
type LandmarkTracker struct {
	ev        *graph.Evolving
	landmarks []int
	dists     [][]int32 // current vectors, one per landmark
	scratch   *dynsssp.Scratch
	edgebuf   []graph.Edge
	prefix    int       // edges applied so far
	baseline  [][]int32 // checkpointed vectors, one per landmark
	repair    dynsssp.Stats
}

// NewLandmarkTracker initializes the tracker at the given edge prefix. The
// initial cost is one BFS per landmark (the budget the paper's landmark
// methods pay per snapshot — paid once here for the whole stream).
//
//convlint:unbudgeted one-time setup BFS per landmark; SSSPCostSaved accounts the l SSSPs this construction pays
func NewLandmarkTracker(ev *graph.Evolving, landmarks []int, startPrefix int) (*LandmarkTracker, error) {
	if len(landmarks) == 0 {
		return nil, errors.New("monitor: no landmarks")
	}
	n := ev.NumNodes()
	g := ev.SnapshotPrefix(startPrefix)
	t := &LandmarkTracker{
		ev:        ev,
		landmarks: landmarks,
		prefix:    startPrefix,
		scratch:   dynsssp.NewScratch(),
	}
	for _, w := range landmarks {
		if w < 0 || w >= n {
			return nil, fmt.Errorf("monitor: landmark %d out of range [0,%d)", w, n)
		}
		vec := make([]int32, n)
		sssp.BFS(g, w, vec)
		t.dists = append(t.dists, vec)
	}
	t.Checkpoint()
	return t, nil
}

// Prefix returns the number of stream edges applied so far.
func (t *LandmarkTracker) Prefix() int { return t.prefix }

// Distances returns landmark i's current distance vector; the slice aliases
// internal state and must not be modified.
func (t *LandmarkTracker) Distances(i int) []int32 { return t.dists[i] }

// RepairStats returns the cumulative batch-repair work of every AdvanceTo so
// far (FrontierPeak is the high-water mark across repairs) — the traversal
// the tracker performed instead of windows×l full recomputations.
func (t *LandmarkTracker) RepairStats() dynsssp.Stats { return t.repair }

// Checkpoint freezes the current landmark vectors as the baseline for
// subsequent Top rankings.
func (t *LandmarkTracker) Checkpoint() {
	t.baseline = t.baseline[:0]
	for _, d := range t.dists {
		t.baseline = append(t.baseline, append([]int32(nil), d...))
	}
}

// AdvanceTo applies stream edges up to the given prefix (clamped to the
// stream length). Going backwards is an error: insertions are not
// reversible.
//
//convlint:unbudgeted incremental repair is the cost the tracker avoids; its setup SSSPs were paid in NewLandmarkTracker
func (t *LandmarkTracker) AdvanceTo(prefix int) error {
	if prefix > t.ev.NumEdges() {
		prefix = t.ev.NumEdges()
	}
	if prefix < t.prefix {
		return fmt.Errorf("monitor: cannot rewind from %d to %d", t.prefix, prefix)
	}
	if prefix == t.prefix {
		return nil
	}
	slice := t.ev.Stream()[t.prefix:prefix]
	t.edgebuf = t.edgebuf[:0]
	for _, te := range slice {
		t.edgebuf = append(t.edgebuf, graph.Edge{U: te.U, V: te.V})
	}
	// One snapshot materialization per advance, shared by all landmarks.
	g2 := t.ev.SnapshotPrefix(prefix)
	for i := range t.dists {
		st := t.scratch.ApplyAll(g2, t.edgebuf, t.dists[i])
		t.repair.Changed += st.Changed
		t.repair.Nodes += st.Nodes
		t.repair.Edges += st.Edges
		if st.FrontierPeak > t.repair.FrontierPeak {
			t.repair.FrontierPeak = st.FrontierPeak
		}
	}
	t.prefix = prefix
	return nil
}

// AdvanceToFraction is AdvanceTo at a stream fraction.
func (t *LandmarkTracker) AdvanceToFraction(frac float64) error {
	return t.AdvanceTo(int(frac * float64(t.ev.NumEdges())))
}

// Top returns the m nodes whose total distance to the landmarks dropped the
// most since the last checkpoint (the streaming SumDiff ranking). A node
// unreachable at the checkpoint contributes nothing (it was not connected,
// hence not converging), matching dynsssp.DeltaSince semantics.
func (t *LandmarkTracker) Top(m int) []int {
	n := t.ev.NumNodes()
	l1 := make([]int64, n)
	for i, cur := range t.dists {
		base := t.baseline[i]
		for v := 0; v < n; v++ {
			b := base[v]
			if b <= 0 {
				continue
			}
			if c := cur[v]; c >= 0 && c < b {
				l1[v] += int64(b - c)
			}
		}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if l1[idx[a]] != l1[idx[b]] {
			return l1[idx[a]] > l1[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if m > len(idx) {
		m = len(idx)
	}
	return idx[:m]
}

// SSSPCostSaved estimates the SSSPs a per-window recomputation would have
// spent versus the tracker's incremental maintenance: windows * 2l full BFS
// versus the l initial ones.
func (t *LandmarkTracker) SSSPCostSaved(windows int) int {
	return windows*2*len(t.landmarks) - len(t.landmarks)
}
