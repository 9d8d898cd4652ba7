package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/candidates"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sssp"
	"repro/internal/topk"
)

// disconnectedPair builds a snapshot pair whose stream grows `comps`
// independent components — no edge ever bridges them, so every distance row
// carries unreachable entries and the pruned kernel's set-up must
// exclude them exactly like the full kernels' emit loop does.
func disconnectedPair(t testing.TB, n, comps int, seed int64) graph.SnapshotPair {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var stream []graph.TimedEdge
	for i := comps; i < n; i++ {
		c := i % comps
		// Attach to an earlier node of the same component (component c holds
		// nodes c, c+comps, c+2*comps, ...).
		prev := rng.Intn(i/comps) * comps
		stream = append(stream, graph.TimedEdge{U: i, V: prev + c, Time: int64(len(stream))})
	}
	ev, err := graph.NewEvolving(stream)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ev.Pair(0.7, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// requireSameResult asserts two runs of one query agree on everything the
// algorithm defines: pairs (bit-equal, post sort-cut), candidates, and the
// budget report.
func requireSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Pairs, got.Pairs) {
		t.Errorf("%s: pairs differ:\nwant %v\ngot  %v", label, want.Pairs, got.Pairs)
	}
	if !reflect.DeepEqual(want.Candidates, got.Candidates) {
		t.Errorf("%s: candidates differ:\nwant %v\ngot  %v", label, want.Candidates, got.Candidates)
	}
	if want.Budget != got.Budget {
		t.Errorf("%s: budget reports differ: want %+v, got %+v", label, want.Budget, got.Budget)
	}
}

// oraclePairs is the oracle extraction is checked against. It shares no
// code with extractPairs: topk.Compute's exact all-pairs sweep, restricted
// to pairs with an endpoint in res.Candidates and Δ >= max(1, δ), in
// canonical order, not yet cut to K.
func oraclePairs(t *testing.T, sp graph.SnapshotPair, opts Options, res *Result) []topk.Pair {
	t.Helper()
	gt, err := topk.Compute(sp, topk.Options{Workers: 1, Slack: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	floor := max(1, opts.MinDelta)
	inM := res.CandidateSet()
	var want []topk.Pair
	for _, p := range gt.Pairs {
		if p.Delta >= floor && (inM[p.U] || inM[p.V]) {
			want = append(want, p)
		}
	}
	return want
}

// exactExtraction is oraclePairs cut to K: the pairs the query must return.
func exactExtraction(t *testing.T, sp graph.SnapshotPair, opts Options, res *Result) []topk.Pair {
	t.Helper()
	want := oraclePairs(t, sp, opts, res)
	if opts.K > 0 && len(want) > opts.K {
		want = want[:opts.K]
	}
	return want
}

// requireExact asserts res returned exactly the oracle's pairs.
func requireExact(t *testing.T, label string, sp graph.SnapshotPair, opts Options, res *Result) {
	t.Helper()
	want := exactExtraction(t, sp, opts, res)
	if len(want) != len(res.Pairs) || (len(want) > 0 && !reflect.DeepEqual(want, res.Pairs)) {
		t.Errorf("%s: pairs differ from the exact oracle:\nexact %v\ngot   %v", label, want, res.Pairs)
	}
}

// TestPrunedEquivalentFuzz is the extraction differential: across selectors
// (landmark-using and not), connected and disconnected random graphs, top-K
// shapes and δ shapes (including a δ above every Δmax), all of them pruned,
// a one-worker run must return exactly the oracle's pairs, and a
// three-worker run, whose threshold rises at different moments, must match
// it in pairs, candidates and budget. Small k on dense-delta graphs makes
// ties at the kth boundary routine, so the strict-inequality cut discipline
// (ties at the threshold are kept) is exercised throughout.
func TestPrunedEquivalentFuzz(t *testing.T) {
	pairs := []struct {
		name string
		sp   graph.SnapshotPair
	}{
		{"growing", growingPair(t, 150, 11)},
		{"growing2", growingPair(t, 200, 23)},
		{"disconnected", disconnectedPair(t, 160, 3, 5)},
	}
	for _, g := range pairs {
		for _, selName := range []string{"MMSD", "SumDiff", "Random"} {
			sel, err := candidates.ByName(selName)
			if err != nil {
				t.Fatal(err)
			}
			shapes := []Options{{K: 3}, {K: 10}}
			for _, d := range []int32{1, 2, 3, 5, 40} {
				shapes = append(shapes, Options{MinDelta: d})
			}
			for _, shape := range shapes {
				label := fmt.Sprintf("%s/%s/k%d/delta%d", g.name, selName, shape.K, shape.MinDelta)
				opts := Options{Selector: sel, M: 25, L: 5, K: shape.K, MinDelta: shape.MinDelta, Seed: 7, Workers: 1}
				serial, err := TopK(g.sp, opts)
				if err != nil {
					t.Fatalf("%s workers=1: %v", label, err)
				}
				requireExact(t, label, g.sp, opts, serial)
				opts.Workers = 3
				par, err := TopK(g.sp, opts)
				if err != nil {
					t.Fatalf("%s workers=3: %v", label, err)
				}
				requireSameResult(t, label, serial, par)
			}
		}
	}
}

// TestPruneAutoSkipsMinDelta pins the pruning policy for δ queries: δ is
// the threshold's floor, so a δ query runs bounded t2 rows whose cut fires,
// and on this fixture, where MMSD's landmark bounds bite, it skips at least
// one candidate whole. The result still equals the oracle: every pair with
// Δ >= δ.
func TestPruneAutoSkipsMinDelta(t *testing.T) {
	sp := growingPair(t, 150, 11)
	opts := Options{Selector: candidates.MMSD(), M: 20, L: 5, MinDelta: 2, Seed: 7, Workers: 2}
	before := sssp.SnapshotMetrics()
	res, err := TopK(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls := sssp.SnapshotMetrics().Sub(before).PrunedBFS.Calls; calls == 0 {
		t.Error("δ query ran no bounded traversal")
	}
	if res.Pruned.Cutoffs == 0 {
		t.Error("no bounded traversal of the δ query was cut")
	}
	if res.Pruned.CandidatesSkipped == 0 {
		t.Error("δ query skipped no candidate by its landmark bound")
	}
	requireExact(t, "mindelta", sp, opts, res)
}

// TestExtractionSweepsT1Rows pins extraction's t1 sweep by its exact work.
// Degree selection runs no traversal and caches no row, so a Degree query's
// kernel work is extraction's alone: one swept t1 row and one bounded t2
// row per candidate (a PrunedBFS source, whether the row ran on its own or
// as a lane of the batched round). At one worker the t1 rows run as one bitparallel64
// batch with no diropt call; at four workers with m = 30 each share holds
// 8 sources, under the batch threshold, so they run per source. A δ query
// on TestPruneAutoSkipsMinDelta's fixture, with δ just above the smallest
// landmark bound of an uncached candidate, sweeps only the uncached
// candidates whose bound reaches δ: the rest are skipped at dequeue and
// need no row. Every result equals the exact oracle.
func TestExtractionSweepsT1Rows(t *testing.T) {
	sp := growingPair(t, 200, 3)
	for _, c := range []struct {
		m, workers int
		batched    bool
	}{{16, 1, true}, {30, 1, true}, {30, 2, false}, {30, 4, false}} {
		label := fmt.Sprintf("degree/m%d/workers%d", c.m, c.workers)
		opts := Options{Selector: candidates.Degree(), M: c.m, K: 10, Seed: 7, Workers: c.workers, Trace: obs.New("sweep")}
		before := sssp.SnapshotMetrics()
		res, err := TopK(sp, opts)
		if err != nil {
			t.Fatal(err)
		}
		work := sssp.SnapshotMetrics().Sub(before)
		requireExact(t, label, sp, opts, res)
		swept := spanArg(t, opts.Trace, "extraction", "t1-swept")
		if swept != c.m || len(res.Candidates) != c.m {
			t.Fatalf("%s: swept %d t1 rows for %d candidates, want %d", label, swept, len(res.Candidates), c.m)
		}
		if c.batched {
			if work.BitParallel64.Calls != 1 || work.BitParallel64.Sources != int64(swept) || work.DirectionOpt.Calls != 0 {
				t.Errorf("%s: t1 rows ran %d bitparallel64 batches over %d sources and %d diropt calls, want 1 over %d and 0",
					label, work.BitParallel64.Calls, work.BitParallel64.Sources, work.DirectionOpt.Calls, swept)
			}
		} else if work.DirectionOpt.Calls != int64(swept) || work.BitParallel64.Calls != 0 {
			t.Errorf("%s: t1 rows ran %d diropt calls and %d bitparallel64 batches, want %d and 0",
				label, work.DirectionOpt.Calls, work.BitParallel64.Calls, swept)
		}
		// Per-source bounded rows and the lanes of a batched round both
		// count as sources.
		if work.PrunedBFS.Sources != int64(swept) {
			t.Errorf("%s: %d bounded t2 rows (%d batched), want one per candidate (%d)",
				label, work.PrunedBFS.Sources, res.Pruned.T2Batched, swept)
		}
	}

	sp = growingPair(t, 150, 11)
	opts := Options{Selector: candidates.MMSD(), M: 20, L: 5, Seed: 7, Workers: 2, Trace: obs.New("sweep-delta")}
	// Selection is deterministic for a seed and does not read δ: replay it
	// to learn which candidates it cached and their landmark bounds, then
	// put δ one above the smallest bound of an uncached candidate.
	cctx := &candidates.Context{Pair: sp, M: opts.M, L: opts.L, RNG: rand.New(rand.NewSource(opts.Seed)), Workers: opts.Workers}
	cands, err := opts.Selector.Select(cctx)
	if err != nil {
		t.Fatal(err)
	}
	bounds := landmarkBounds(cctx, cands)
	opts.MinDelta = math.MaxInt32
	for i, u := range cands {
		if _, cached := cctx.D1Rows[u]; !cached {
			opts.MinDelta = min(opts.MinDelta, bounds[i]+1)
		}
	}
	want, below := 0, 0
	for i, u := range cands {
		if _, cached := cctx.D1Rows[u]; cached {
			continue
		}
		if bounds[i] < opts.MinDelta {
			below++
		} else {
			want++
		}
	}
	if want == 0 {
		t.Fatalf("every uncached candidate's bound is below δ = %d; the δ leg is vacuous", opts.MinDelta)
	}
	before := sssp.SnapshotMetrics()
	res, err := TopK(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, "delta", sp, opts, res)
	if got := spanArg(t, opts.Trace, "extraction", "t1-swept"); got != want {
		t.Errorf("δ query swept %d t1 rows, want the %d uncached candidates whose bound reaches δ (%d are below it)", got, want, below)
	}
	// The threshold of a δ query never rises, so every swept candidate
	// derives its t2 row, one by one or as a batched lane.
	if rows := sssp.SnapshotMetrics().Sub(before).PrunedBFS.Sources; rows != int64(want) {
		t.Errorf("δ query derived %d bounded t2 rows, want %d", rows, want)
	}
}

// TestPruneSeedSound: a threshold that starts at the true kth Δ of a top-K
// query (the strongest start pruning can get) drops nothing the query
// returns. A floor is the one way to start a threshold high, so the δ = kth
// query is that start: it returns the oracle's pairs, and its first K pairs
// are the top-K answer.
func TestPruneSeedSound(t *testing.T) {
	sp := growingPair(t, 200, 3)
	opts := Options{Selector: candidates.MMSD(), M: 25, L: 5, K: 10, Seed: 7, Workers: 2}
	plain, err := TopK(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	exact := exactExtraction(t, sp, opts, plain)
	if len(exact) < opts.K {
		t.Skipf("only %d pairs on this graph", len(exact))
	}
	floor := kthFloor(opts, exact[opts.K-1].Delta)
	seeded, err := TopK(sp, floor)
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, "seeded", sp, floor, seeded)
	requireSameResult(t, "seeded", plain, firstK(seeded, opts.K))
}

// kthFloor turns a top-K query into the δ query whose floor is kth: the
// threshold starts at kth and never moves.
func kthFloor(opts Options, kth int32) Options {
	opts.K, opts.MinDelta = 0, kth
	return opts
}

// firstK is res cut to its first k pairs. For a δ = kth query that is the
// top-K answer of the same selection.
func firstK(res *Result, k int) *Result {
	cut := *res
	cut.Pairs = res.Pairs[:min(k, len(res.Pairs))]
	return &cut
}

// TestWarmCacheIdentical: a repeat of a query on one session with a shared
// memo returns the cold run's result (pairs, candidates, budget) and moves
// no kernel counter: it selects and traverses nothing. The same query
// without the memo and the exact oracle agree with it, and a query that
// differs only in k, run against the same memo, equals its own cold run.
func TestWarmCacheIdentical(t *testing.T) {
	sp := growingPair(t, 200, 17)
	sess, err := NewSession(sp)
	if err != nil {
		t.Fatal(err)
	}
	warm := candidates.NewWarm()
	opts := Options{Selector: candidates.MMSD(), M: 25, L: 5, K: 10, Seed: 7, Workers: 2, Warm: warm}
	cold, err := sess.TopK(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}

	before, prunedBefore := sssp.SnapshotMetrics(), sssp.SnapshotPrunedWork()
	warmRes, err := sess.TopK(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if w := sssp.SnapshotMetrics().Sub(before).Total(); w.Calls != 0 || w.Sources != 0 || w.Nodes != 0 || w.Edges != 0 {
		t.Errorf("warm repeat ran %d kernel calls over %d edges, want none", w.Calls, w.Edges)
	}
	if p := sssp.SnapshotPrunedWork().Sub(prunedBefore); p != (sssp.PrunedWork{}) {
		t.Errorf("warm repeat moved the pruned-work counters: %+v", p)
	}
	requireSameResult(t, "warm", cold, warmRes)

	// The same query without the memo must also agree — reuse may never
	// steer the result.
	plain := opts
	plain.Warm = nil
	plainRes, err := sess.TopK(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "warm-vs-plain", plainRes, warmRes)
	requireExact(t, "warm-vs-exact", sp, opts, warmRes)

	for _, k := range []int{5, 20} {
		other := opts
		other.K = k
		memo, err := sess.TopK(context.Background(), other)
		if err != nil {
			t.Fatal(err)
		}
		other.Warm = nil
		own, err := sess.TopK(context.Background(), other)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("k%d", k), own, memo)
	}
}

// TestWarmHitFailsWhereColdFails: a warm hit charges the cold run's
// spending one phase at a time, so a budget the cold run would exhaust
// fails the hit in the same phase. With a limit one short of the
// selection's spending, and one short of the whole query's, the cold run
// and the hit both fail with ErrExhausted under the same phase prefix. One
// short of the whole query, both leave equal meter reports. One short of
// the selection, the hit's one selection charge does not fit, so it spends
// nothing at all, where the cold run spent the picks that fit.
func TestWarmHitFailsWhereColdFails(t *testing.T) {
	sp := growingPair(t, 200, 17)
	sess, err := NewSession(sp)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Selector: candidates.MMSD(), M: 25, L: 5, K: 10, Seed: 7, Workers: 2}
	warm := candidates.NewWarm()
	stored := opts
	stored.Warm = warm
	full, err := sess.TopK(context.Background(), stored)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		limit  int
		prefix string
		hit    budget.Report // the hit's meter report after it fails
		cold   bool          // the cold run leaves the same report
	}{
		{full.Budget.CandidateGen - 1, "core: candidate generation (MMSD)",
			budget.Report{Limit: full.Budget.CandidateGen - 1}, false},
		{full.Budget.Total() - 1, "core: extraction phase",
			budget.Report{Limit: full.Budget.Total() - 1, CandidateGen: full.Budget.CandidateGen}, true},
	} {
		cold := opts
		cold.Meter = budget.NewMeterSSSP(c.limit)
		_, coldErr := sess.TopK(context.Background(), cold)
		hit := stored
		hit.Meter = budget.NewMeterSSSP(c.limit)
		_, hitErr := sess.TopK(context.Background(), hit)
		for i, err := range []error{coldErr, hitErr} {
			if !errors.Is(err, budget.ErrExhausted) || !strings.HasPrefix(err.Error(), c.prefix) {
				t.Errorf("limit %d: %s run returned %v, want %q wrapping ErrExhausted", c.limit, []string{"cold", "hit"}[i], err, c.prefix)
			}
		}
		if hr := hit.Meter.Report(); hr != c.hit {
			t.Errorf("limit %d: hit left %+v, want %+v", c.limit, hr, c.hit)
		}
		if cr := cold.Meter.Report(); c.cold && cr != c.hit {
			t.Errorf("limit %d: cold run left %+v, hit left %+v", c.limit, cr, c.hit)
		}
	}
	if _, _, _, ok := warm.Lookup(warmCacheKey(stored)); !ok {
		t.Error("a failed hit dropped the stored query")
	}
}

// TestPrunedTraceConsistency pins the observability contract of pruning:
// skipped candidates were still charged, so the trace's charge-based
// per-phase SSSP attribution and the budget report stay exactly what a
// top-K run with a threshold starting at 1 produces — the savings appear
// only in the kernel machine-work counters and the prune/pruned-BFS series
// on /metrics.
func TestPrunedTraceConsistency(t *testing.T) {
	sp := growingPair(t, 400, 9)
	base := Options{Selector: candidates.MMSD(), M: 30, L: 5, K: 3, Seed: 7, Workers: 2}

	fullBefore := sssp.SnapshotMetrics()
	full, err := TopK(sp, base)
	if err != nil {
		t.Fatal(err)
	}
	fullWork := sssp.SnapshotMetrics().Sub(fullBefore).Total()
	exact := exactExtraction(t, sp, base, full)
	if len(exact) < base.K {
		t.Skipf("only %d pairs on this graph", len(exact))
	}

	// Start the threshold at the true kth Δ (the δ = kth query) so candidate
	// skips are certain from the first dequeue, then check every accounting
	// surface.
	opts := kthFloor(base, exact[base.K-1].Delta)
	tr := obs.New("pruned")
	opts.Trace = tr
	prunedBefore := sssp.SnapshotMetrics()
	pruned, err := TopK(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	prunedWork := sssp.SnapshotMetrics().Sub(prunedBefore).Total()

	requireExact(t, "traced", sp, opts, pruned)
	requireSameResult(t, "traced", full, firstK(pruned, base.K))
	byPhase := tr.SSSPByPhase()
	if got := byPhase["candidate-generation"]; got != pruned.Budget.CandidateGen {
		t.Errorf("traced candidate-generation = %d, budget report = %d", got, pruned.Budget.CandidateGen)
	}
	if got := byPhase["top-k-extraction"]; got != pruned.Budget.TopK {
		t.Errorf("traced top-k-extraction = %d, budget report = %d", got, pruned.Budget.TopK)
	}
	if prunedWork.Edges >= fullWork.Edges {
		t.Errorf("δ = kth run scanned %d edges, top-K scanned %d — expected a reduction",
			prunedWork.Edges, fullWork.Edges)
	}

	// The flight recorder's newest record is the pruned run: its candidate
	// count must include the skipped ones (they were charged and remain part
	// of Result.Candidates) and the pruned split must be populated.
	recs := obs.Flight.Last(1)
	if len(recs) != 1 {
		t.Fatal("flight recorder empty")
	}
	rec := recs[0]
	if rec.PrunedCandidates != pruned.Pruned.CandidatesSkipped {
		t.Errorf("flight pruned_candidates = %d, result reports %d",
			rec.PrunedCandidates, pruned.Pruned.CandidatesSkipped)
	}
	if rec.Candidates != len(pruned.Candidates) {
		t.Errorf("flight candidates = %d, want %d (skips must not shrink the candidate set)",
			rec.Candidates, len(pruned.Candidates))
	}
	if rec.Kernels.PrunedBFSCalls == 0 {
		t.Error("flight record shows no pruned-BFS calls — the extraction bound never reached a kernel")
	}
	if rows := rec.Kernels.Sources + rec.Kernels.PrunedBFSCalls; pruned.Pruned.CandidatesSkipped > 0 && rows >= int64(pruned.Budget.Total()) {
		t.Errorf("pruned run traversed %d rows for %d charged — skipped candidates still traversed?",
			rows, pruned.Budget.Total())
	}

	// The new counter families must be on /metrics.
	var buf bytes.Buffer
	if err := obs.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"prune.candidates_skipped", "prune.threshold_raises",
		"sssp.pruned_cutoffs", "sssp.prunedbfs_calls",
	} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("/metrics is missing %s", name)
		}
	}
}

// TestKthBoundaryTies pins the tie discipline on a crafted graph where many
// pairs share the kth Δ: the pruned run must keep the oracle's canonical
// winners for every k around the tie plateau.
func TestKthBoundaryTies(t *testing.T) {
	// A star that gains spokes-to-spokes shortcuts: every shortcut pair
	// converges by the same Δ (2 -> 1), giving a wide tie plateau.
	var stream []graph.TimedEdge
	const spokes = 40
	for i := 1; i <= spokes; i++ {
		stream = append(stream, graph.TimedEdge{U: 0, V: i, Time: int64(len(stream))})
	}
	for i := 1; i+1 <= spokes; i += 2 {
		stream = append(stream, graph.TimedEdge{U: i, V: i + 1, Time: int64(len(stream))})
	}
	ev, err := graph.NewEvolving(stream)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ev.Pair(float64(spokes)/float64(len(stream)), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 5, 10, 19} {
		opts := Options{Selector: candidates.MMSD(), M: 20, L: 5, K: k, Seed: 1, Workers: 2}
		pruned, err := TopK(sp, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireExact(t, fmt.Sprintf("ties/k%d", k), sp, opts, pruned)
	}
}

// spanArg reads one integer annotation of the first span named span from
// the trace's Chrome export.
func spanArg(t *testing.T, tr *obs.Trace, span, key string) int {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, e := range doc.TraceEvents {
		if e.Name == span {
			v, ok := e.Args[key].(float64)
			if !ok {
				t.Fatalf("span %s has no numeric %s: %v", span, key, e.Args)
			}
			return int(v)
		}
	}
	t.Fatalf("trace has no %s span", span)
	return 0
}

// TestEmissionCut pins that a top-K query emits only pairs that can still
// reach the top-k. At one worker it emits strictly fewer pairs than its
// candidates have with Δ >= 1 and still returns the oracle's pairs. Started
// at its own final kth Δ (the δ = kth query), the threshold never moves, so
// at any worker count it emits exactly the candidate pairs with Δ >= that
// kth Δ, ties included. A δ query emits exactly the pairs the oracle
// returns.
func TestEmissionCut(t *testing.T) {
	sp := growingPair(t, 200, 3)
	base := Options{Selector: candidates.MMSD(), M: 25, L: 5, K: 10, Seed: 7, Workers: 1}

	opts := base
	opts.Trace = obs.New("emission")
	res, err := TopK(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, "k10", sp, opts, res)
	all := oraclePairs(t, sp, opts, res)
	if len(all) <= opts.K {
		t.Fatalf("only %d candidate pairs with Δ >= 1; the test is vacuous", len(all))
	}
	if got := spanArg(t, opts.Trace, "extraction", "emitted-pairs"); got >= len(all) {
		t.Errorf("k10 emitted %d pairs, want fewer than the %d candidate pairs with Δ >= 1", got, len(all))
	}

	kth := all[base.K-1].Delta
	atLeastKth := 0
	for _, p := range all {
		if p.Delta >= kth {
			atLeastKth++
		}
	}
	for _, workers := range []int{1, 3} {
		opts := kthFloor(base, kth)
		opts.Workers = workers
		opts.Trace = obs.New("emission-seeded")
		seeded, err := TopK(sp, opts)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("seeded/workers%d", workers)
		requireExact(t, label, sp, opts, seeded)
		requireSameResult(t, label, res, firstK(seeded, base.K))
		if got := spanArg(t, opts.Trace, "extraction", "emitted-pairs"); got != atLeastKth {
			t.Errorf("%s: emitted %d pairs, want the %d candidate pairs with Δ >= %d", label, got, atLeastKth, kth)
		}
	}

	for _, delta := range []int32{1, 2, 3} {
		opts := Options{Selector: candidates.MMSD(), M: 25, L: 5, MinDelta: delta, Seed: 7, Workers: 2, Trace: obs.New("emission-delta")}
		res, err := TopK(sp, opts)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("delta%d", delta)
		requireExact(t, label, sp, opts, res)
		want := exactExtraction(t, sp, opts, res)
		if got := spanArg(t, opts.Trace, "extraction", "emitted-pairs"); got != len(want) {
			t.Errorf("%s: emitted %d pairs, want the oracle's %d", label, got, len(want))
		}
	}
}

// TestLandmarkBoundsSound holds landmarkBounds to the exact Δ on growing
// pairs whose G_t1 components only G_t2's new edges join, with landmarks
// anywhere (small components and isolated nodes included): every
// candidate's bound is at least the Δ of each of its pairs, read from
// sssp.Distances rows on both snapshots.
func TestLandmarkBoundsSound(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		sp := fuzzGrowingPair(t, seed, 30+int(seed)*2, 1+int(seed)%3, int(seed)%12, 0.5+float64(seed%5)/10)
		n := sp.G2.NumNodes()
		rng := rand.New(rand.NewSource(seed))
		cctx := &candidates.Context{D1Rows: map[int][]int32{}, D2Rows: map[int][]int32{}}
		for _, w := range rng.Perm(n)[:4] {
			cctx.LandmarkNodes = append(cctx.LandmarkNodes, w)
			cctx.D1Rows[w], cctx.D2Rows[w] = sssp.Distances(sp.G1, w), sssp.Distances(sp.G2, w)
		}
		cands := rng.Perm(n)[:n/2]
		bounds := landmarkBounds(cctx, cands)
		for i, u := range cands {
			d1, d2 := sssp.Distances(sp.G1, u), sssp.Distances(sp.G2, u)
			for v := range d1 {
				if d1[v] > 0 && d1[v]-d2[v] > bounds[i] {
					t.Fatalf("seed %d: pair (%d, %d) has Δ %d = %d − %d above candidate %d's bound %d",
						seed, u, v, d1[v]-d2[v], d1[v], d2[v], u, bounds[i])
				}
			}
		}
	}
}

// TestMaxGain holds maxGain's four partial maxima to the single
// loop-carried max it replaced, max(0, max over v of ld1[v] − ld2[v]), on
// random rows of every length from 0 to 13 (each remainder of the
// four-node stride), with unreachable (−1) entries mixed in.
func TestMaxGain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		n := trial % 14
		ld1, ld2 := make([]int32, n), make([]int32, n+trial%3)
		for v := range ld1 {
			ld1[v], ld2[v] = int32(rng.Intn(12))-1, int32(rng.Intn(12))-1
		}
		var want int32
		for v := range ld1 {
			want = max(want, ld1[v]-ld2[v])
		}
		if got := maxGain(ld1, ld2); got != want {
			t.Fatalf("trial %d: maxGain(%v, %v) = %d, want %d", trial, ld1, ld2, got, want)
		}
	}
}
