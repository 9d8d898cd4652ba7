package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/candidates"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sssp"
	"repro/internal/topk"
)

// disconnectedPair builds a snapshot pair whose stream grows `comps`
// independent components — no edge ever bridges them, so every distance row
// carries unreachable entries and the pruned kernels' histogram setup must
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
// shapes (pruned) and δ shapes (full rows, including a δ above every Δmax),
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

// TestPruneAutoSkipsMinDelta pins the fixed pruning policy for δ queries:
// they must return every qualifying pair, so they run full rows. The result
// equals the oracle, no candidate is skipped, and no bounded traversal runs.
func TestPruneAutoSkipsMinDelta(t *testing.T) {
	sp := growingPair(t, 150, 11)
	opts := Options{Selector: candidates.MMSD(), M: 20, L: 5, MinDelta: 2, Seed: 7, Workers: 2}
	before := sssp.SnapshotMetrics()
	res, err := TopK(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls := sssp.SnapshotMetrics().Sub(before).PrunedBFS.Calls; calls != 0 {
		t.Errorf("δ query ran %d bounded traversals, want 0", calls)
	}
	if res.Pruned.CandidatesSkipped != 0 {
		t.Errorf("δ query skipped %d candidates, want 0", res.Pruned.CandidatesSkipped)
	}
	requireExact(t, "mindelta", sp, opts, res)
}

// TestPruneSeedSound: seeding the threshold with the true kth Δ of the same
// query (the strongest seed the warm cache can ever supply) must not change
// the result. The seed is stored straight into a fresh warm cache, so the
// selection still runs cold and only the kth-Δ entry differs.
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
	opts.Warm = candidates.NewWarm()
	opts.Warm.StoreKthDelta(warmCacheKey(opts), opts.K, exact[opts.K-1].Delta)
	before := metricValue(t, "prune.threshold_seeded")
	seeded, err := TopK(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, "prune.threshold_seeded") - before; got != 1 {
		t.Fatalf("threshold seeded %d times, want 1: the stored kth Δ went unused", got)
	}
	requireExact(t, "seeded", sp, opts, seeded)
	requireSameResult(t, "seeded", plain, seeded)
}

// metricValue reads one unlabeled series from the /metrics exposition.
func metricValue(t *testing.T, name string) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics is missing %s", name)
	return 0
}

// TestWarmCacheIdentical: repeated queries on one session with a shared warm
// cache must return bit-identical results (pairs, candidates, budget) while
// doing strictly less traversal work on the repeat — the selection is
// replayed from the memo and the kth-Δ seed starts the threshold tight.
// The kth-Δ seed is the strongest one pruning can ever get (the true final
// kth Δ of the same query), so the warm result must also equal the oracle.
func TestWarmCacheIdentical(t *testing.T) {
	sp := growingPair(t, 200, 17)
	sess, err := NewSession(sp)
	if err != nil {
		t.Fatal(err)
	}
	warm := candidates.NewWarm()
	opts := Options{Selector: candidates.MMSD(), M: 25, L: 5, K: 10, Seed: 7, Workers: 2, Warm: warm}

	before := sssp.SnapshotMetrics()
	cold, err := sess.TopK(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	coldWork := sssp.SnapshotMetrics().Sub(before).Total()

	before = sssp.SnapshotMetrics()
	warmRes, err := sess.TopK(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	warmWork := sssp.SnapshotMetrics().Sub(before).Total()

	requireSameResult(t, "warm", cold, warmRes)
	if warmWork.Edges >= coldWork.Edges {
		t.Errorf("warm query scanned %d edges, cold scanned %d — expected a reduction",
			warmWork.Edges, coldWork.Edges)
	}
	// The same query without the warm cache must also agree — warm reuse may
	// never steer the result.
	opts.Warm = nil
	plain, err := sess.TopK(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "warm-vs-plain", cold, plain)
	requireExact(t, "warm-vs-exact", sp, opts, warmRes)
}

// TestPrunedTraceConsistency pins the observability contract of pruning:
// skipped candidates were still charged, so the trace's charge-based
// per-phase SSSP attribution and the budget report stay exactly what an
// unseeded run produces — the savings appear only in the kernel machine-work
// counters and the prune/pruned-BFS series on /metrics.
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

	// Seed the threshold with the true kth Δ so candidate skips are certain
	// from the first dequeue, then check every accounting surface. The seed
	// goes into a fresh warm cache that holds nothing else, so the selection
	// still runs cold.
	opts := base
	opts.Warm = candidates.NewWarm()
	opts.Warm.StoreKthDelta(warmCacheKey(opts), base.K, exact[base.K-1].Delta)
	tr := obs.New("pruned")
	opts.Trace = tr
	prunedBefore := sssp.SnapshotMetrics()
	pruned, err := TopK(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	prunedWork := sssp.SnapshotMetrics().Sub(prunedBefore).Total()

	requireExact(t, "traced", sp, opts, pruned)
	requireSameResult(t, "traced", full, pruned)
	byPhase := tr.SSSPByPhase()
	if got := byPhase["candidate-generation"]; got != pruned.Budget.CandidateGen {
		t.Errorf("traced candidate-generation = %d, budget report = %d", got, pruned.Budget.CandidateGen)
	}
	if got := byPhase["top-k-extraction"]; got != pruned.Budget.TopK {
		t.Errorf("traced top-k-extraction = %d, budget report = %d", got, pruned.Budget.TopK)
	}
	if prunedWork.Edges >= fullWork.Edges {
		t.Errorf("seeded run scanned %d edges, unseeded scanned %d — expected a reduction",
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
		"sssp.pruned_cutoffs", "sssp.pruned_edges", "sssp.prunedbfs_calls",
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
// candidates have with Δ >= 1 and still returns the oracle's pairs. Seeded
// with its own final kth Δ, the threshold never moves, so at any worker
// count it emits exactly the candidate pairs with Δ >= that kth Δ, ties
// included. A δ query emits exactly the pairs the oracle returns.
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
		opts := base
		opts.Workers = workers
		opts.Warm = candidates.NewWarm()
		opts.Warm.StoreKthDelta(warmCacheKey(opts), opts.K, kth)
		opts.Trace = obs.New("emission-seeded")
		seeded, err := TopK(sp, opts)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("seeded/workers%d", workers)
		requireExact(t, label, sp, opts, seeded)
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
