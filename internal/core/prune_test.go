package core

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/candidates"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sssp"
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

// requireSameResult asserts the full and pruned runs of one query agree on
// everything the algorithm defines: pairs (bit-equal, post sort-cut),
// candidates, and the budget report.
func requireSameResult(t *testing.T, label string, full, pruned *Result) {
	t.Helper()
	if !reflect.DeepEqual(full.Pairs, pruned.Pairs) {
		t.Errorf("%s: pairs differ:\nfull   %v\npruned %v", label, full.Pairs, pruned.Pairs)
	}
	if !reflect.DeepEqual(full.Candidates, pruned.Candidates) {
		t.Errorf("%s: candidates differ:\nfull   %v\npruned %v", label, full.Candidates, pruned.Candidates)
	}
	if full.Budget != pruned.Budget {
		t.Errorf("%s: budget reports differ: full %+v, pruned %+v", label, full.Budget, pruned.Budget)
	}
}

// TestPrunedEquivalentFuzz is the pruning differential: across selectors
// (landmark-using and not) and connected and disconnected random graphs,
// the pruned extraction must be bit-identical to the full one. Small k on dense-delta graphs makes ties at
// the kth boundary routine, so the strict-inequality cut discipline (ties at
// the threshold are kept) is exercised throughout.
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
			for _, k := range []int{3, 10} {
				label := g.name + "/" + selName
				opts := Options{Selector: sel, M: 25, L: 5, K: k, Seed: 7, Workers: 3}
				opts.Prune = PruneOff
				full, err := TopK(g.sp, opts)
				if err != nil {
					t.Fatalf("%s full: %v", label, err)
				}
				opts.Prune = PruneAuto
				pruned, err := TopK(g.sp, opts)
				if err != nil {
					t.Fatalf("%s pruned: %v", label, err)
				}
				if !pruned.Pruned.Enabled {
					t.Fatalf("%s: PruneAuto did not prune a top-k query", label)
				}
				requireSameResult(t, label, full, pruned)
			}
		}
	}
}

// TestPruneAutoSkipsMinDelta: a δ-threshold query must return every
// qualifying pair, so PruneAuto must leave it unpruned (and the result must
// of course match a PruneOff run).
func TestPruneAutoSkipsMinDelta(t *testing.T) {
	sp := growingPair(t, 150, 11)
	opts := Options{Selector: candidates.MMSD(), M: 20, L: 5, MinDelta: 2, Seed: 7, Workers: 2}
	auto, err := TopK(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Pruned.Enabled {
		t.Fatal("PruneAuto pruned a MinDelta query")
	}
	opts.Prune = PruneOff
	off, err := TopK(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "mindelta", auto, off)
}

// TestPruneSeedSound: seeding the threshold with the true kth Δ of the same
// query (the strongest seed the warm cache can ever supply) must not change
// the result. The seed is stored straight into a fresh warm cache, so the
// selection still runs cold and only the kth-Δ entry differs.
func TestPruneSeedSound(t *testing.T) {
	sp := growingPair(t, 200, 3)
	opts := Options{Selector: candidates.MMSD(), M: 25, L: 5, K: 10, Seed: 7, Workers: 2}
	opts.Prune = PruneOff
	full, err := TopK(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Pairs) < opts.K {
		t.Skipf("only %d pairs on this graph", len(full.Pairs))
	}
	opts.Prune = PruneAuto
	opts.Warm = candidates.NewWarm()
	opts.Warm.StoreKthDelta(warmCacheKey(opts), opts.K, full.Pairs[opts.K-1].Delta)
	before := metricValue(t, "prune.threshold_seeded")
	seeded, err := TopK(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, "prune.threshold_seeded") - before; got != 1 {
		t.Fatalf("threshold seeded %d times, want 1: the stored kth Δ went unused", got)
	}
	requireSameResult(t, "seeded", full, seeded)
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
// kth Δ of the same query), so the warm result must also equal an unpruned
// run.
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
	opts.Prune = PruneOff
	off, err := sess.TopK(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "warm-vs-unpruned", off, warmRes)
}

// TestPrunedTraceConsistency pins the observability contract of pruning:
// skipped candidates were still charged, so the trace's charge-based
// per-phase SSSP attribution and the budget report stay exactly what the
// full run produces — the savings appear only in the kernel machine-work
// counters and the prune/pruned-BFS series on /metrics.
func TestPrunedTraceConsistency(t *testing.T) {
	sp := growingPair(t, 400, 9)
	base := Options{Selector: candidates.MMSD(), M: 30, L: 5, K: 3, Seed: 7, Workers: 2}

	opts := base
	opts.Prune = PruneOff
	fullBefore := sssp.SnapshotMetrics()
	full, err := TopK(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	fullWork := sssp.SnapshotMetrics().Sub(fullBefore).Total()
	if len(full.Pairs) < base.K {
		t.Skipf("only %d pairs on this graph", len(full.Pairs))
	}

	// Seed the threshold with the true kth Δ so candidate skips are certain
	// from the first dequeue, then check every accounting surface. The seed
	// goes into a fresh warm cache that holds nothing else, so the selection
	// still runs cold.
	opts = base
	opts.Prune = PruneAuto
	opts.Warm = candidates.NewWarm()
	opts.Warm.StoreKthDelta(warmCacheKey(opts), base.K, full.Pairs[base.K-1].Delta)
	tr := obs.New("pruned")
	opts.Trace = tr
	prunedBefore := sssp.SnapshotMetrics()
	pruned, err := TopK(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	prunedWork := sssp.SnapshotMetrics().Sub(prunedBefore).Total()

	requireSameResult(t, "traced", full, pruned)
	byPhase := tr.SSSPByPhase()
	if got := byPhase["candidate-generation"]; got != pruned.Budget.CandidateGen {
		t.Errorf("traced candidate-generation = %d, budget report = %d", got, pruned.Budget.CandidateGen)
	}
	if got := byPhase["top-k-extraction"]; got != pruned.Budget.TopK {
		t.Errorf("traced top-k-extraction = %d, budget report = %d", got, pruned.Budget.TopK)
	}
	if prunedWork.Edges >= fullWork.Edges {
		t.Errorf("pruned run scanned %d edges, full scanned %d — expected a reduction",
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
	if pruned.Pruned.CandidatesSkipped > 0 && rec.Kernels.Calls+rec.Kernels.PrunedBFSCalls >= fullWork.Calls {
		t.Errorf("pruned run ran %d+%d traversals, full ran %d — skipped candidates still traversed?",
			rec.Kernels.Calls, rec.Kernels.PrunedBFSCalls, fullWork.Calls)
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
// pairs share the kth Δ: the pruned run must keep the same canonical winners
// as the full run for every k around the tie plateau.
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
		opts.Prune = PruneOff
		full, err := TopK(sp, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Prune = PruneAuto
		pruned, err := TopK(sp, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "ties", full, pruned)
	}
}
