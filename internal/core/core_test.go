package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/candidates"
	"repro/internal/graph"
	"repro/internal/topk"
)

func growingPair(t testing.TB, n int, seed int64) graph.SnapshotPair {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seen := map[graph.Edge]struct{}{}
	var stream []graph.TimedEdge
	add := func(u, v int) {
		if u == v {
			return
		}
		c := graph.Edge{U: u, V: v}.Canon()
		if _, dup := seen[c]; dup {
			return
		}
		seen[c] = struct{}{}
		stream = append(stream, graph.TimedEdge{U: u, V: v, Time: int64(len(stream))})
	}
	for i := 1; i < n; i++ {
		add(i, rng.Intn(i))
		if i > 2 && rng.Intn(3) == 0 {
			add(i, rng.Intn(i))
		}
	}
	ev, err := graph.NewEvolving(stream)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ev.Pair(0.8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestTopKValidation(t *testing.T) {
	sp := growingPair(t, 40, 1)
	if _, err := TopK(sp, Options{M: 5, K: 3}); err != ErrNoSelector {
		t.Fatalf("err = %v, want ErrNoSelector", err)
	}
	sel := candidates.Degree()
	if _, err := TopK(sp, Options{Selector: sel, M: 5}); err == nil {
		t.Fatal("neither K nor MinDelta should fail")
	}
	if _, err := TopK(sp, Options{Selector: sel, M: 5, K: 3, MinDelta: 2}); err == nil {
		t.Fatal("both K and MinDelta should fail")
	}
	if _, err := TopK(sp, Options{Selector: sel, M: 5, K: -5, MinDelta: 2}); err == nil {
		t.Fatal("a negative K beside a positive MinDelta should fail")
	}
	if _, err := TopK(sp, Options{Selector: sel, M: 5, K: 5, MinDelta: -1}); err == nil {
		t.Fatal("a negative MinDelta beside a positive K should fail")
	}
	if _, err := TopK(sp, Options{Selector: sel, M: 0, K: 3}); err == nil {
		t.Fatal("m=0 should fail")
	}
	bad := graph.SnapshotPair{G1: graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}), G2: graph.FromEdges(2, nil)}
	if _, err := TopK(bad, Options{Selector: sel, M: 5, K: 3}); err == nil {
		t.Fatal("invalid pair should fail")
	}
}

// TestBudgetNeverExceeds2M is the library's central guarantee: for every
// selector, a full run spends at most 2m SSSP computations, and the split
// between phases matches the paper's Table 1.
func TestBudgetNeverExceeds2M(t *testing.T) {
	sp := growingPair(t, 150, 2)
	const m, l = 20, 5
	wantGen := map[string]int{
		"Degree": 0, "DegDiff": 0, "DegRel": 0, "Random": 0,
		"MaxMin": m, "MaxAvg": m,
		"SumDiff": 2 * l, "MaxDiff": 2 * l,
		"MMSD": 2 * l, "MMMD": 2 * l, "MASD": 2 * l, "MAMD": 2 * l,
	}
	for _, name := range append([]string{"Random"}, candidates.PaperOrder...) {
		sel, err := candidates.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := TopK(sp, Options{Selector: sel, M: m, L: l, K: 10, Seed: 3, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep := res.Budget
		if rep.Total() > 2*m {
			t.Errorf("%s spent %d SSSPs > 2m=%d", name, rep.Total(), 2*m)
		}
		if rep.CandidateGen != wantGen[name] {
			t.Errorf("%s candidate-gen = %d, want %d (Table 1)", name, rep.CandidateGen, wantGen[name])
		}
		if len(res.Candidates) > m {
			t.Errorf("%s produced %d candidates > m", name, len(res.Candidates))
		}
		// The paper's accounting: every run totals exactly 2m when the
		// selector fills its whole candidate budget (all these do, since the
		// graph has >= m eligible nodes) — except hybrids/dispersion whose
		// cached rows make the total land on exactly 2m too.
		if rep.Total() != 2*m {
			t.Errorf("%s spent %d, want exactly 2m=%d", name, rep.Total(), 2*m)
		}
	}
}

// TestPipelineAgainstExact: with the candidate set in hand, the pipeline
// must return exactly the converging pairs covered by that set, in canonical
// order, matching a brute-force filter of the exact ground truth.
func TestPipelineAgainstExact(t *testing.T) {
	sp := growingPair(t, 120, 4)
	gt, err := topk.Compute(sp, topk.Options{Workers: 2, Slack: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if gt.MaxDelta < 2 {
		t.Skip("graph too tame at this seed")
	}
	res, err := TopK(sp, Options{Selector: candidates.MMSD(), M: 15, L: 5, MinDelta: 1, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Every returned pair must be a true converging pair with one endpoint
	// in the candidate set.
	truth := map[topk.Pair]bool{}
	for _, p := range gt.Pairs {
		truth[p] = true
	}
	set := res.CandidateSet()
	for _, p := range res.Pairs {
		if !truth[p] {
			t.Fatalf("returned pair %v is not a true converging pair", p)
		}
		if !set[p.U] && !set[p.V] {
			t.Fatalf("returned pair %v has no endpoint in the candidate set", p)
		}
	}
	// Conversely, every true pair covered by the candidate set must be
	// returned (MinDelta=1 returns all discovered pairs).
	got := map[topk.Pair]bool{}
	for _, p := range res.Pairs {
		got[p] = true
	}
	for _, p := range topk.CoveredBy(gt.Pairs, set) {
		if !got[p] {
			t.Fatalf("true covered pair %v missing from result", p)
		}
	}
	// Canonical order.
	for i := 1; i < len(res.Pairs); i++ {
		a, b := res.Pairs[i-1], res.Pairs[i]
		if a.Delta < b.Delta {
			t.Fatal("pairs not sorted by Delta descending")
		}
	}
}

func TestTopKCutsAtK(t *testing.T) {
	sp := growingPair(t, 120, 6)
	res, err := TopK(sp, Options{Selector: candidates.MaxAvg(), M: 10, K: 3, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) > 3 {
		t.Fatalf("got %d pairs, want <= 3", len(res.Pairs))
	}
}

func TestCoverageMetric(t *testing.T) {
	sp := growingPair(t, 120, 8)
	gt, err := topk.Compute(sp, topk.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if gt.MaxDelta == 0 {
		t.Skip("no converging pairs at this seed")
	}
	truth := gt.PairsAtLeast(gt.MaxDelta)
	res, err := TopK(sp, Options{Selector: candidates.MMSD(), M: 25, L: 5, K: len(truth), Seed: 9, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cov := res.Coverage(truth)
	if cov < 0 || cov > 1 {
		t.Fatalf("coverage = %v out of range", cov)
	}
	// Found pairs at Δmax must be a subset of truth; coverage should count
	// exactly those pairs of truth covered by the candidate set.
	want := topk.Coverage(truth, res.CandidateSet())
	if cov != want {
		t.Fatalf("Coverage() = %v, direct = %v", cov, want)
	}
}

func TestExactBaseline(t *testing.T) {
	sp := growingPair(t, 100, 10)
	pairs, err := Exact(sp, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) > 5 {
		t.Fatalf("Exact returned %d pairs", len(pairs))
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].Delta < pairs[i].Delta {
			t.Fatal("Exact pairs not sorted")
		}
	}
}

func TestMeterOverride(t *testing.T) {
	sp := growingPair(t, 80, 11)
	mt := budget.NewMeterSSSP(3) // deliberately tiny
	_, err := TopK(sp, Options{Selector: candidates.MaxMin(), M: 10, K: 5, Meter: mt, Workers: 2})
	if err == nil {
		t.Fatal("tiny meter should exhaust")
	}
}

func TestEmptyCandidates(t *testing.T) {
	// A G1 with a single edge: Degree yields at most 2 candidates; with all
	// nodes isolated except two, pipeline still works and may find nothing.
	g1 := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}})
	g2 := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	sp := graph.SnapshotPair{G1: g1, G2: g2}
	res, err := TopK(sp, Options{Selector: candidates.Degree(), M: 5, K: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 {
		t.Fatalf("no distances decreased, got %v", res.Pairs)
	}
}

func TestExactClampsAndSorts(t *testing.T) {
	sp := growingPair(t, 60, 12)
	// k far beyond the pair count clamps without panicking.
	pairs, err := Exact(sp, 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].Delta < pairs[i].Delta {
			t.Fatal("Exact pairs not sorted")
		}
	}
	// Invalid pair propagates the error.
	bad := graph.SnapshotPair{
		G1: graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}),
		G2: graph.FromEdges(2, nil),
	}
	if _, err := Exact(bad, 5, 1); err == nil {
		t.Fatal("invalid pair should fail")
	}
}

func TestSortCandidates(t *testing.T) {
	c := []int{9, 1, 5}
	SortCandidates(c)
	if c[0] != 1 || c[2] != 9 {
		t.Fatalf("sorted = %v", c)
	}
}

func TestExplain(t *testing.T) {
	// Path 0..5 in G1; G2 adds the chord {0,5}.
	g1 := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}})
	g2 := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 0, V: 5}})
	sp := graph.SnapshotPair{G1: g1, G2: g2}
	p := topk.Pair{U: 0, V: 5, D1: 5, D2: 1, Delta: 4}
	exp, err := Explain(sp, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Path) != 2 || exp.Path[0] != 0 || exp.Path[1] != 5 {
		t.Fatalf("path = %v", exp.Path)
	}
	if len(exp.NewEdges) != 1 || exp.NewEdges[0] != (graph.Edge{U: 0, V: 5}) {
		t.Fatalf("new edges = %v", exp.NewEdges)
	}
	if len(exp.OldEdges) != 0 {
		t.Fatalf("old edges = %v", exp.OldEdges)
	}
	s := exp.String()
	if s == "" || !containsAll(s, "==", "(0,5)") {
		t.Fatalf("explanation string = %q", s)
	}
	// Pair (1,5): d2 = 2 via 1-0-5; one old edge, one new edge.
	exp, err = Explain(sp, topk.Pair{U: 1, V: 5, D1: 4, D2: 2, Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.NewEdges) != 1 || len(exp.OldEdges) != 1 {
		t.Fatalf("edges = new %v old %v", exp.NewEdges, exp.OldEdges)
	}
	// Stale result (wrong D2) is rejected.
	if _, err := Explain(sp, topk.Pair{U: 0, V: 5, D1: 5, D2: 3, Delta: 2}); err == nil {
		t.Fatal("stale D2 should fail")
	}
	// Non-canonical / out-of-range pairs are rejected.
	if _, err := Explain(sp, topk.Pair{U: 5, V: 0}); err == nil {
		t.Fatal("non-canonical pair should fail")
	}
	if _, err := Explain(sp, topk.Pair{U: 0, V: 99}); err == nil {
		t.Fatal("out-of-range pair should fail")
	}
	// Disconnected pair in G2.
	disc := graph.SnapshotPair{
		G1: graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}),
		G2: graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}),
	}
	if _, err := Explain(disc, topk.Pair{U: 0, V: 2, D2: 1}); err == nil {
		t.Fatal("disconnected pair should fail")
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

func TestCriticalNewEdges(t *testing.T) {
	// Ring of 12 with two chords; the chord {0,6} shortcuts more pairs.
	b := graph.NewBuilder(12)
	for i := 0; i < 12; i++ {
		_ = b.AddEdge(i, (i+1)%12)
	}
	g1 := b.Build()
	_ = b.AddEdge(0, 6)
	_ = b.AddEdge(3, 5)
	g2 := b.Build()
	sp := graph.SnapshotPair{G1: g1, G2: g2}
	gt, err := topk.Compute(sp, topk.Options{Workers: 1, Slack: 100})
	if err != nil {
		t.Fatal(err)
	}
	impacts := CriticalNewEdges(sp, gt.Pairs, 0)
	if len(impacts) == 0 {
		t.Fatal("no impacts")
	}
	if impacts[0].Edge != (graph.Edge{U: 0, V: 6}) {
		t.Fatalf("top edge = %v, want {0,6}", impacts[0].Edge)
	}
	for i := 1; i < len(impacts); i++ {
		if impacts[i-1].Pairs < impacts[i].Pairs {
			t.Fatal("impacts not sorted")
		}
	}
	top1 := CriticalNewEdges(sp, gt.Pairs, 1)
	if len(top1) != 1 {
		t.Fatalf("topN = %v", top1)
	}
	// Stale pairs are skipped, not fatal.
	if got := CriticalNewEdges(sp, []topk.Pair{{U: 0, V: 6, D2: 9}}, 0); len(got) != 0 {
		t.Fatalf("stale pair produced impacts: %v", got)
	}
}

// badSelector returns duplicate and out-of-range candidates to exercise
// core's defenses.
type badSelector struct{ cands []int }

func (badSelector) Name() string                                { return "Bad" }
func (s badSelector) Select(*candidates.Context) ([]int, error) { return s.cands, nil }

func TestSelectorDefenses(t *testing.T) {
	sp := growingPair(t, 40, 14)
	// Duplicates are deduped, not double-counted.
	res, err := TopK(sp, Options{Selector: badSelector{cands: []int{1, 1, 2}}, M: 5, K: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 2 {
		t.Fatalf("candidates = %v, want deduped to 2", res.Candidates)
	}
	// Out-of-range candidates are rejected.
	if _, err := TopK(sp, Options{Selector: badSelector{cands: []int{9999}}, M: 5, K: 3}); err == nil {
		t.Fatal("out-of-range candidate should fail")
	}
	// Over-budget candidate lists are rejected.
	many := make([]int, 10)
	for i := range many {
		many[i] = i
	}
	if _, err := TopK(sp, Options{Selector: badSelector{cands: many}, M: 5, K: 3}); err == nil {
		t.Fatal("over-budget candidates should fail")
	}
}
