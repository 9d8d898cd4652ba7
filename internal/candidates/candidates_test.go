package candidates

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/budget"
	"repro/internal/graph"
)

// growingGraph builds a deterministic preferential-attachment-ish evolving
// graph and returns the (80%, 100%) snapshot pair.
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

func newCtx(sp graph.SnapshotPair, m, l int, seed int64) *Context {
	return &Context{
		Pair:    sp,
		M:       m,
		L:       l,
		RNG:     rand.New(rand.NewSource(seed)),
		Meter:   budget.NewMeter(m),
		Workers: 2,
	}
}

func TestContextValidate(t *testing.T) {
	sp := growingPair(t, 50, 1)
	ctx := &Context{Pair: sp, M: 0}
	if err := ctx.Validate(); err == nil {
		t.Error("m=0 should fail")
	}
	bad := &Context{Pair: graph.SnapshotPair{}, M: 5}
	if err := bad.Validate(); err == nil {
		t.Error("nil snapshots should fail")
	}
	if (&Context{L: 0}).Landmarks() != DefaultLandmarks {
		t.Error("default landmarks wrong")
	}
	if (&Context{L: 7}).Landmarks() != 7 {
		t.Error("explicit landmarks wrong")
	}
}

func TestDegreeSelectors(t *testing.T) {
	// G1: star center 0 with leaves 1..4; node 5 isolated in G1.
	// G2 adds: 5-1, 5-2, 5-3 (node 5 has deg1=0 -> excluded from all),
	// and 4-1 (deg(4): 1->2, relative change 1.0; deg(1): 1->3).
	g1 := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}})
	g2 := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4},
		{U: 5, V: 1}, {U: 5, V: 2}, {U: 5, V: 3}, {U: 4, V: 1},
	})
	sp := graph.SnapshotPair{G1: g1, G2: g2}

	sel := Degree()
	got, err := sel.Select(newCtx(sp, 1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("Degree top-1 = %v, want [0]", got)
	}

	got, err = DegDiff().Select(newCtx(sp, 1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 gains 2 edges (from 5 and 4); nodes 2,3 gain 1; node 5 excluded.
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("DegDiff top-1 = %v, want [1]", got)
	}

	got, err = DegRel().Select(newCtx(sp, 2, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Relative: node 1: 2/1 = 2.0 best; nodes 2,3,4: 1/1 = 1.0.
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("DegRel top-2 = %v, want [1 2]", got)
	}

	// Degree selectors spend nothing on candidate generation.
	ctx := newCtx(sp, 3, 0, 1)
	if _, err := Degree().Select(ctx); err != nil {
		t.Fatal(err)
	}
	if rep := ctx.Meter.Report(); rep.CandidateGen != 0 {
		t.Fatalf("Degree charged %d SSSPs", rep.CandidateGen)
	}

	// Randomized half: each selector against a full-sort reference, on
	// graphs whose degrees repeat (heavy ties), with nodes absent from G_t1
	// scattered among the IDs, and m below, at and above the eligible count.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.Intn(40)
		absent := make([]bool, n)
		var present []int
		for u := range absent {
			if absent[u] = rng.Intn(4) == 0; !absent[u] {
				present = append(present, u)
			}
		}
		var e1, e2 []graph.Edge
		for i := 0; len(present) > 1 && i < n; i++ {
			u, v := present[rng.Intn(len(present))], present[rng.Intn(len(present))]
			if u != v {
				e1 = append(e1, graph.Edge{U: u, V: v})
			}
		}
		e2 = append(e2, e1...)
		for i := 0; i < n/2; i++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				e2 = append(e2, graph.Edge{U: u, V: v})
			}
		}
		sp := graph.SnapshotPair{G1: graph.FromEdges(n, e1), G2: graph.FromEdges(n, e2)}
		eligible := 0
		for u := 0; u < n; u++ {
			if sp.G1.Degree(u) > 0 {
				eligible++
			}
		}
		for _, sel := range []degreeSelector{{byDegree}, {byDegDiff}, {byDegRel}} {
			for _, m := range []int{1, max(1, eligible-1), max(1, eligible), eligible + 3} {
				got, err := sel.Select(newCtx(sp, m, 0, 1))
				if err != nil {
					t.Fatal(err)
				}
				if want := degreeReference(sel.kind, sp, m); !slices.Equal(got, want) {
					t.Fatalf("trial %d: %s m=%d (eligible %d) = %v, want %v", trial, sel.Name(), m, eligible, got, want)
				}
			}
		}
	}
}

// degreeReference is the full-sort ranking of the degree selectors: every
// node present in G_t1, by score descending and then node ID ascending,
// cut to m.
func degreeReference(kind degreeKind, sp graph.SnapshotPair, m int) []int {
	score := map[int]float64{}
	var eligible []int
	for u := 0; u < sp.G1.NumNodes(); u++ {
		d1, d2 := sp.G1.Degree(u), sp.G2.Degree(u)
		if d1 == 0 {
			continue
		}
		switch kind {
		case byDegree:
			score[u] = float64(d1)
		case byDegDiff:
			score[u] = float64(d2 - d1)
		default:
			score[u] = float64(d2-d1) / float64(d1)
		}
		eligible = append(eligible, u)
	}
	sort.Slice(eligible, func(i, j int) bool {
		if a, b := score[eligible[i]], score[eligible[j]]; a != b {
			return a > b
		}
		return eligible[i] < eligible[j]
	})
	return eligible[:min(m, len(eligible))]
}

func TestRandomSelector(t *testing.T) {
	sp := growingPair(t, 60, 3)
	ctx := newCtx(sp, 10, 0, 4)
	got, err := Random().Select(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d candidates", len(got))
	}
	seen := map[int]bool{}
	for _, u := range got {
		if seen[u] {
			t.Fatal("duplicate candidate")
		}
		seen[u] = true
		if sp.G1.Degree(u) == 0 {
			t.Fatalf("candidate %d absent from G1", u)
		}
	}
	ctx.RNG = nil
	if _, err := Random().Select(ctx); err == nil {
		t.Fatal("Random without RNG should fail")
	}
}

func TestDispersionSelectorCachesAndCharges(t *testing.T) {
	sp := growingPair(t, 80, 5)
	for _, sel := range []Selector{MaxMin(), MaxAvg()} {
		ctx := newCtx(sp, 6, 0, 6)
		got, err := sel.Select(ctx)
		if err != nil {
			t.Fatalf("%s: %v", sel.Name(), err)
		}
		if len(got) != 6 {
			t.Fatalf("%s returned %d candidates", sel.Name(), len(got))
		}
		rep := ctx.Meter.Report()
		if rep.CandidateGen != 6 {
			t.Fatalf("%s charged %d, want m=6 (Table 1)", sel.Name(), rep.CandidateGen)
		}
		for _, u := range got {
			if ctx.D1Rows[u] == nil {
				t.Fatalf("%s did not cache D1 row for %d", sel.Name(), u)
			}
		}
	}
}

func TestLandmarkSelectorDeadZone(t *testing.T) {
	sp := growingPair(t, 80, 7)
	ctx := newCtx(sp, 5, 10, 8) // m=5 <= l=10
	_, err := SumDiff().Select(ctx)
	if !errors.Is(err, ErrBudgetTooSmall) {
		t.Fatalf("err = %v, want ErrBudgetTooSmall", err)
	}
}

func TestLandmarkSelectorBudget(t *testing.T) {
	sp := growingPair(t, 80, 9)
	for _, sel := range []Selector{SumDiff(), MaxDiff()} {
		ctx := newCtx(sp, 15, 5, 10)
		got, err := sel.Select(ctx)
		if err != nil {
			t.Fatalf("%s: %v", sel.Name(), err)
		}
		// m - l candidates.
		if len(got) != 10 {
			t.Fatalf("%s returned %d candidates, want 10", sel.Name(), len(got))
		}
		// 2l SSSPs on candidate generation (Table 1).
		if rep := ctx.Meter.Report(); rep.CandidateGen != 10 {
			t.Fatalf("%s charged %d, want 2l=10", sel.Name(), rep.CandidateGen)
		}
	}
}

func TestHybridSelectorsIncludeLandmarks(t *testing.T) {
	sp := growingPair(t, 80, 11)
	for _, sel := range []Selector{MMSD(), MMMD(), MASD(), MAMD()} {
		ctx := newCtx(sp, 12, 4, 12)
		got, err := sel.Select(ctx)
		if err != nil {
			t.Fatalf("%s: %v", sel.Name(), err)
		}
		if len(got) != 12 {
			t.Fatalf("%s returned %d candidates, want m=12", sel.Name(), len(got))
		}
		// First l entries are the dispersed landmarks, with both rows cached.
		for i := 0; i < 4; i++ {
			u := got[i]
			if ctx.D1Rows[u] == nil || ctx.D2Rows[u] == nil {
				t.Fatalf("%s landmark %d rows not cached", sel.Name(), u)
			}
		}
		if rep := ctx.Meter.Report(); rep.CandidateGen != 8 {
			t.Fatalf("%s charged %d, want 2l=8 (Table 1)", sel.Name(), rep.CandidateGen)
		}
		seen := map[int]bool{}
		for _, u := range got {
			if seen[u] {
				t.Fatalf("%s produced duplicate candidate %d", sel.Name(), u)
			}
			seen[u] = true
		}
	}
}

func TestHybridFallsBackToDispersionWhenSmall(t *testing.T) {
	sp := growingPair(t, 80, 13)
	ctx := newCtx(sp, 3, 10, 14) // m < l
	got, err := MMSD().Select(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("fallback returned %d candidates", len(got))
	}
	if rep := ctx.Meter.Report(); rep.CandidateGen != 3 {
		t.Fatalf("fallback charged %d, want m=3", rep.CandidateGen)
	}
}

func TestRegistry(t *testing.T) {
	if len(Names()) != len(registry) {
		t.Fatal("Names() incomplete")
	}
	for _, name := range PaperOrder {
		sel, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Name() != name {
			t.Fatalf("selector %q reports name %q", name, sel.Name())
		}
		if Descriptions[name] == "" {
			t.Fatalf("no description for %q", name)
		}
	}
	if _, err := ByName("Nope"); err == nil {
		t.Fatal("unknown name should fail")
	}
	if len(All()) != len(PaperOrder) {
		t.Fatal("All() incomplete")
	}
}

func TestBuildFeatures(t *testing.T) {
	sp := growingPair(t, 100, 15)
	ctx := newCtx(sp, 50, 5, 16)
	x, err := BuildFeatures(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != sp.G1.NumNodes() || len(x[0]) != NumNodeFeatures {
		t.Fatalf("features %dx%d", len(x), len(x[0]))
	}
	// Feature setup budget: 3 landmark sets x 2l = 6l = 30 (Table 1).
	if rep := ctx.Meter.Report(); rep.CandidateGen != 30 {
		t.Fatalf("feature charge = %d, want 6l=30", rep.CandidateGen)
	}
	// Degree features must match the graph.
	for u := 0; u < sp.G1.NumNodes(); u++ {
		if x[u][FeatDeg1] != float64(sp.G1.Degree(u)) {
			t.Fatalf("FeatDeg1[%d] = %v", u, x[u][FeatDeg1])
		}
		if x[u][FeatDegDiff] != float64(sp.G2.Degree(u)-sp.G1.Degree(u)) {
			t.Fatalf("FeatDegDiff[%d] = %v", u, x[u][FeatDegDiff])
		}
	}

	xg, err := BuildFeatures(newCtx(sp, 50, 5, 16), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(xg[0]) != NumGlobalFeatures {
		t.Fatalf("global features width = %d", len(xg[0]))
	}
	gf := GlobalFeatures(sp)
	for j, v := range gf {
		if xg[0][NumNodeFeatures+j] != v || xg[7][NumNodeFeatures+j] != v {
			t.Fatal("global features not constant across rows")
		}
	}
	if got := len(FeatureNames(true)); got != NumGlobalFeatures {
		t.Fatalf("FeatureNames(true) = %d names", got)
	}
	if got := len(FeatureNames(false)); got != NumNodeFeatures {
		t.Fatalf("FeatureNames(false) = %d names", got)
	}
}

func TestBuildFeaturesRequiresRNG(t *testing.T) {
	sp := growingPair(t, 40, 17)
	ctx := &Context{Pair: sp, M: 10}
	if _, err := BuildFeatures(ctx, false); err == nil {
		t.Fatal("missing RNG should fail")
	}
}

func TestBetDiffSelector(t *testing.T) {
	sp := growingPair(t, 100, 19)
	sel := BetDiff(32)
	if sel.Name() != "BetDiff" {
		t.Fatal("name")
	}
	ctx := newCtx(sp, 10, 0, 20)
	got, err := sel.Select(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d candidates", len(got))
	}
	// Betweenness passes run outside the SSSP meter.
	if rep := ctx.Meter.Report(); rep.CandidateGen != 0 {
		t.Fatalf("BetDiff charged %d SSSPs", rep.CandidateGen)
	}
	for _, u := range got {
		if sp.G1.Degree(u) == 0 {
			t.Fatalf("candidate %d absent from G1", u)
		}
	}
	ctx.RNG = nil
	if _, err := sel.Select(ctx); err == nil {
		t.Fatal("missing RNG should fail")
	}
	// Default sample count.
	if BetDiff(0).(betweennessSelector).samples != 64 {
		t.Fatal("default samples")
	}
}
