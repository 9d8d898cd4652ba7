package topk

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/sssp"
)

// pairFromStreams builds a SnapshotPair over n nodes from explicit edge lists.
func pairFromEdges(n int, e1, e2 []graph.Edge) graph.SnapshotPair {
	return graph.SnapshotPair{G1: graph.FromEdges(n, e1), G2: graph.FromEdges(n, e2)}
}

func TestComputePathShortcut(t *testing.T) {
	// G1: path 0-1-2-3-4-5. G2 adds edge {0,5}.
	var e1 []graph.Edge
	for i := 0; i < 5; i++ {
		e1 = append(e1, graph.Edge{U: i, V: i + 1})
	}
	e2 := append(append([]graph.Edge{}, e1...), graph.Edge{U: 0, V: 5})
	sp := pairFromEdges(6, e1, e2)
	gt, err := Compute(sp, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// d1(0,5)=5, d2(0,5)=1 => Δmax=4.
	if gt.MaxDelta != 4 {
		t.Fatalf("MaxDelta = %d, want 4", gt.MaxDelta)
	}
	if gt.Diameter1 != 5 || gt.Diameter2 != 3 {
		t.Fatalf("diameters = %d, %d; want 5, 3", gt.Diameter1, gt.Diameter2)
	}
	top := gt.TopK(1)
	want := Pair{U: 0, V: 5, D1: 5, D2: 1, Delta: 4}
	if top[0] != want {
		t.Fatalf("top pair = %v, want %v", top[0], want)
	}
	// Hand-checked histogram: with the chord {0,5} the cycle distances are
	// d2(u,v)=min(|u-v|, 6-|u-v|): Δ=4 for (0,5); Δ=2 for (0,4),(1,5);
	// Δ=... compute all: pairs at |u-v|=5: Δ=4; |u-v|=4: d2=2, Δ=2 (2 pairs);
	// |u-v|=3: d2=3, Δ=0; shorter: Δ=0.
	if gt.Histogram[4] != 1 || gt.Histogram[2] != 2 {
		t.Fatalf("histogram = %v, want {4:1, 2:2}", gt.Histogram)
	}
	if gt.KForDelta(2) != 3 || gt.KForDelta(4) != 1 || gt.KForDelta(3) != 1 {
		t.Fatalf("KForDelta: %d %d %d", gt.KForDelta(2), gt.KForDelta(4), gt.KForDelta(3))
	}
	got := gt.PairsAtLeast(2)
	if len(got) != 3 {
		t.Fatalf("PairsAtLeast(2) = %v", got)
	}
}

func TestComputeRejectsInvalidPair(t *testing.T) {
	bad := pairFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, []graph.Edge{{U: 0, V: 1}})
	if _, err := Compute(bad, Options{}); err == nil {
		t.Fatal("deletion pair should be rejected")
	}
}

func TestComputeNoChanges(t *testing.T) {
	e := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}
	gt, err := Compute(pairFromEdges(3, e, e), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gt.MaxDelta != 0 || len(gt.Pairs) != 0 {
		t.Fatalf("identical snapshots: MaxDelta=%d, pairs=%v", gt.MaxDelta, gt.Pairs)
	}
	if gt.KForDelta(1) != 0 {
		t.Fatalf("KForDelta(1) = %d, want 0", gt.KForDelta(1))
	}
}

func TestComputeDisconnectedStaysExcluded(t *testing.T) {
	// G1 has two components; G2 connects them. Pairs across components were
	// not connected in G1, so they are not converging pairs.
	e1 := []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}
	e2 := append(append([]graph.Edge{}, e1...), graph.Edge{U: 1, V: 2})
	gt, err := Compute(pairFromEdges(4, e1, e2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gt.MaxDelta != 0 {
		t.Fatalf("MaxDelta = %d; cross-component pairs must not count", gt.MaxDelta)
	}
}

func TestPairsAtLeastPanicsBelowWindow(t *testing.T) {
	var e1 []graph.Edge
	for i := 0; i < 9; i++ {
		e1 = append(e1, graph.Edge{U: i, V: i + 1})
	}
	e2 := append(append([]graph.Edge{}, e1...), graph.Edge{U: 0, V: 9})
	gt, err := Compute(pairFromEdges(10, e1, e2), Options{Slack: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for δ below retained window")
		}
	}()
	gt.PairsAtLeast(1)
}

func TestTopKPanicsBeyondRetained(t *testing.T) {
	e1 := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}
	e2 := append(append([]graph.Edge{}, e1...), graph.Edge{U: 0, V: 3})
	gt, err := Compute(pairFromEdges(4, e1, e2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k beyond retained pairs")
		}
	}()
	gt.TopK(len(gt.Pairs) + 1)
}

// brute computes ground truth naively with per-source BFS, keeping every
// pair with Delta >= 1.
func brute(sp graph.SnapshotPair) (maxDelta int32, pairs map[Pair]bool) {
	n := sp.G1.NumNodes()
	pairs = map[Pair]bool{}
	for u := 0; u < n; u++ {
		d1 := sssp.Distances(sp.G1, u)
		d2 := sssp.Distances(sp.G2, u)
		for v := u + 1; v < n; v++ {
			if d1[v] <= 0 {
				continue
			}
			delta := d1[v] - d2[v]
			if delta > 0 {
				pairs[Pair{U: int32(u), V: int32(v), D1: d1[v], D2: d2[v], Delta: delta}] = true
				if delta > maxDelta {
					maxDelta = delta
				}
			}
		}
	}
	return maxDelta, pairs
}

// Property: on random growing graphs, the streamed/pruned parallel sweep
// agrees exactly with the brute-force computation within the slack window.
func TestComputeMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		seen := map[graph.Edge]struct{}{}
		var stream []graph.TimedEdge
		target := n + rng.Intn(2*n)
		for i := 0; len(stream) < target && i < 20*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c := graph.Edge{U: u, V: v}.Canon()
			if _, dup := seen[c]; dup {
				continue
			}
			seen[c] = struct{}{}
			stream = append(stream, graph.TimedEdge{U: u, V: v, Time: int64(len(stream))})
		}
		if len(stream) < 2 {
			return true
		}
		ev, err := graph.NewEvolving(stream)
		if err != nil {
			return false
		}
		sp, err := ev.Pair(0.7, 1.0)
		if err != nil {
			return false
		}
		gt, err := Compute(sp, Options{Workers: 4, Slack: 3})
		if err != nil {
			return false
		}
		wantMax, wantPairs := brute(sp)
		if gt.MaxDelta != wantMax {
			return false
		}
		// Every retained pair must be real, and every brute pair within the
		// window must be retained.
		floor := gt.MaxDelta - gt.Slack
		if floor < 1 {
			floor = 1
		}
		gotSet := map[Pair]bool{}
		for _, p := range gt.Pairs {
			if !wantPairs[p] || p.Delta < floor {
				return false
			}
			gotSet[p] = true
		}
		var histTotal int64
		for _, c := range gt.Histogram {
			histTotal += c
		}
		if int(histTotal) != len(wantPairs) {
			return false
		}
		for p := range wantPairs {
			if p.Delta >= floor && !gotSet[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding edges never increases any pairwise distance (Δ >= 0),
// which Compute relies on. Checked via the histogram containing no
// non-positive keys and via direct distance comparison.
func TestDeltaNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		g1 := graph.NewBuilder(n)
		for i := 0; i < n; i++ {
			_ = g1.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		built1 := g1.Build()
		for i := 0; i < n/2; i++ {
			_ = g1.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		built2 := g1.Build()
		src := rng.Intn(n)
		d1 := sssp.Distances(built1, src)
		d2 := sssp.Distances(built2, src)
		for v := range d1 {
			if d1[v] >= 0 && (d2[v] < 0 || d2[v] > d1[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSortPairsCanonicalOrder(t *testing.T) {
	pairs := []Pair{
		{U: 2, V: 3, Delta: 1},
		{U: 0, V: 5, Delta: 3},
		{U: 0, V: 4, Delta: 1},
		{U: 0, V: 2, Delta: 1},
		{U: 1, V: 9, Delta: 3},
	}
	SortPairs(pairs)
	want := []Pair{
		{U: 0, V: 5, Delta: 3},
		{U: 1, V: 9, Delta: 3},
		{U: 0, V: 2, Delta: 1},
		{U: 0, V: 4, Delta: 1},
		{U: 2, V: 3, Delta: 1},
	}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("sorted = %v", pairs)
	}
}

// TestTopPairsMatchesSortAndCut: on random distinct pairs with few Δ
// values (so thousands tie at the cut), TopPairs equals SortPairs followed
// by the cut to k, for k below, at and above the pair count and k <= 0.
func TestTopPairsMatchesSortAndCut(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		seen := map[[2]int32]bool{}
		var pairs []Pair
		for n := rng.Intn(300); len(pairs) < n; {
			u, v := int32(rng.Intn(40)), int32(rng.Intn(40))
			if u >= v || seen[[2]int32{u, v}] {
				continue
			}
			seen[[2]int32{u, v}] = true
			d := int32(rng.Intn(3) + 1)
			pairs = append(pairs, Pair{U: u, V: v, D1: d + 1, D2: 1, Delta: d})
		}
		want := slices.Clone(pairs)
		SortPairs(want)
		for _, k := range []int{0, -1, 1, rng.Intn(len(pairs) + 1), len(pairs) - 1, len(pairs), len(pairs) + 5} {
			in := slices.Clone(pairs)
			got := TopPairs(in, k)
			cut := want
			if k > 0 && k < len(want) {
				cut = want[:k]
			}
			if !slices.Equal(got, cut) {
				t.Fatalf("trial %d k=%d of %d pairs: TopPairs = %v, want %v", trial, k, len(pairs), got, cut)
			}
		}
	}
}

func TestPairsGraph(t *testing.T) {
	pairs := []Pair{
		{U: 0, V: 5, Delta: 3},
		{U: 0, V: 7, Delta: 3},
		{U: 2, V: 5, Delta: 2},
	}
	pg := NewPairsGraph(pairs)
	if pg.NumPairs() != 3 {
		t.Fatalf("NumPairs = %d", pg.NumPairs())
	}
	if got := pg.Endpoints(); !reflect.DeepEqual(got, []int32{0, 2, 5, 7}) {
		t.Fatalf("Endpoints = %v", got)
	}
	if pg.NumEndpoints() != 4 {
		t.Fatalf("NumEndpoints = %d", pg.NumEndpoints())
	}
	if pg.Degree(0) != 2 || pg.Degree(5) != 2 || pg.Degree(2) != 1 {
		t.Fatal("degrees wrong")
	}
	if !pg.IsEndpoint(7) || pg.IsEndpoint(3) {
		t.Fatal("IsEndpoint wrong")
	}
}

func TestCoverage(t *testing.T) {
	pairs := []Pair{{U: 0, V: 5}, {U: 1, V: 6}, {U: 2, V: 7}, {U: 3, V: 8}}
	set := NodeSet([]int{0, 6})
	if c := Coverage(pairs, set); c != 0.5 {
		t.Fatalf("coverage = %v, want 0.5", c)
	}
	if c := Coverage(nil, set); c != 1 {
		t.Fatalf("empty coverage = %v, want 1", c)
	}
	covered := CoveredBy(pairs, set)
	if len(covered) != 2 || covered[0].U != 0 || covered[1].V != 6 {
		t.Fatalf("CoveredBy = %v", covered)
	}
}

func TestTieTolerantCoverage(t *testing.T) {
	// Path 0..9 plus chord {0,9}: Δ histogram has one Δ=8 pair and several
	// ties below.
	var e1 []graph.Edge
	for i := 0; i < 9; i++ {
		e1 = append(e1, graph.Edge{U: i, V: i + 1})
	}
	e2 := append(append([]graph.Edge{}, e1...), graph.Edge{U: 0, V: 9})
	gt, err := Compute(pairFromEdges(10, e1, e2), Options{Slack: 100})
	if err != nil {
		t.Fatal(err)
	}
	// k=4: the 4th largest Δ is 4 and six pairs tie at Δ>=4, so the metric
	// has slack beyond the strict top-4.
	fourth := gt.TopK(4)[3].Delta
	eligible := gt.PairsAtLeast(fourth)
	if fourth != 4 || len(eligible) != 6 {
		t.Fatalf("cycle-10 structure changed: 4th Δ=%d, eligible=%d", fourth, len(eligible))
	}
	// {0,9} covers 5 of the 6 eligible pairs — enough to fill all 4 slots.
	if got := gt.TieTolerantCoverage(4, NodeSet([]int{0, 9})); got != 1 {
		t.Fatalf("tie-tolerant coverage = %v, want 1", got)
	}
	// {0} alone covers 3 eligible pairs: 3 of 4 slots.
	if got := gt.TieTolerantCoverage(4, NodeSet([]int{0})); got != 0.75 {
		t.Fatalf("partial coverage = %v, want 0.75", got)
	}
	// Empty candidates: zero.
	if got := gt.TieTolerantCoverage(4, nil); got != 0 {
		t.Fatalf("empty coverage = %v", got)
	}
	// k=0 convention.
	if got := gt.TieTolerantCoverage(0, nil); got != 1 {
		t.Fatalf("k=0 coverage = %v", got)
	}
}
