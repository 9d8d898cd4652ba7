package landmark

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/budget"
	"repro/internal/graph"
	"repro/internal/sssp"
)

func pathGraph(n int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1})
	}
	return graph.FromEdges(n, edges)
}

func TestSelectValidation(t *testing.T) {
	g := pathGraph(5)
	if _, err := Select(Random, g, 0, rand.New(rand.NewSource(1)), nil); err == nil {
		t.Error("l=0 should fail")
	}
	if _, err := Select(Random, g, 2, nil, nil); err == nil {
		t.Error("Random without rng should fail")
	}
	if _, err := Select(Strategy(99), g, 2, nil, nil); err == nil {
		t.Error("unknown strategy should fail")
	}
	empty := graph.FromEdges(0, nil)
	if _, err := Select(HighDegree, empty, 2, nil, nil); !errors.Is(err, ErrNoLandmarks) {
		t.Errorf("empty graph err = %v", err)
	}
}

func TestSelectRandomFromLargestComponent(t *testing.T) {
	// Two components: path of 6 (largest) and an edge {6,7}.
	b := graph.NewBuilder(8)
	for i := 0; i < 5; i++ {
		_ = b.AddEdge(i, i+1)
	}
	_ = b.AddEdge(6, 7)
	g := b.Build()
	set, err := Select(Random, g, 4, rand.New(rand.NewSource(2)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Nodes) != 4 {
		t.Fatalf("got %d landmarks", len(set.Nodes))
	}
	for _, u := range set.Nodes {
		if u > 5 {
			t.Fatalf("landmark %d outside largest component", u)
		}
	}
	// Requesting more than the component size clamps.
	set, err = Select(Random, g, 100, rand.New(rand.NewSource(3)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Nodes) != 6 {
		t.Fatalf("clamped landmarks = %d, want 6", len(set.Nodes))
	}
}

func TestSelectHighDegree(t *testing.T) {
	// Star with center 3 plus chain so all connected.
	g := graph.FromEdges(6, []graph.Edge{{U: 3, V: 0}, {U: 3, V: 1}, {U: 3, V: 2}, {U: 3, V: 4}, {U: 4, V: 5}})
	set, err := Select(HighDegree, g, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if set.Nodes[0] != 3 {
		t.Fatalf("highest degree landmark = %d, want 3", set.Nodes[0])
	}
	if set.Nodes[1] != 4 {
		t.Fatalf("second landmark = %d, want 4 (degree 2)", set.Nodes[1])
	}
}

func TestSelectMaxMinOnPath(t *testing.T) {
	// Path 0..8 with a high-degree anchor: node 4 gets extra stubs so the
	// deterministic first pick is the middle; MaxMin should then pick an end.
	b := graph.NewBuilder(11)
	for i := 0; i < 8; i++ {
		_ = b.AddEdge(i, i+1)
	}
	_ = b.AddEdge(4, 9)
	_ = b.AddEdge(4, 10)
	g := b.Build()
	mt := budget.NewMeterSSSP(10)
	set, err := Select(MaxMin, g, 2, nil, mt)
	if err != nil {
		t.Fatal(err)
	}
	if set.Nodes[0] != 4 {
		t.Fatalf("first pick = %d, want hub 4", set.Nodes[0])
	}
	if set.Nodes[1] != 0 && set.Nodes[1] != 8 {
		t.Fatalf("second MaxMin pick = %d, want a path end", set.Nodes[1])
	}
	if got := mt.Report().CandidateGen; got != 2 {
		t.Fatalf("charged %d BFS, want 2", got)
	}
	if len(set.D1) != 2 || set.D1[0][0] != 4 {
		t.Fatalf("cached D1 rows wrong: %v", set.D1)
	}
}

func TestSelectDispersionBudgetExhaustion(t *testing.T) {
	g := pathGraph(10)
	mt := budget.NewMeterSSSP(1)
	_, err := Select(MaxMin, g, 3, nil, mt)
	if !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
}

// Property: MaxMin and MaxAvg produce distinct landmarks inside the largest
// component, and MaxMin's picks are pairwise farther apart than random's
// worst case on a path.
func TestDispersionProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		b := graph.NewBuilder(n)
		for i := 1; i < n; i++ {
			_ = b.AddEdge(i, rng.Intn(i))
		}
		g := b.Build()
		l := 2 + rng.Intn(4)
		for _, s := range []Strategy{MaxMin, MaxAvg} {
			set, err := Select(s, g, l, nil, nil)
			if err != nil {
				return false
			}
			seen := map[int]bool{}
			for _, u := range set.Nodes {
				if seen[u] {
					return false
				}
				seen[u] = true
			}
			if len(set.D1) != len(set.Nodes) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func snapshotWithShortcut(n int) graph.SnapshotPair {
	g1 := pathGraph(n)
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		_ = b.AddEdge(i, i+1)
	}
	_ = b.AddEdge(0, n-1)
	return graph.SnapshotPair{G1: g1, G2: b.Build()}
}

func TestComputeNorms(t *testing.T) {
	sp := snapshotWithShortcut(8) // path 0..7 + shortcut {0,7}
	set := Set{Strategy: Random, Nodes: []int{0}}
	mt := budget.NewMeterSSSP(2)
	norms, err := ComputeNorms(set, sp, mt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Remaining() != 0 {
		t.Fatalf("remaining = %d, want 0 (1 BFS per snapshot)", mt.Remaining())
	}
	// From landmark 0: d1(0,v)=v, d2(0,v)=min(v, 8-v).
	// v=7: Δ=6; v=6: Δ=4; v=5: Δ=2; else 0.
	wantL1 := []int64{0, 0, 0, 0, 0, 2, 4, 6}
	for v, w := range wantL1 {
		if norms.L1[v] != w {
			t.Fatalf("L1 = %v, want %v", norms.L1, wantL1)
		}
		if norms.LInf[v] != int32(w) {
			t.Fatalf("LInf[%d] = %d, want %d (single landmark: L1 == LInf)", v, norms.LInf[v], w)
		}
	}
}

func TestComputeNormsUsesCachedD1(t *testing.T) {
	sp := snapshotWithShortcut(6)
	d1 := [][]int32{sssp.Distances(sp.G1, 0)}
	set := Set{Strategy: MaxMin, Nodes: []int{0}, D1: d1}
	mt := budget.NewMeterSSSP(1) // only the G_t2 row should be charged
	if _, err := ComputeNorms(set, sp, mt, 1); err != nil {
		t.Fatal(err)
	}
	if mt.Remaining() != 0 {
		t.Fatalf("remaining = %d, want 0", mt.Remaining())
	}
	// Mismatched cache is rejected.
	bad := Set{Strategy: MaxMin, Nodes: []int{0, 1}, D1: d1}
	if _, err := ComputeNorms(bad, sp, nil, 1); err == nil {
		t.Fatal("mismatched D1 cache should fail")
	}
	if _, err := ComputeNorms(Set{}, sp, nil, 1); !errors.Is(err, ErrNoLandmarks) {
		t.Fatal("empty set should fail with ErrNoLandmarks")
	}
}

func TestComputeNormsBudgetExhaustion(t *testing.T) {
	sp := snapshotWithShortcut(6)
	set := Set{Strategy: Random, Nodes: []int{0, 1, 2}}
	mt := budget.NewMeterSSSP(3) // needs 6
	if _, err := ComputeNorms(set, sp, mt, 1); !errors.Is(err, budget.ErrExhausted) {
		t.Fatal("expected budget exhaustion")
	}
}

// Property: for a single landmark w, LInf[u] == L1[u] == max(0, d1-d2), and
// for multiple landmarks L1 >= LInf and LInf equals the max per-landmark
// delta computed directly.
func TestNormsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(30)
		// G_t1 is a forest of two or three trees (node i in tree i mod
		// comps), so nodes outside a landmark's tree are unreachable from it
		// in G_t1; G_t2 joins the trees' roots and adds random edges.
		comps := 2 + rng.Intn(2)
		b := graph.NewBuilder(n)
		for i := comps; i < n; i++ {
			_ = b.AddEdge(i, i%comps+comps*rng.Intn(i/comps))
		}
		g1 := b.Build()
		for c := 1; c < comps; c++ {
			_ = b.AddEdge(c-1, c)
		}
		for i := 0; i < 3; i++ {
			_ = b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g2 := b.Build()
		sp := graph.SnapshotPair{G1: g1, G2: g2}
		l := 1 + rng.Intn(3)
		set, err := Select(Random, g1, l, rng, nil)
		if err != nil {
			return false
		}
		norms, err := ComputeNorms(set, sp, nil, 2)
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if norms.L1[v] < int64(norms.LInf[v]) || norms.LInf[v] < 0 {
				return false
			}
			var wantInf int32
			var wantL1 int64
			for _, w := range set.Nodes {
				d1 := sssp.Distances(g1, w)
				d2 := sssp.Distances(g2, w)
				if d1[v] <= 0 {
					continue
				}
				delta := d1[v] - d2[v]
				if delta > 0 {
					wantL1 += int64(delta)
					if delta > wantInf {
						wantInf = delta
					}
				}
			}
			if norms.LInf[v] != wantInf || norms.L1[v] != wantL1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTopByScore(t *testing.T) {
	score := []int64{5, 1, 9, 9, 0}
	got := TopByScore(score, 3, nil)
	want := []int{2, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopByScore = %v, want %v", got, want)
		}
	}
	got = TopByScore(score, 2, map[int]bool{2: true})
	if got[0] != 3 || got[1] != 0 {
		t.Fatalf("TopByScore with exclude = %v", got)
	}
	if TopByScore(score, 0, nil) != nil {
		t.Fatal("m=0 should return nil")
	}
	if len(TopByScore(score, 100, nil)) != 5 {
		t.Fatal("m beyond len should clamp")
	}

	// Randomized against a full sort: few distinct scores (heavy ties),
	// random exclusions, m below, at and above the eligible count.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		i64, i32, f64 := make([]int64, n), make([]int32, n), make([]float64, n)
		for v := 0; v < n; v++ {
			x := rng.Intn(6) - 2
			i64[v], i32[v], f64[v] = int64(x), int32(x), float64(x)/2
		}
		exclude := map[int]bool{}
		for v := 0; v < n; v++ {
			if rng.Intn(4) == 0 {
				exclude[v] = true
			}
		}
		m := rng.Intn(n+3) + 1
		checkTopByScore(t, i64, m, exclude)
		checkTopByScore(t, i32, m, exclude)
		checkTopByScore(t, f64, m, nil)
	}
}

// checkTopByScore compares TopByScore with a full sort of the eligible
// nodes by (score descending, ID ascending) cut to m.
func checkTopByScore[T int64 | int32 | float64](t *testing.T, score []T, m int, exclude map[int]bool) {
	t.Helper()
	var want []int
	for v := range score {
		if !exclude[v] {
			want = append(want, v)
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return score[want[i]] > score[want[j]] })
	want = want[:min(m, len(want))]
	if got := TopByScore(score, m, exclude); !slices.Equal(got, want) {
		t.Fatalf("TopByScore(%v, %d, %v) = %v, want %v", score, m, exclude, got, want)
	}
}
