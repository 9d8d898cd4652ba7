package sssp

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func pathGraph(n int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1})
	}
	return graph.FromEdges(n, edges)
}

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		// Errors are impossible: node IDs are drawn from [0, n).
		_ = b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

func TestBFSPath(t *testing.T) {
	g := pathGraph(5)
	dist := make([]int32, 5)
	reached, ecc := BFS(g, 0, dist)
	if reached != 5 {
		t.Fatalf("reached = %d, want 5", reached)
	}
	if ecc != 4 {
		t.Fatalf("ecc = %d, want 4", ecc)
	}
	want := []int32{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(dist, want) {
		t.Fatalf("dist = %v, want %v", dist, want)
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	dist := make([]int32, 5)
	reached, _ := BFS(g, 0, dist)
	if reached != 2 {
		t.Fatalf("reached = %d, want 2", reached)
	}
	for _, v := range []int{2, 3, 4} {
		if dist[v] != Unreachable {
			t.Errorf("dist[%d] = %d, want Unreachable", v, dist[v])
		}
	}
}

func TestBFSPanicsOnBadInput(t *testing.T) {
	g := pathGraph(3)
	assertPanics(t, "short buffer", func() { BFS(g, 0, make([]int32, 2)) })
	assertPanics(t, "bad source", func() { BFS(g, 7, make([]int32, 3)) })
	assertPanics(t, "negative source", func() { BFS(g, -1, make([]int32, 3)) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

// Property: BFS distances satisfy the edge relaxation condition
// |d(u) - d(v)| <= 1 for every edge {u,v} with both ends reached, d(src)=0,
// and every reached non-source node has a neighbor one step closer.
func TestBFSRelaxationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		g := randomGraph(rng, n, 2*n)
		src := rng.Intn(n)
		dist := make([]int32, n)
		BFS(g, src, dist)
		if dist[src] != 0 {
			return false
		}
		for u := 0; u < n; u++ {
			du := dist[u]
			hasCloser := false
			for _, v := range g.Neighbors(u) {
				dv := dist[v]
				if (du == Unreachable) != (dv == Unreachable) {
					return false // an edge cannot cross component boundaries
				}
				if du != Unreachable {
					diff := du - dv
					if diff < -1 || diff > 1 {
						return false
					}
					if dv == du-1 {
						hasCloser = true
					}
				}
			}
			if du > 0 && !hasCloser {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dijkstra on unit weights equals BFS.
func TestDijkstraMatchesBFSOnUnitWeights(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		g := randomGraph(rng, n, 2*n)
		wg := graph.FromUnweighted(g)
		src := rng.Intn(n)
		return reflect.DeepEqual(Distances(g, src), WeightedDistances(wg, src))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDijkstraWeighted(t *testing.T) {
	// 0 --(1)-- 1 --(1)-- 2, plus a heavy shortcut 0 --(5)-- 2.
	wg, err := graph.NewWeighted(4, []graph.WeightedEdge{
		{U: 0, V: 1, Weight: 1},
		{U: 1, V: 2, Weight: 1},
		{U: 0, V: 2, Weight: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	dist := WeightedDistances(wg, 0)
	want := []int32{0, 1, 2, Unreachable}
	if !reflect.DeepEqual(dist, want) {
		t.Fatalf("dist = %v, want %v", dist, want)
	}
}

func TestDijkstraZeroWeight(t *testing.T) {
	wg, err := graph.NewWeighted(3, []graph.WeightedEdge{
		{U: 0, V: 1, Weight: 0},
		{U: 1, V: 2, Weight: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	dist := WeightedDistances(wg, 0)
	want := []int32{0, 0, 3}
	if !reflect.DeepEqual(dist, want) {
		t.Fatalf("dist = %v, want %v", dist, want)
	}
}

func TestNegativeWeightRejected(t *testing.T) {
	_, err := graph.NewWeighted(2, []graph.WeightedEdge{{U: 0, V: 1, Weight: -1}})
	if err == nil {
		t.Fatal("negative weight should be rejected")
	}
}

func TestWeightedDuplicateKeepsMinimum(t *testing.T) {
	wg, err := graph.NewWeighted(2, []graph.WeightedEdge{
		{U: 0, V: 1, Weight: 9},
		{U: 1, V: 0, Weight: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if wg.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", wg.NumEdges())
	}
	if d := WeightedDistances(wg, 0)[1]; d != 2 {
		t.Fatalf("dist = %d, want min weight 2", d)
	}
}

func TestAllSourcesFuncMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 200, 500)
	sources := []int{0, 5, 17, 100, 199}

	want := make(map[int][]int32)
	for _, s := range sources {
		want[s] = Distances(g, s)
	}
	var mu sync.Mutex
	got := make(map[int][]int32)
	AllSourcesFunc(g, sources, 4, func(src int, dist []int32) {
		row := make([]int32, len(dist))
		copy(row, dist)
		mu.Lock()
		got[src] = row
		mu.Unlock()
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("parallel AllSourcesFunc disagrees with sequential BFS")
	}
}

func TestPairedSourcesFunc(t *testing.T) {
	g1 := pathGraph(6)
	b := graph.NewBuilder(6)
	for _, e := range g1.Edges() {
		_ = b.AddEdge(e.U, e.V)
	}
	_ = b.AddEdge(0, 5) // shortcut in the second snapshot
	g2 := b.Build()

	var mu sync.Mutex
	deltas := map[int]int32{}
	PairedSourcesFunc(g1, g2, []int{0, 3}, 2, func(src int, d1, d2 []int32) {
		var maxDelta int32
		for v := range d1 {
			if d1[v] != Unreachable && d2[v] != Unreachable && d1[v]-d2[v] > maxDelta {
				maxDelta = d1[v] - d2[v]
			}
		}
		mu.Lock()
		deltas[src] = maxDelta
		mu.Unlock()
	})
	if deltas[0] != 4 { // d1(0,5)=5 -> d2(0,5)=1
		t.Errorf("delta from 0 = %d, want 4", deltas[0])
	}
	// From node 3 the shortcut helps nothing: d1(3,·)={3,2,1,0,1,2} and the
	// best use of edge {0,5} never shortens any of those.
	if deltas[3] != 0 {
		t.Errorf("delta from 3 = %d, want 0", deltas[3])
	}
}

func TestAllSourcesSequentialPath(t *testing.T) {
	// workers=1 and single-source inputs exercise the sequential fast path.
	g := pathGraph(20)
	var visited []int
	AllSourcesFunc(g, []int{3, 7}, 1, func(src int, dist []int32) {
		visited = append(visited, src)
		if dist[src] != 0 {
			t.Errorf("dist[src] = %d", dist[src])
		}
	})
	if len(visited) != 2 || visited[0] != 3 {
		t.Fatalf("visited = %v (sequential path must preserve order)", visited)
	}
	// Empty sources: no calls, no panic.
	AllSourcesFunc(g, nil, 4, func(int, []int32) { t.Fatal("unexpected call") })
	PairedSourcesFunc(g, g, nil, 4, func(int, []int32, []int32) { t.Fatal("unexpected call") })
	// Sequential paired path.
	calls := 0
	PairedSourcesFunc(g, g, []int{0}, 1, func(src int, d1, d2 []int32) {
		calls++
		for v := range d1 {
			if d1[v] != d2[v] {
				t.Errorf("identical graphs disagree at %d", v)
			}
		}
	})
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
}

func TestPathReconstruction(t *testing.T) {
	g := pathGraph(6)
	p := Path(g, 0, 5)
	if !reflect.DeepEqual(p, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("path = %v", p)
	}
	if p := Path(g, 3, 3); !reflect.DeepEqual(p, []int{3}) {
		t.Fatalf("self path = %v", p)
	}
	disc := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if Path(disc, 0, 3) != nil {
		t.Fatal("disconnected path should be nil")
	}
	assertPanics(t, "bad endpoint", func() { Path(g, 0, 99) })
}

// Property: a reconstructed path is a real path of length dist(src, dst).
func TestPathMatchesDistanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		g := randomGraph(rng, n, 2*n)
		src, dst := rng.Intn(n), rng.Intn(n)
		dist := Distances(g, src)
		path := Path(g, src, dst)
		if dist[dst] < 0 {
			return path == nil
		}
		if len(path) != int(dist[dst])+1 {
			return false
		}
		if path[0] != src || path[len(path)-1] != dst {
			return false
		}
		for i := 1; i < len(path); i++ {
			if !g.HasEdge(path[i-1], path[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
