package dist

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/graph"
)

// randomGraph builds a connected-ish random graph over n nodes.
func randomGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: i, V: rng.Intn(i)})
		if i > 2 && rng.Intn(3) == 0 {
			edges = append(edges, graph.Edge{U: i, V: rng.Intn(i)})
		}
	}
	return graph.FromEdges(n, edges)
}

// TestBFSMatchesUnitWeightDijkstra is the unification's keystone: on a graph
// where every edge weighs 1, the Dijkstra source must produce bit-identical
// rows to the BFS source — same distances, same Unreachable sentinel, same 0
// on the diagonal. Everything above dist (selectors, extraction, budget)
// then behaves identically by construction.
func TestBFSMatchesUnitWeightDijkstra(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := randomGraph(t, 60, seed)
		b := NewBFS(g)
		d := NewDijkstra(graph.FromUnweighted(g))
		if b.NumNodes() != d.NumNodes() || b.NumEdges() != d.NumEdges() {
			t.Fatalf("seed %d: structural views differ", seed)
		}
		n := g.NumNodes()
		rowB := make([]int32, n)
		rowD := make([]int32, n)
		for u := 0; u < n; u++ {
			if b.Degree(u) != d.Degree(u) {
				t.Fatalf("seed %d: degree(%d) differs", seed, u)
			}
			b.DistancesInto(u, rowB)
			d.DistancesInto(u, rowD)
			if !reflect.DeepEqual(rowB, rowD) {
				t.Fatalf("seed %d: rows from %d differ:\nbfs      %v\ndijkstra %v",
					seed, u, rowB, rowD)
			}
		}
	}
}

// TestSweepAndMatrix checks the batched helpers against direct queries,
// including duplicate-source aliasing in DistanceMatrix. The BFS source
// also sweeps a list of more than the batch threshold's 8 sources with
// duplicates, so both of its kernels (per source and 64-lane batch) stand
// behind DistanceMatrix.
func TestSweepAndMatrix(t *testing.T) {
	path := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	for _, src := range []Source{NewBFS(path), NewDijkstra(graph.FromUnweighted(path))} {
		rows := DistanceMatrix(src, []int{0, 3, 0}, 2)
		if len(rows) != 3 {
			t.Fatalf("%T: %d rows, want 3", src, len(rows))
		}
		if !reflect.DeepEqual(rows[0], []int32{0, 1, 2, 3}) || !reflect.DeepEqual(rows[1], []int32{3, 2, 1, 0}) {
			t.Fatalf("%T: path rows = %v", src, rows)
		}
		if &rows[2][0] != &rows[0][0] {
			t.Fatalf("%T: duplicate source row does not alias its first occurrence", src)
		}
	}
	g := randomGraph(t, 40, 3)
	// 42 sources, 2 repeats: each of two workers' shares of the 40 distinct
	// ones is large enough to batch.
	bfsOnly := []int{5, 0}
	for u := 0; u < 40; u++ {
		bfsOnly = append(bfsOnly, u)
	}
	for _, src := range []Source{NewBFS(g), NewDijkstra(graph.FromUnweighted(g))} {
		lists := [][]int{{0, 5, 9, 5}} // includes a duplicate
		if _, ok := src.(*BFS); ok {
			lists = append(lists, bfsOnly)
		}
		n := src.NumNodes()
		for _, sources := range lists {
			rows := DistanceMatrix(src, sources, 2)
			if len(rows) != len(sources) {
				t.Fatalf("%T: %d rows, want %d", src, len(rows), len(sources))
			}
			first := map[int]int{}
			want := make([]int32, n)
			for i, u := range sources {
				src.DistancesInto(u, want)
				if !reflect.DeepEqual(rows[i], want) {
					t.Fatalf("%T: %d sources: matrix row %d (source %d) differs", src, len(sources), i, u)
				}
				if j, ok := first[u]; ok && &rows[i][0] != &rows[j][0] {
					t.Fatalf("%T: %d sources: row %d does not alias row %d of source %d", src, len(sources), i, j, u)
				}
				if _, ok := first[u]; !ok {
					first[u] = i
				}
			}
		}
		// Sweep visits every source exactly once. The callback runs on
		// worker goroutines, so guard the tally.
		var mu sync.Mutex
		visited := map[int]int{}
		Sweep(src, []int{1, 2, 3}, 2, func(s int, dst []int32) {
			mu.Lock()
			visited[s]++
			mu.Unlock()
		})
		if len(visited) != 3 || visited[1] != 1 || visited[2] != 1 || visited[3] != 1 {
			t.Fatalf("%T: sweep visits = %v", src, visited)
		}
	}
}

// TestPairedSweepFastAndGenericAgree compares the BFS pair's kernel-backed
// paired sweep against the generic worker-pool fallback (forced by a mixed
// pair: a BFS source and a unit-weight Dijkstra source), and against a
// Dijkstra pair on unit weights.
func TestPairedSweepFastAndGenericAgree(t *testing.T) {
	g1 := randomGraph(t, 45, 11)
	// G2 = G1 plus a few edges (insertion-only evolution).
	var extra []graph.Edge
	for u := 0; u < 45; u += 7 {
		extra = append(extra, graph.Edge{U: u, V: (u + 20) % 45})
	}
	edges := append(append([]graph.Edge{}, g1.Edges()...), extra...)
	g2 := graph.FromEdges(45, edges)

	sources := []int{0, 3, 8, 21, 44}
	collect := func(p Pair) map[int][2][]int32 {
		var mu sync.Mutex
		out := map[int][2][]int32{}
		PairedSweep(p, sources, 2, func(src int, d1, d2 []int32) {
			c1 := append([]int32(nil), d1...)
			c2 := append([]int32(nil), d2...)
			mu.Lock()
			out[src] = [2][]int32{c1, c2}
			mu.Unlock()
		})
		return out
	}
	fast := collect(BFSPair(graph.SnapshotPair{G1: g1, G2: g2}))
	// A mixed pair forces the generic fallback path.
	generic := collect(Pair{S1: NewBFS(g1), S2: NewDijkstra(graph.FromUnweighted(g2))})
	dijkstra := collect(DijkstraPair(graph.FromUnweighted(g1), graph.FromUnweighted(g2)))
	if !reflect.DeepEqual(fast, generic) {
		t.Fatal("paired kernel sweep and generic fallback disagree")
	}
	if !reflect.DeepEqual(fast, dijkstra) {
		t.Fatal("BFS pair and unit-weight Dijkstra pair disagree")
	}
}

// evolvedPair builds (g1, g2) with g2 = g1 plus extra random edges.
func evolvedPair(t testing.TB, n int, seed int64) (*graph.Graph, *graph.Graph) {
	t.Helper()
	g1 := randomGraph(t, n, seed)
	rng := rand.New(rand.NewSource(seed + 999))
	var extra []graph.Edge
	for i := 0; i < n/2; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			extra = append(extra, graph.Edge{U: u, V: v})
		}
	}
	edges := append(append([]graph.Edge{}, g1.Edges()...), extra...)
	return g1, graph.FromEdges(n, edges)
}

// TestPairedEngineSessions is the dist-level differential pin of
// extraction's rows against each source's own rows: RowsInto fills the
// exact t1 rows, batched (one worker, a share of 17) or per source (four
// workers), and DeriveInto with a bound T derives from a swept row a t2 row
// that keeps every delta >= T exact, while any other node holds its exact
// distance or d2 = d1 (delta 0, the cut's filler); a call that reports no
// cut returns the exact t2 row. Deriving from the source's own t1 row gives
// the same row and the same cut flag. A Dijkstra pair has no bounded kernel
// and always returns full rows, the BFS rows on unit weights.
func TestPairedEngineSessions(t *testing.T) {
	g1, g2 := evolvedPair(t, 50, 17)
	n := g1.NumNodes()
	want1 := make([]int32, n)
	want2 := make([]int32, n)
	d2 := make([]int32, n)
	derived := make([]int32, n)
	cuts := 0
	p := BFSPair(graph.SnapshotPair{G1: g1, G2: g2})
	eng := NewPairedEngine(p, PairedFull)
	var sources []int
	for u := 0; u < n; u += 3 {
		sources = append(sources, u)
	}
	batched, perSource := newTestRows(len(sources), n), newTestRows(len(sources), n)
	RowsInto(p.S1, sources, batched, 1)
	RowsInto(p.S1, sources, perSource, 4)
	for i, u := range sources {
		p.S1.DistancesInto(u, want1)
		p.S2.DistancesInto(u, want2)
		if !reflect.DeepEqual(batched[i], want1) || !reflect.DeepEqual(perSource[i], want1) {
			t.Fatalf("RowsInto t1 row of %d diverges from the source's row", u)
		}
		for _, th := range []int32{1, 2, 3} {
			bound := func() int32 { return th }
			cut := eng.DeriveInto(u, batched[i], d2, bound)
			if cut {
				cuts++
			} else if !reflect.DeepEqual(d2, want2) {
				t.Fatalf("bound %d: uncut t2 row of %d diverges from the source's row", th, u)
			}
			for v := range d2 {
				if want1[v] <= 0 || d2[v] == want2[v] {
					continue
				}
				if want1[v]-want2[v] >= th || d2[v] != want1[v] {
					t.Fatalf("bound %d: d2[%d] from %d = %d, want %d (d1 %d)",
						th, v, u, d2[v], want2[v], want1[v])
				}
			}
			for i := range derived {
				derived[i] = -7 // poison; DeriveInto must fully overwrite
			}
			if eng.DeriveInto(u, want1, derived, bound) != cut || !reflect.DeepEqual(derived, d2) {
				t.Fatalf("bound %d: DeriveInto(%d) from the source's t1 row diverges from the swept row's", th, u)
			}
		}
	}
	if cuts == 0 {
		t.Fatal("no bounded call cut its t2 work: the bound property above went untested")
	}
	// A Dijkstra pair gives the BFS rows on unit weights.
	dp := DijkstraPair(graph.FromUnweighted(g1), graph.FromUnweighted(g2))
	de := NewPairedEngine(dp, PairedFull)
	var dsources []int
	for u := 0; u < n; u += 7 {
		dsources = append(dsources, u)
	}
	drows := newTestRows(len(dsources), n)
	RowsInto(dp.S1, dsources, drows, 2)
	for i, u := range dsources {
		p.S1.DistancesInto(u, want1)
		p.S2.DistancesInto(u, want2)
		// Dijkstra has no bounded kernel: a bound still yields full rows.
		if de.DeriveInto(u, drows[i], d2, func() int32 { return 3 }) {
			t.Fatal("Dijkstra pair reported a cut")
		}
		if !reflect.DeepEqual(drows[i], want1) || !reflect.DeepEqual(d2, want2) {
			t.Fatalf("Dijkstra paired rows from %d diverge from BFS", u)
		}
	}
}

// newTestRows returns count distinct rows of n int32.
func newTestRows(count, n int) [][]int32 {
	rows := make([][]int32, count)
	for i := range rows {
		rows[i] = make([]int32, n)
	}
	return rows
}

// TestParsePairedMode covers the parser kept for old paired-mode spellings.
func TestParsePairedMode(t *testing.T) {
	for in, want := range map[string]PairedMode{"": PairedFull, "full": PairedFull, "incremental": PairedIncremental} {
		got, err := ParsePairedMode(in)
		if err != nil || got != want {
			t.Fatalf("ParsePairedMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePairedMode("bogus"); err == nil {
		t.Fatal("bogus mode should fail")
	}
}

// TestSweepEdgeCases covers the generic fallback corners only the batched
// BFS path used to exercise: empty source sets, more workers than sources,
// and a single-node graph — on Sweep, RowsInto, PairedSweep, and the paired
// engine, for both the kernel-backed and worker-pool paths.
func TestSweepEdgeCases(t *testing.T) {
	single := graph.FromEdges(1, nil)
	g := randomGraph(t, 12, 5)
	srcs := func(g *graph.Graph) []Source {
		return []Source{NewBFS(g), NewDijkstra(graph.FromUnweighted(g))}
	}
	for _, s := range srcs(g) {
		// Empty sources: no callbacks, no hang.
		calls := 0
		Sweep(s, nil, 4, func(int, []int32) { calls++ })
		if calls != 0 {
			t.Fatalf("%T: empty sweep made %d calls", s, calls)
		}
		// More workers than sources.
		var mu sync.Mutex
		got := map[int]int{}
		Sweep(s, []int{1, 2}, 16, func(u int, _ []int32) {
			mu.Lock()
			got[u]++
			mu.Unlock()
		})
		if len(got) != 2 || got[1] != 1 || got[2] != 1 {
			t.Fatalf("%T: over-workered sweep visits = %v", s, got)
		}
		RowsInto(s, nil, nil, 4)
		rows := newTestRows(2, s.NumNodes())
		RowsInto(s, []int{1, 2}, rows, 16)
		if rows[0][1] != 0 || rows[1][2] != 0 {
			t.Fatalf("%T: over-workered RowsInto rows = %v", s, rows)
		}
	}
	for _, s := range srcs(single) {
		visited := 0
		Sweep(s, []int{0}, 3, func(u int, d []int32) {
			visited++
			if u != 0 || len(d) != 1 || d[0] != 0 {
				t.Fatalf("%T: single-node row = %v from %d", s, d, u)
			}
		})
		if visited != 1 {
			t.Fatalf("%T: single-node sweep visits = %d", s, visited)
		}
	}
	pairs := []Pair{
		BFSPair(graph.SnapshotPair{G1: g, G2: g}),
		{S1: NewBFS(g), S2: NewDijkstra(graph.FromUnweighted(g))}, // generic fallback
		DijkstraPair(graph.FromUnweighted(g), graph.FromUnweighted(g)),
	}
	for _, p := range pairs {
		calls := 0
		PairedSweep(p, nil, 4, func(int, []int32, []int32) { calls++ })
		if calls != 0 {
			t.Fatalf("empty paired sweep made %d calls", calls)
		}
		var mu sync.Mutex
		seen := map[int]int{}
		PairedSweep(p, []int{3, 4}, 32, func(u int, _, _ []int32) {
			mu.Lock()
			seen[u]++
			mu.Unlock()
		})
		if len(seen) != 2 || seen[3] != 1 || seen[4] != 1 {
			t.Fatalf("over-workered paired sweep visits = %v", seen)
		}
	}
	sp := Pair{S1: NewBFS(single), S2: NewBFS(single)}
	d1, d2 := []int32{-7}, []int32{-7}
	RowsInto(sp.S1, []int{0}, [][]int32{d1}, 3)
	NewPairedEngine(sp, PairedFull).DeriveInto(0, d1, d2, func() int32 { return 1 })
	if d1[0] != 0 || d2[0] != 0 {
		t.Fatalf("single-node paired rows = %v, %v", d1, d2)
	}
}

// TestStructuralHelpers covers the shared component/density/degree helpers.
func TestStructuralHelpers(t *testing.T) {
	// Three components: a triangle {0,1,2}, an edge {3,4}, and the isolated
	// node 5 (a singleton component).
	g := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 3, V: 4}})
	for _, src := range []Source{NewBFS(g), NewDijkstra(graph.FromUnweighted(g))} {
		comp, count := LargestComponent(src)
		sort.Ints(comp)
		if count != 3 || !reflect.DeepEqual(comp, []int{0, 1, 2}) {
			t.Fatalf("%T: largest component = %v (count %d)", src, comp, count)
		}
		if MaxDegree(src) != 2 {
			t.Fatalf("%T: max degree = %d", src, MaxDegree(src))
		}
		if Density(src) <= 0 {
			t.Fatalf("%T: density = %v", src, Density(src))
		}
	}
}

// TestPairValidate covers the shared pair checks.
func TestPairValidate(t *testing.T) {
	g := randomGraph(t, 10, 1)
	if err := (Pair{}).Validate(); err == nil {
		t.Fatal("nil sources should fail")
	}
	small := randomGraph(t, 5, 1)
	p := Pair{S1: NewBFS(g), S2: NewBFS(small)}
	if err := p.Validate(); err == nil {
		t.Fatal("mismatched universes should fail")
	}
	ok := Pair{S1: NewBFS(g), S2: NewBFS(g)}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if ok.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d", ok.NumNodes())
	}
}

// TestUnwrappers pins the structural escape hatches both ways.
func TestUnwrappers(t *testing.T) {
	g := randomGraph(t, 8, 2)
	w := graph.FromUnweighted(g)
	if got, ok := UnweightedGraph(NewBFS(g)); !ok || got != g {
		t.Fatal("UnweightedGraph failed on a BFS source")
	}
	if _, ok := UnweightedGraph(NewDijkstra(w)); ok {
		t.Fatal("UnweightedGraph should reject a Dijkstra source")
	}
	if got, ok := WeightedGraph(NewDijkstra(w)); !ok || got != w {
		t.Fatal("WeightedGraph failed on a Dijkstra source")
	}
	if _, ok := WeightedGraph(NewBFS(g)); ok {
		t.Fatal("WeightedGraph should reject a BFS source")
	}
}
