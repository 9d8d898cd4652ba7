package dynsssp

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

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

func TestNewValidation(t *testing.T) {
	g := pathGraph(4)
	if _, err := New(g, -1); err == nil {
		t.Error("negative source should fail")
	}
	if _, err := New(g, 4); err == nil {
		t.Error("out-of-range source should fail")
	}
}

func TestInsertEdgeShortcut(t *testing.T) {
	g := pathGraph(8)
	d, err := New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Dist(7) != 7 {
		t.Fatalf("initial dist = %d", d.Dist(7))
	}
	changed, err := d.InsertEdge(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 4..7 improve: d(6): 6->1, d(5): 5->2, d(7): 7->2, d(4): 4->3.
	if changed != 4 {
		t.Fatalf("changed = %d, want 4", changed)
	}
	want := []int32{0, 1, 2, 3, 3, 2, 1, 2}
	if !reflect.DeepEqual(d.Distances(), want) {
		t.Fatalf("dist = %v, want %v", d.Distances(), want)
	}
}

func TestInsertEdgeNoImprovement(t *testing.T) {
	g := pathGraph(5)
	d, err := New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := d.InsertEdge(0, 1) // duplicate
	if err != nil {
		t.Fatal(err)
	}
	if changed != 0 {
		t.Fatalf("duplicate edge changed %d distances", changed)
	}
	changed, err = d.InsertEdge(2, 2) // self-loop
	if err != nil || changed != 0 {
		t.Fatalf("self-loop: %d, %v", changed, err)
	}
	if _, err := d.InsertEdge(-1, 2); err == nil {
		t.Fatal("negative node should fail")
	}
}

func TestInsertConnectsComponent(t *testing.T) {
	g := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 3, V: 4}, {U: 4, V: 5}})
	d, err := New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Dist(4) != sssp.Unreachable {
		t.Fatal("4 should start unreachable")
	}
	if _, err := d.InsertEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, sssp.Unreachable, 2, 3, 4}
	if !reflect.DeepEqual(d.Distances(), want) {
		t.Fatalf("dist = %v, want %v", d.Distances(), want)
	}
}

func TestEnsureNodeGrowth(t *testing.T) {
	g := pathGraph(3)
	d, err := New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertEdge(2, 9); err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", d.NumNodes())
	}
	if d.Dist(9) != 3 {
		t.Fatalf("dist(9) = %d, want 3", d.Dist(9))
	}
	for v := 3; v < 9; v++ {
		if d.Dist(v) != sssp.Unreachable {
			t.Fatalf("dist(%d) = %d, want unreachable", v, d.Dist(v))
		}
	}
}

// Property: after any random insertion sequence, the maintained vector
// equals a fresh BFS on the final graph, and every insertion's relaxation
// touches no more nodes than a full BFS would.
func TestIncrementalMatchesRecompute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		b := graph.NewBuilder(n)
		for i := 1; i < n/2; i++ {
			_ = b.AddEdge(i, rng.Intn(i))
		}
		g := b.Build()
		src := rng.Intn(n / 2)
		d, err := New(g, src)
		if err != nil {
			return false
		}
		// Mirror builder for the reference recomputation.
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if _, err := d.InsertEdge(u, v); err != nil {
				return false
			}
			_ = b.AddEdge(u, v)
		}
		want := sssp.Distances(b.Build(), src)
		got := d.Distances()
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyStreamAndStats(t *testing.T) {
	g := pathGraph(10)
	d, err := New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := d.ApplyStream([]graph.TimedEdge{
		{U: 0, V: 9, Time: 1},
		{U: 0, V: 5, Time: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if changed == 0 {
		t.Fatal("stream should change distances")
	}
	ins, touched := d.Stats()
	if ins != 2 || touched == 0 {
		t.Fatalf("stats = %d, %d", ins, touched)
	}
}

// randomEvolvingPair builds a random (g1, g2) insertion pair with g1 drawn
// from a fraction of g2's edges — disconnected snapshots and
// component-merging deltas arise naturally from the random split.
func randomEvolvingPair(rng *rand.Rand) (g1, g2 *graph.Graph) {
	n := 4 + rng.Intn(60)
	seen := map[graph.Edge]struct{}{}
	var edges []graph.Edge
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		c := graph.Edge{U: u, V: v}.Canon()
		if _, dup := seen[c]; dup {
			continue
		}
		seen[c] = struct{}{}
		edges = append(edges, c)
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	split := rng.Intn(len(edges) + 1)
	return graph.FromEdges(n, edges[:split]), graph.FromEdges(n, edges)
}

// TestApplyAllMatchesFreshBFS is the repair kernel's differential oracle:
// for random snapshot pairs (random sizes, random split fractions, with
// disconnected regions and deltas that merge components), repairing the g1
// vector over the delta must be bit-identical to a fresh BFS on g2 — from
// every source. Duplicate delta edges and self-loops must not perturb the
// result.
func TestApplyAllMatchesFreshBFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g1, g2 := randomEvolvingPair(rng)
		delta := graph.NewDelta(g1, g2).Edges
		// Adversarial garnish: duplicate a delta edge and add a self-loop.
		if len(delta) > 0 {
			delta = append(delta, delta[rng.Intn(len(delta))])
		}
		delta = append(delta, graph.Edge{U: 0, V: 0})
		s := NewScratch()
		n := g1.NumNodes()
		dist := make([]int32, n)
		for src := 0; src < n; src++ {
			copy(dist, sssp.Distances(g1, src))
			s.ApplyAll(g2, delta, dist)
			want := sssp.Distances(g2, src)
			for v := range want {
				if dist[v] != want[v] {
					t.Logf("seed %d src %d: dist[%d] = %d, want %d", seed, src, v, dist[v], want[v])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyAllValidation pins the panic contract: plumbing errors (wrong
// vector length, out-of-universe delta nodes) must fail loudly, not corrupt.
func TestApplyAllValidation(t *testing.T) {
	g := pathGraph(5)
	s := NewScratch()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("short dist", func() { s.ApplyAll(g, nil, make([]int32, 3)) })
	mustPanic("out-of-range delta", func() {
		s.ApplyAll(g, []graph.Edge{{U: 0, V: 9}}, make([]int32, 5))
	})
}

// TestApplyAllZeroAllocs is the zero-alloc backstop on the repair kernel:
// once the scratch has grown (AllocsPerRun's warm-up call), repairing a row
// allocates nothing.
func TestApplyAllZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g1, g2 := randomEvolvingPair(rng)
	delta := graph.NewDelta(g1, g2).Edges
	base := sssp.Distances(g1, 0)
	dist := make([]int32, g1.NumNodes())
	s := NewScratch()
	allocs := testing.AllocsPerRun(20, func() {
		copy(dist, base)
		s.ApplyAll(g2, delta, dist)
	})
	if allocs != 0 {
		t.Fatalf("ApplyAll allocates %v per run, want 0", allocs)
	}
}

// TestApplyBatchMatchesPerEdgeInsert pins that the batch path (one seed pass
// + one wave) ends in the same state as the per-edge insertion loop it
// replaced, including node-universe growth and inserted/Changed accounting.
func TestApplyBatchMatchesPerEdgeInsert(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		g := pathGraph(n)
		batch, _ := New(g, 0)
		single, _ := New(g, 0)
		var edges []graph.TimedEdge
		for i := 0; i < 2*n; i++ {
			// Beyond-universe nodes exercise EnsureNode growth.
			edges = append(edges, graph.TimedEdge{U: rng.Intn(n + 3), V: rng.Intn(n + 3), Time: int64(i)})
		}
		bc, err := batch.ApplyBatch(edges)
		if err != nil {
			return false
		}
		sc := 0
		for _, te := range edges {
			c, err := single.InsertEdge(te.U, te.V)
			if err != nil {
				return false
			}
			sc += c
		}
		if batch.NumNodes() != single.NumNodes() {
			t.Logf("seed %d: universe %d vs %d", seed, batch.NumNodes(), single.NumNodes())
			return false
		}
		if !reflect.DeepEqual(batch.Distances(), single.Distances()) {
			t.Logf("seed %d: batch %v\nsingle %v", seed, batch.Distances(), single.Distances())
			return false
		}
		// Improvement counts depend on relaxation order and legitimately
		// differ between the two strategies; what must agree is whether any
		// distance changed at all.
		if (bc > 0) != (sc > 0) {
			t.Logf("seed %d: batch changed %d, per-edge %d", seed, bc, sc)
			return false
		}
		bi, _ := batch.Stats()
		si, _ := single.Stats()
		if bi != si {
			t.Logf("seed %d: inserted %d vs %d", seed, bi, si)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	// Error path: a negative node rejects the whole batch atomically.
	d, _ := New(pathGraph(4), 0)
	before := append([]int32(nil), d.Distances()...)
	if _, err := d.ApplyBatch([]graph.TimedEdge{{U: 0, V: 3}, {U: -1, V: 2}}); err == nil {
		t.Fatal("negative node should fail")
	}
	if !reflect.DeepEqual(d.Distances(), before) {
		t.Fatal("failed batch must not mutate state")
	}
	if d.RepairStats() != (Stats{}) {
		t.Fatalf("failed batch recorded repair stats: %+v", d.RepairStats())
	}
}

func TestDeltaSince(t *testing.T) {
	g := pathGraph(8)
	d, err := New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	baseline := append([]int32(nil), d.Distances()...)
	if _, err := d.InsertEdge(0, 6); err != nil {
		t.Fatal(err)
	}
	out := make([]int32, 8)
	if err := d.DeltaSince(baseline, out); err != nil {
		t.Fatal(err)
	}
	// d2(4) = 3 via 0-6-5-4 (Δ=1), d2(5) = 2 via 0-6-5 (Δ=3),
	// d2(6) = 1 (Δ=5), d2(7) = 2 via 0-6-7 (Δ=5).
	want := []int32{0, 0, 0, 0, 1, 3, 5, 5}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("delta = %v, want %v", out, want)
	}
	if err := d.DeltaSince(baseline, make([]int32, 3)); err == nil {
		t.Fatal("short out buffer should fail")
	}
	if err := d.DeltaSince(make([]int32, 99), out); err == nil {
		t.Fatal("oversized baseline should fail")
	}
}

// TestApplyAllOnBatchKernelRows pins the repair wave against t1 rows
// produced by the 64-lane MS-BFS kernel: ApplyAll repairs copies of rows
// that are views into a Scratch's shared row block, and the repair must
// still be bit-identical to a fresh BFS on g2 for every lane, across a
// batch boundary and with duplicate lanes.
func TestApplyAllOnBatchKernelRows(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	g1, g2 := randomEvolvingPair(rng)
	n := g1.NumNodes()
	delta := graph.NewDelta(g1, g2).Edges
	sources := make([]int, 0, 80)
	for i := 0; i < 78; i++ {
		sources = append(sources, rng.Intn(n))
	}
	sources = append(sources, sources[0], sources[1]) // duplicate lanes
	s := NewScratch()
	d2 := make([]int32, n)
	sssp.AllSourcesFunc(g1, sources, 1, func(src int, d1 []int32) {
		copy(d2, d1)
		s.ApplyAll(g2, delta, d2)
		want := sssp.Distances(g2, src)
		for v := range want {
			if d2[v] != want[v] {
				t.Fatalf("src %d: repaired dist[%d] = %d, want %d", src, v, d2[v], want[v])
			}
		}
	})
}

// FuzzRepair pins the batch repair kernel against a fresh BFS: a copy of a
// t1 row, repaired over graph.NewDelta(g1, g2).Edges, must equal the BFS
// row on g2. randomEvolvingPair leaves g1 in several components that the
// delta merges, with isolated nodes. One Scratch repairs every row, so
// state left over from a run cannot go unnoticed.
func FuzzRepair(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(5), uint8(1))
	f.Add(int64(-9), uint8(77))
	f.Fuzz(func(t *testing.T, seed int64, srcByte uint8) {
		g1, g2 := randomEvolvingPair(rand.New(rand.NewSource(seed)))
		n := g1.NumNodes()
		delta := graph.NewDelta(g1, g2).Edges
		s := NewScratch()
		dist := make([]int32, n)
		first := int(srcByte) % n
		for _, src := range []int{first, (first + 1) % n, n - 1} {
			copy(dist, sssp.Distances(g1, src))
			s.ApplyAll(g2, delta, dist)
			want := sssp.Distances(g2, src)
			for v := range want {
				if dist[v] != want[v] {
					t.Fatalf("src %d: repaired dist[%d] = %d, want %d", src, v, dist[v], want[v])
				}
			}
		}
	})
}
