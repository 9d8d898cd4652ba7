package landmark

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/budget"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/sssp"
)

// fullRows hides a BFS source's graph from dist.UnweightedGraph, so MaxMin
// over it runs dispersedRows, the full-row loop that MaxAvg and Dijkstra
// sources keep: the reference the chain is held to.
type fullRows struct{ dist.Source }

// requireChainMatchesRows selects l MaxMin landmarks on g through the chain
// (at workers) and through the full-row loop. Without a meter both must
// return identical Nodes and D1; with a meter that runs out at each pick in
// turn, and with one that just suffices, both must return the same error
// text and leave the same Report.
func requireChainMatchesRows(t *testing.T, label string, g *graph.Graph, l, workers int) {
	t.Helper()
	chain, err := SelectSource(MaxMin, dist.NewBFS(g), l, nil, nil, workers)
	ref, refErr := SelectSource(MaxMin, fullRows{dist.NewBFS(g)}, l, nil, nil, 1)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s l=%d: chain err %v, full-row loop err %v", label, l, err, refErr)
	}
	if err != nil {
		if err.Error() != refErr.Error() {
			t.Fatalf("%s l=%d: chain err %q, full-row loop err %q", label, l, err, refErr)
		}
		return
	}
	if chain.Strategy != MaxMin || !slices.Equal(chain.Nodes, ref.Nodes) {
		t.Fatalf("%s l=%d: chain picks %v, full-row loop picks %v", label, l, chain.Nodes, ref.Nodes)
	}
	if len(chain.D1) != len(ref.D1) {
		t.Fatalf("%s l=%d: chain has %d D1 rows, full-row loop %d", label, l, len(chain.D1), len(ref.D1))
	}
	for i := range ref.D1 {
		if !slices.Equal(chain.D1[i], ref.D1[i]) {
			t.Fatalf("%s l=%d: D1 row %d (pick %d) differs from the full-row loop's", label, l, i, ref.Nodes[i])
		}
	}
	for limit := 0; limit <= len(ref.Nodes); limit++ {
		cm, rm := budget.NewMeterSSSP(limit), budget.NewMeterSSSP(limit)
		_, err := SelectSource(MaxMin, dist.NewBFS(g), l, nil, cm, workers)
		_, refErr := SelectSource(MaxMin, fullRows{dist.NewBFS(g)}, l, nil, rm, 1)
		if limit < len(ref.Nodes) && !errors.Is(refErr, budget.ErrExhausted) {
			t.Fatalf("%s l=%d limit %d: full-row loop err %v, want exhaustion", label, l, limit, refErr)
		}
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("%s l=%d limit %d: chain err %v, full-row loop err %v", label, l, limit, err, refErr)
		}
		if cm.Report() != rm.Report() {
			t.Fatalf("%s l=%d limit %d: chain report %v, full-row loop report %v", label, l, limit, cm.Report(), rm.Report())
		}
	}
}

// componentsGraph starts a graph of comps random connected components of
// random sizes (trees plus chords, so tied distances abound) over shuffled
// node IDs, followed by isolated nodes. Callers may add edges before Build.
func componentsGraph(rng *rand.Rand, comps, maxSize, isolated int) *graph.Builder {
	sizes := make([]int, comps)
	n := isolated
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(maxSize)
		n += sizes[i]
	}
	perm := rng.Perm(n)
	b := graph.NewBuilder(n)
	next := 0
	for _, size := range sizes {
		ids := perm[next : next+size]
		next += size
		for i := 1; i < size; i++ {
			_ = b.AddEdge(ids[i], ids[rng.Intn(i)])
		}
		for c := rng.Intn(size); c > 0; c-- {
			_ = b.AddEdge(ids[rng.Intn(size)], ids[rng.Intn(size)])
		}
	}
	return b
}

// servedG1 is the G_t1 of a served workload: datagen's dataset stream at
// the given node count (seed 1), cut at 80% of its edges.
func servedG1(tb testing.TB, dataset string, nodes int) *graph.Graph {
	tb.Helper()
	paperNodes := map[string]float64{"DBLP": 18000, "Facebook": 4700}[dataset]
	ev, err := datagen.ByName(dataset, datagen.Config{Seed: 1, Scale: float64(nodes) / paperNodes})
	if err != nil {
		tb.Fatal(err)
	}
	return ev.SnapshotFraction(0.8)
}

// TestMaxMinChainMatchesFullRows holds the chain to the full-row loop on
// random graphs with several components, isolated nodes and tied
// distances, at l ∈ {1, 2, |comp|, |comp|+3} and one to four workers, and on
// small served datagen shapes.
func TestMaxMinChainMatchesFullRows(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		g := componentsGraph(rng, 1+rng.Intn(4), 1+rng.Intn(60), rng.Intn(5)).Build()
		comp, _ := dist.LargestComponent(dist.NewBFS(g))
		for _, l := range []int{1, 2, len(comp), len(comp) + 3} {
			requireChainMatchesRows(t, fmt.Sprintf("trial %d", trial), g, l, 1+trial%4)
		}
	}
	for _, c := range []struct {
		dataset string
		nodes   int
	}{{"DBLP", 1000}, {"Facebook", 470}} {
		g := servedG1(t, c.dataset, c.nodes)
		for _, l := range []int{10, 50} {
			requireChainMatchesRows(t, c.dataset, g, l, 2)
		}
	}
}

// FuzzMaxMinChain holds the chain to the full-row loop on byte-derived
// graphs: a few components and isolated nodes, plus the data bytes' edges
// anywhere.
func FuzzMaxMinChain(f *testing.F) {
	f.Add([]byte{}, uint8(3), uint8(12), uint8(4), uint8(2))
	f.Add([]byte{0, 1, 1, 2, 5, 9}, uint8(1), uint8(40), uint8(50), uint8(1))
	f.Add([]byte{3, 4, 4, 5, 5, 3}, uint8(4), uint8(7), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, comps, size, l, workers uint8) {
		rng := rand.New(rand.NewSource(int64(comps)<<16 | int64(size)<<8 | int64(len(data))))
		b := componentsGraph(rng, 1+int(comps)%5, 1+int(size)%48, int(l)%4)
		for i := 0; i+1 < len(data); i += 2 {
			_ = b.AddEdge(int(data[i]), int(data[i+1])) // may grow the universe to 256 nodes
		}
		requireChainMatchesRows(t, "fuzz", b.Build(), 1+int(l)%64, 1+int(workers)%4)
	})
}

// TestMaxMinChainWork pins the chain's traversal work on the served
// workloads' G_t1: MaxMin m=50 on Facebook n=4,700 and the l=10 landmark
// picks of MMSD on DBLP n=10k. The LowerNearest calls must examine under 5%
// of the edges that full rows from the same picks (what the chain replaced)
// examine.
func TestMaxMinChainWork(t *testing.T) {
	for _, c := range []struct {
		dataset string
		nodes   int
		l       int
	}{{"Facebook", 4700, 50}, {"DBLP", 10000, 10}} {
		g := servedG1(t, c.dataset, c.nodes)
		before := sssp.SnapshotMetrics()
		set, err := SelectSource(MaxMin, dist.NewBFS(g), c.l, nil, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		chain := sssp.SnapshotMetrics().Sub(before).Nearest
		if chain.Calls != int64(c.l-1) || chain.Sources != 0 {
			t.Fatalf("%s: %d LowerNearest calls over %d sources, want %d over 0", c.dataset, chain.Calls, chain.Sources, c.l-1)
		}
		row := make([]int32, g.NumNodes())
		before = sssp.SnapshotMetrics()
		for _, p := range set.Nodes[1:] {
			sssp.BFS(g, p, row)
		}
		full := sssp.SnapshotMetrics().Sub(before).DirectionOpt.Edges
		t.Logf("%s n=%d l=%d: chain examined %d edges, full rows %d (%.2f%%)",
			c.dataset, c.nodes, c.l, chain.Edges, full, 100*float64(chain.Edges)/float64(full))
		if chain.Edges*20 >= full {
			t.Errorf("%s: chain examined %d edges, want under 5%% of the replaced full rows' %d", c.dataset, chain.Edges, full)
		}
	}
}
