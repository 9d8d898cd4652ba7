package sssp

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
)

// servedSnapshot returns datagen's dataset stream at the given node count
// (seed 1), cut at frac of its edges the way bench/ seals its epochs: the
// graph shapes the served workloads query. DBLP is sparse, has a large
// diameter and leaves many nodes outside the giant component; Facebook is
// one small-diameter component.
func servedSnapshot(tb testing.TB, dataset string, nodes int, frac float64) *graph.Graph {
	tb.Helper()
	paperNodes := map[string]float64{"DBLP": 18000, "Facebook": 4700}[dataset]
	ev, err := datagen.ByName(dataset, datagen.Config{Seed: 1, Scale: float64(nodes) / paperNodes})
	if err != nil {
		tb.Fatal(err)
	}
	return ev.SnapshotFraction(frac)
}

// liveSources returns k sources spread evenly over the nodes that have at
// least one edge.
func liveSources(g *graph.Graph, k int) []int {
	var live []int
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(v) > 0 {
			live = append(live, v)
		}
	}
	out := make([]int, k)
	for i := range out {
		out[i] = live[i*len(live)/k]
	}
	return out
}

// blockWithPaths starts a graph of a dense block (nodes [0, block), every
// pair joined), a path of path nodes hanging off block node 0, a second one
// off block node 1, and isolated nodes after them. A BFS from the far end of the
// first path expands one node per level, reaches the block in one wide
// level, then leaves it down the second path: a level-synchronous kernel
// meets both direction switches. Callers may add edges before Build.
func blockWithPaths(block, path, isolated int) *graph.Builder {
	n := block + 2*path + isolated
	b := graph.NewBuilder(n)
	for u := 0; u < block; u++ {
		for v := u + 1; v < block; v++ {
			_ = b.AddEdge(u, v)
		}
	}
	for i, tail := 0, 0; i < 2*path; i++ {
		if i == path {
			tail = 1 // the second path starts at block node 1
		}
		_ = b.AddEdge(tail, block+i)
		tail = block + i
	}
	return b
}

// TestDirectionRuleEdgeWork pins the direction rule's traversal work on the
// two graph shapes the served workloads query, summed over every source of
// small datagen fixtures. A plain top-down BFS examines each reached node's
// adjacency once. On DBLP, bottom-up levels chosen by Beamer's edge test
// alone examined about 2.5 times that; with the frontier-share test
// dirOptBFS must stay at or below it. On Facebook bottom-up must still
// engage and at least halve it.
//
// The bounded leg (PrunedSecondBFS from every source of the served pair,
// G_t1 at 80% and G_t2 full, under constant thresholds) is held against
// referencePrunedBFS, the same depth-limit cut as a plain top-down loop:
// on DBLP it may examine no more edges, and on Facebook, where a top-down
// bounded row examines more edges than a full one, it must cut them by
// maxPrunedRatio.
func TestDirectionRuleEdgeWork(t *testing.T) {
	cases := []struct {
		dataset        string
		nodes          int
		maxRatio       float64
		maxPrunedRatio float64
	}{
		{"DBLP", 1000, 1, 1},
		{"Facebook", 500, 0.5, 0.6},
	}
	for _, c := range cases {
		g1 := servedSnapshot(t, c.dataset, c.nodes, 0.8)
		g2 := servedSnapshot(t, c.dataset, c.nodes, 1)
		n := g2.NumNodes()
		d1, d2, ref := make([]int32, n), make([]int32, n), make([]int32, n)
		s := NewScratch(n)
		var refEdges int64
		before := SnapshotMetrics()
		for _, th := range []int32{1, 2, 3} {
			bound := func() int32 { return th }
			for src := 0; src < n; src++ {
				BFSWith(g1, src, d1, s)
				PrunedSecondBFS(g2, src, d1, d2, bound, s)
				_, e := referencePrunedBFS(g2, src, d1, ref, th)
				refEdges += e
			}
		}
		if got := SnapshotMetrics().Sub(before).PrunedBFS.Edges; float64(got) > c.maxPrunedRatio*float64(refEdges) {
			t.Errorf("%s n=%d: bounded leg examined %d edges over %d sources at T = 1, 2, 3, reference %d (ratio %.2f, want <= %.1f)",
				c.dataset, n, got, n, refEdges, float64(got)/float64(refEdges), c.maxPrunedRatio)
		}
		for i, g := range []*graph.Graph{g1, g2} {
			var topDown int64
			before := SnapshotMetrics()
			for src := 0; src < n; src++ {
				BFSWith(g, src, d1, s)
				for v, d := range d1 {
					if d != Unreachable {
						topDown += int64(g.Degree(v))
					}
				}
			}
			got := SnapshotMetrics().Sub(before).DirectionOpt.Edges
			if float64(got) > c.maxRatio*float64(topDown) {
				t.Errorf("%s n=%d at %d%%: diropt examined %d edges over %d sources, top-down %d (ratio %.2f, want <= %.1f)",
					c.dataset, n, 80+20*i, got, n, topDown, float64(got)/float64(topDown), c.maxRatio)
			}
		}
	}
}

// TestDirectionOptSwitchesBack: from the far end of a path, the kernel
// enters bottom-up for the block's wide level and returns to top-down for
// the second path, and its distances match the reference BFS.
func TestDirectionOptSwitchesBack(t *testing.T) {
	const block, path = 40, 12
	g := blockWithPaths(block, path, 5).Build()
	src := block + path - 1 // far end of the first path
	want, _, _ := referenceBFS(g, src)
	dist := make([]int32, g.NumNodes())
	before := SnapshotMetrics()
	BFSWith(g, src, dist, nil)
	d := SnapshotMetrics().Sub(before).DirectionOpt
	if d.Switches < 2 || d.BottomUpSteps < 1 {
		t.Fatalf("diropt switches = %d, bottom-up steps = %d, want >= 2 and >= 1", d.Switches, d.BottomUpSteps)
	}
	for v := range dist {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
}
