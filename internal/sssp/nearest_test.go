package sssp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/invariant"
)

// TestLowerNearestMatchesFullRows drives LowerNearest through greedy chains
// of picks on random graphs with several components and isolated nodes:
// after every pick, near must equal the minimum of the picks' full BFS rows
// on every node some pick reaches, and keep its start value elsewhere. The
// kernel must visit no more nodes than a full row from the same pick, and
// its work must count in MetricsSnapshot.Total() as one call and no source.
func TestLowerNearestMatchesFullRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(120)
		g := randomGraph(rng, n, rng.Intn(3*n))
		near := make([]int32, n)
		want := make([]int32, n)
		for v := range near {
			near[v], want[v] = math.MaxInt32, math.MaxInt32
		}
		for picks := 0; picks < 1+rng.Intn(8); picks++ {
			p := rng.Intn(n)
			row, reached, _ := referenceBFS(g, p)
			for v, d := range row {
				if d >= 0 && d < want[v] {
					want[v] = d
				}
			}
			before := SnapshotMetrics()
			LowerNearest(g, p, near, nil)
			d := SnapshotMetrics().Sub(before)
			k := d.Nearest
			if tot := d.Total(); tot.Calls != 1 || tot.Nodes != k.Nodes || tot.Edges != k.Edges {
				t.Fatalf("trial %d: Total() %+v leaves out the chain's own counters %+v", trial, tot, k)
			}
			for v := range near {
				if near[v] != want[v] {
					t.Fatalf("trial %d pick %d (node %d): near[%d] = %d, want %d", trial, picks, p, v, near[v], want[v])
				}
			}
			if k.Calls != 1 || k.Sources != 0 || k.Nodes < 1 || k.Nodes > int64(reached) {
				t.Fatalf("trial %d: counters %+v for a pick reaching %d nodes, want 1 call, 0 sources, 1..%d nodes",
					trial, k, reached, reached)
			}
		}
	}
}

// TestLowerNearestZeroAllocs is TestBFSWithZeroAllocs for the MaxMin chain
// step: with a caller-provided, warmed Scratch a call allocates nothing.
func TestLowerNearestZeroAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("CSR invariant assertions allocate; zero-alloc holds for default builds")
	}
	g := randomGraph(rand.New(rand.NewSource(7)), 2000, 6000)
	n := g.NumNodes()
	near := make([]int32, n)
	s := NewScratch(n)
	p := 0
	reset := func() {
		for v := range near {
			near[v] = math.MaxInt32
		}
	}
	reset()
	LowerNearest(g, p, near, s)
	allocs := testing.AllocsPerRun(50, func() {
		p = (p + 37) % n
		if p == 0 {
			reset()
		}
		LowerNearest(g, p, near, s)
	})
	if allocs != 0 {
		t.Errorf("LowerNearest: %.1f allocs per call with provided Scratch, want 0", allocs)
	}
}
