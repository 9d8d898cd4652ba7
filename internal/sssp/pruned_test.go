package sssp

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/invariant"
)

// referencePrunedBFS is the bounded second-snapshot traversal as a plain
// top-down level loop, the kernel PrunedSecondBFS ran before it shared
// dirOptBFS's loop: the same d1 histogram, the same cut check before each
// level under the constant threshold bound, and the same settle pass. It
// fills d2 and returns whether the cut fired and how many edges the
// traversal examined.
func referencePrunedBFS(g2 *graph.Graph, src int, d1, d2 []int32, bound int32) (cut bool, edges int64) {
	n := g2.NumNodes()
	cnt := make([]int32, n+1)
	maxRem := int32(-1)
	for v := 0; v < n; v++ {
		d2[v] = Unreachable
		if d1[v] > 0 {
			cnt[d1[v]]++
			maxRem = max(maxRem, d1[v])
		}
	}
	d2[src] = 0
	frontier := []int{src}
	for level := int32(0); len(frontier) > 0; level++ {
		if maxRem-(level+1) < max(1, bound) {
			cut = true
			break
		}
		var next []int
		for _, u := range frontier {
			edges += int64(g2.Degree(u))
			for _, v := range g2.Neighbors(u) {
				if d2[v] == Unreachable {
					d2[v] = level + 1
					if d1[v] > 0 {
						cnt[d1[v]]--
					}
					next = append(next, int(v))
				}
			}
		}
		for maxRem >= 0 && cnt[maxRem] == 0 {
			maxRem--
		}
		frontier = next
	}
	if cut {
		for v := range d2 {
			if d2[v] == Unreachable && d1[v] > 0 {
				d2[v] = d1[v]
			}
		}
	}
	return cut, edges
}

// growingComponents builds a snapshot pair g1 ⊆ g2. Both start from
// blockWithPaths(block, path, n), a dense block between two paths, so a
// bounded traversal from the far end of the first path meets a bottom-up
// level. Random edges then join the block, the paths and the first
// n − n/5 of the n nodes after them, split into comps groups: g1 holds
// some of the edges inside a group, g2 all of them plus a few bridging
// groups (merging components and shortcutting the paths). The last n/5
// nodes stay isolated in both snapshots.
func growingComponents(n, comps, block, path int, rng *rand.Rand) (g1, g2 *graph.Graph) {
	b1, b2 := blockWithPaths(block, path, n), blockWithPaths(block, path, n)
	live := block + 2*path + n - n/5
	for i := 0; i < 2*(n-n/5); i++ {
		u, v := rng.Intn(live), rng.Intn(live)
		switch {
		case u*comps/live != v*comps/live:
			if rng.Intn(8) == 0 {
				_ = b2.AddEdge(u, v)
			}
		case rng.Intn(2) == 0:
			_ = b1.AddEdge(u, v)
			_ = b2.AddEdge(u, v)
		default:
			_ = b2.AddEdge(u, v)
		}
	}
	return b1.Build(), b2.Build()
}

// prunedCase is one FuzzPrunedSecondBFS input.
type prunedCase struct {
	seed                    int64
	size, comps, srcA, srcB uint8
	th                      int8
	block, path             uint8
}

// prunedCorpus seeds FuzzPrunedSecondBFS. The last entries start from the
// far end of the first path of a 40-node block, where the bounded
// traversal runs the block's wide level bottom-up (TestPrunedSecondBFSBottomUp).
var prunedCorpus = []prunedCase{
	{1, 40, 3, 0, 5, 1, 0, 0},
	{7, 3, 1, 2, 2, 0, 0, 0},
	{42, 90, 4, 17, 60, 3, 0, 0},
	{-3, 120, 2, 99, 1, -2, 0, 0},
	{5, 10, 1, 51, 60, 1, 40, 12},
	{6, 10, 1, 51, 0, 2, 40, 12},
	{8, 30, 2, 51, 45, 1, 40, 12},
}

// checkPrunedSecondBFS runs one case: PrunedSecondBFS must return exactly
// referencePrunedBFS's row and cut under the same constant threshold T, and
// against the oracle d2[src] is 0; every node with d1 > 0 whose true Δ
// reaches max(1, T) holds its true t2 distance; every other node with
// d1 > 0 holds its true distance or the cut's filler d1; and a run that
// reports no cut returns the true row exactly. One scratch serves two
// sources, so state left over from a run cannot go unnoticed.
func checkPrunedSecondBFS(t *testing.T, c prunedCase) {
	t.Helper()
	rng := rand.New(rand.NewSource(c.seed))
	g1, g2 := growingComponents(int(c.size)%120+2, int(c.comps)%5+1, int(c.block)%48, int(c.path)%32, rng)
	n := g1.NumNodes()
	th := int32(c.th) % 8
	floor := max(1, th)
	s := &Scratch{}
	d2, ref := make([]int32, n), make([]int32, n)
	for _, src := range []int{int(c.srcA) % n, int(c.srcB) % n} {
		d1, _, _ := referenceBFS(g1, src)
		want, _, _ := referenceBFS(g2, src)
		cut := PrunedSecondBFS(g2, src, d1, d2, func() int32 { return th }, s)
		if refCut, _ := referencePrunedBFS(g2, src, d1, ref, th); cut != refCut {
			t.Fatalf("src %d T %d: cut = %v, reference kernel %v", src, th, cut, refCut)
		}
		if d2[src] != 0 {
			t.Fatalf("src %d: d2[src] = %d, want 0", src, d2[src])
		}
		for v := range d2 {
			if d2[v] != ref[v] {
				t.Fatalf("src %d T %d: d2[%d] = %d, reference kernel %d", src, th, v, d2[v], ref[v])
			}
			if !cut && d2[v] != want[v] {
				t.Fatalf("src %d T %d: uncut run has d2[%d] = %d, want %d", src, th, v, d2[v], want[v])
			}
			if d1[v] <= 0 || d2[v] == want[v] {
				continue
			}
			if d1[v]-want[v] >= floor || d2[v] != d1[v] {
				t.Fatalf("src %d T %d: d2[%d] = %d, want %d (d1 %d)", src, th, v, d2[v], want[v], d1[v])
			}
		}
	}
}

// FuzzPrunedSecondBFS pins the bounded second-snapshot traversal to the
// top-down reference kernel and to the oracle under a fixed threshold (see
// checkPrunedSecondBFS).
func FuzzPrunedSecondBFS(f *testing.F) {
	for _, c := range prunedCorpus {
		f.Add(c.seed, c.size, c.comps, c.srcA, c.srcB, c.th, c.block, c.path)
	}
	f.Fuzz(func(t *testing.T, seed int64, size, comps, srcA, srcB uint8, th int8, block, path uint8) {
		checkPrunedSecondBFS(t, prunedCase{seed, size, comps, srcA, srcB, th, block, path})
	})
}

// TestPrunedSecondBFSBottomUp runs the fuzz corpus and requires that some
// bounded level ran bottom-up: with only top-down levels the equality with
// referencePrunedBFS would not cover the bottom-up half of the loop.
func TestPrunedSecondBFSBottomUp(t *testing.T) {
	before := SnapshotMetrics()
	for _, c := range prunedCorpus {
		checkPrunedSecondBFS(t, c)
	}
	d := SnapshotMetrics().Sub(before).PrunedBFS
	if d.BottomUpSteps < 1 || d.Switches < 1 {
		t.Fatalf("prunedbfs bottom-up steps = %d, switches = %d over the corpus, want >= 1 each", d.BottomUpSteps, d.Switches)
	}
}

// TestPrunedSecondBFSZeroAllocs: with a warmed Scratch, a bounded call
// allocates nothing, like BFSWith (TestBFSWithZeroAllocs).
func TestPrunedSecondBFSZeroAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("CSR invariant assertions allocate; zero-alloc holds for default builds")
	}
	g1, g2 := growingComponents(200, 2, 40, 12, rand.New(rand.NewSource(3)))
	n := g2.NumNodes()
	d1, d2 := make([]int32, n), make([]int32, n)
	s := NewScratch(n)
	bound := func() int32 { return 1 }
	BFSWith(g1, 0, d1, s)
	PrunedSecondBFS(g2, 0, d1, d2, bound, s)
	if allocs := testing.AllocsPerRun(50, func() {
		PrunedSecondBFS(g2, 0, d1, d2, bound, s)
	}); allocs != 0 {
		t.Errorf("%.1f allocs per PrunedSecondBFS with provided Scratch, want 0", allocs)
	}
}
