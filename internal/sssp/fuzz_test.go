package sssp

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// referenceBFS is an intentionally naive queue BFS, independent of every
// production kernel, used as the differential-testing oracle.
func referenceBFS(g *graph.Graph, src int) (dist []int32, reached int, ecc int32) {
	n := g.NumNodes()
	dist = make([]int32, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	reached = 1
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[u] > ecc {
			ecc = dist[u]
		}
		for _, v := range g.Neighbors(u) {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				reached++
				queue = append(queue, int(v))
			}
		}
	}
	return dist, reached, ecc
}

// erdosRenyi samples a G(n, p) graph. Isolated nodes and multiple
// components occur naturally at small p.
func erdosRenyi(n int, p float64, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				_ = b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// prefAttach grows a preferential-attachment graph: each new node attaches
// to k endpoints sampled proportionally to degree (the repeated-endpoint
// trick), then a fraction of nodes is left isolated.
func prefAttach(n, k, isolated int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n + isolated)
	var endpoints []int
	for u := 1; u < n; u++ {
		for j := 0; j < k; j++ {
			var v int
			if len(endpoints) == 0 {
				v = rng.Intn(u)
			} else {
				v = endpoints[rng.Intn(len(endpoints))]
			}
			_ = b.AddEdge(u, v)
			endpoints = append(endpoints, u, v)
		}
	}
	return b.Build()
}

// bfsKernel is one BFS kernel driven from a single source.
type bfsKernel struct {
	name string
	run  func(g *graph.Graph, src int, dist []int32, s *Scratch) (reached int, ecc int32)
}

// kernels lists both BFS kernels: BFSWith, which runs dirOptBFS, and a
// one-lane msBFSBatch, the kernel every sweep share of msShareThreshold or
// more sources runs.
var kernels = []bfsKernel{
	{"diropt", BFSWith},
	{"bitparallel64", oneLaneBatch},
}

// oneLaneBatch runs msBFSBatch for the single source src into dist and
// reads the reached count and eccentricity off the row. A nil scratch
// borrows a pooled one, as BFSWith does.
func oneLaneBatch(g *graph.Graph, src int, dist []int32, s *Scratch) (reached int, ecc int32) {
	if s == nil {
		s = getScratch()
		defer putScratch(s)
	}
	sources := [1]int{src}
	rows := [1][]int32{dist}
	msBFSBatch(g, sources[:], rows[:], nil, s)
	for _, d := range dist {
		if d >= 0 {
			reached++
			ecc = max(ecc, d)
		}
	}
	return reached, ecc
}

// assertKernelsMatch runs both kernels from src, with pooled and with
// caller-owned scratch, and compares against the reference oracle.
func assertKernelsMatch(t *testing.T, g *graph.Graph, src int, label string) {
	t.Helper()
	want, wantReached, wantEcc := referenceBFS(g, src)
	dist := make([]int32, g.NumNodes())
	scratch := NewScratch(g.NumNodes())
	for _, k := range kernels {
		for _, s := range []*Scratch{nil, scratch} {
			reached, ecc := k.run(g, src, dist, s)
			if reached != wantReached || ecc != wantEcc {
				t.Fatalf("%s: kernel %s src %d: (reached, ecc) = (%d, %d), want (%d, %d)",
					label, k.name, src, reached, ecc, wantReached, wantEcc)
			}
			for v := range dist {
				if dist[v] != want[v] {
					t.Fatalf("%s: kernel %s src %d: dist[%d] = %d, want %d",
						label, k.name, src, v, dist[v], want[v])
				}
			}
		}
	}
}

// TestEnginesDifferential asserts both kernels return bit-identical
// distances, reached counts, and eccentricities on random Erdős–Rényi and
// preferential-attachment graphs, including disconnected graphs and
// isolated nodes.
func TestEnginesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type gen struct {
		name  string
		build func() *graph.Graph
	}
	gens := []gen{
		{"er-sparse", func() *graph.Graph { return erdosRenyi(60, 0.02, rng) }},
		{"er-mid", func() *graph.Graph { return erdosRenyi(80, 0.08, rng) }},
		{"er-dense", func() *graph.Graph { return erdosRenyi(40, 0.5, rng) }},
		{"pa", func() *graph.Graph { return prefAttach(100, 2, 0, rng) }},
		{"pa-isolated", func() *graph.Graph { return prefAttach(70, 3, 12, rng) }},
		{"singleton", func() *graph.Graph { return graph.FromEdges(5, nil) }},
	}
	for _, gn := range gens {
		for trial := 0; trial < 3; trial++ {
			g := gn.build()
			n := g.NumNodes()
			if n == 0 {
				continue
			}
			label := fmt.Sprintf("%s/%d", gn.name, trial)
			for i := 0; i < 10; i++ {
				assertKernelsMatch(t, g, rng.Intn(n), label)
			}
		}
	}
}

// TestDriversDifferential asserts the multi-source drivers, RowsInto among
// them, agree with the oracle for every source, and PrunedRowsInto with
// PrunedSecondBFS row by row and in its cut count, serial and with workers
// spreading sources (or batches of up to 64) across goroutines. It sweeps a
// source set whose shares pass msShareThreshold at every worker count and
// span several batch boundaries (64-lane batches at one and two workers,
// 50-lane ones at four), and one just below the threshold that runs per
// source; both contain duplicates (which must get identical rows).
func TestDriversDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := prefAttach(400, 2, 10, rng)
	g2 := prefAttach(400, 3, 10, rng)
	n := g.NumNodes()
	sources := make([]int, 0, 200)
	for i := 0; i < 196; i++ {
		sources = append(sources, rng.Intn(n))
	}
	sources = append(sources, sources[0], sources[1], n-1, n-1) // duplicates, isolated
	small := append(append([]int{}, sources[:msShareThreshold-3]...), sources[0], n-1)
	// Prefill the oracles serially: the callbacks below run concurrently
	// when workers > 1 and must only read shared state.
	want1 := map[int][]int32{}
	want2 := map[int][]int32{}
	for _, src := range sources {
		want1[src], _, _ = referenceBFS(g, src)
		want2[src], _, _ = referenceBFS(g2, src)
	}
	equal := func(a, b []int32) bool {
		for v := range a {
			if a[v] != b[v] {
				return false
			}
		}
		return true
	}
	for _, set := range [][]int{sources, small} {
		for _, workers := range []int{1, 2, 4} {
			var calls atomic.Int64
			var bad atomic.Bool
			AllSourcesFunc(g, set, workers, func(src int, dist []int32) {
				calls.Add(1)
				if !equal(dist, want1[src]) {
					bad.Store(true)
				}
			})
			if bad.Load() || calls.Load() != int64(len(set)) {
				t.Fatalf("%d sources workers %d: AllSources diverged from oracle (calls %d, want %d)",
					len(set), workers, calls.Load(), len(set))
			}
			calls.Store(0)
			PairedSourcesFunc(g, g2, set, workers, func(src int, d1, d2 []int32) {
				calls.Add(1)
				if !equal(d1, want1[src]) || !equal(d2, want2[src]) {
					bad.Store(true)
				}
			})
			if bad.Load() || calls.Load() != int64(len(set)) {
				t.Fatalf("%d sources workers %d: PairedSources diverged from oracle (calls %d, want %d)",
					len(set), workers, calls.Load(), len(set))
			}
			rows := make([][]int32, len(set))
			for i := range rows {
				rows[i] = make([]int32, n)
			}
			RowsInto(g2, set, rows, workers)
			for i, src := range set {
				if !equal(rows[i], want2[src]) {
					t.Fatalf("%d sources workers %d: RowsInto row %d (source %d) diverged from oracle",
						len(set), workers, i, src)
				}
			}
			// Bounded rows at constant thresholds: each row and the cut
			// count equal PrunedSecondBFS's, whichever kernel the share
			// picks (g ⊆ g2 is not needed for equality of the two).
			d1s := make([][]int32, len(set))
			for i, src := range set {
				d1s[i] = want1[src]
			}
			for _, th := range []int32{1, 2, 4} {
				bound := func() int32 { return th }
				wantCuts := 0
				wantRows := newRows(len(set), n)
				for i, src := range set {
					if PrunedSecondBFS(g2, src, d1s[i], wantRows[i], bound, nil) {
						wantCuts++
					}
				}
				if cuts := PrunedRowsInto(g2, set, d1s, rows, th, workers); cuts != wantCuts {
					t.Fatalf("%d sources workers %d T=%d: PrunedRowsInto cut %d rows, PrunedSecondBFS %d",
						len(set), workers, th, cuts, wantCuts)
				}
				for i, src := range set {
					if !equal(rows[i], wantRows[i]) {
						t.Fatalf("%d sources workers %d T=%d: PrunedRowsInto row %d (source %d) differs from PrunedSecondBFS",
							len(set), workers, th, i, src)
					}
				}
			}
		}
	}
}

// FuzzEngines feeds byte-derived graphs and sources through both kernels;
// each must agree with the oracle exactly. Every graph starts from
// blockWithPaths, sized by the shape bytes: a dense block between two paths,
// plus isolated nodes, so a source on a path meets both direction switches
// of dirOptBFS. The data bytes add edges anywhere (growing the universe up
// to 256 nodes), and the source byte picks the source.
func FuzzEngines(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{}, uint8(3), uint8(2), uint8(1))
	f.Add([]byte{255, 255, 0, 0, 7, 9}, uint8(9), uint8(5), uint8(30))
	f.Add([]byte{}, uint8(51), uint8(40), uint8(12)) // far end of the first path
	f.Add([]byte{60, 200, 3, 90}, uint8(70), uint8(47), uint8(25))
	f.Fuzz(func(t *testing.T, data []byte, srcByte, blockByte, pathByte uint8) {
		b := blockWithPaths(int(blockByte)%48, int(pathByte)%32, int(srcByte)%8+1)
		for i := 0; i+1 < len(data); i += 2 {
			_ = b.AddEdge(int(data[i]), int(data[i+1]))
		}
		g := b.Build()
		n := g.NumNodes()
		if n == 0 {
			return
		}
		src := int(srcByte) % n
		want, wantReached, wantEcc := referenceBFS(g, src)
		dist := make([]int32, n)
		for _, k := range kernels {
			reached, ecc := k.run(g, src, dist, nil)
			if reached != wantReached || ecc != wantEcc {
				t.Fatalf("kernel %s: (reached, ecc) = (%d, %d), want (%d, %d)", k.name, reached, ecc, wantReached, wantEcc)
			}
			for v := range dist {
				if dist[v] != want[v] {
					t.Fatalf("kernel %s: dist[%d] = %d, want %d", k.name, v, dist[v], want[v])
				}
			}
		}
	})
}
