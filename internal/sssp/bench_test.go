package sssp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// benchGraph builds a connected random graph with ~3 edges per node.
func benchGraph(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		_ = b.AddEdge(i, rng.Intn(i))
	}
	for i := 0; i < 2*n; i++ {
		_ = b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

// BenchmarkBFSScaling measures the single-source BFS cost across graph
// sizes — the unit of the paper's budget.
func BenchmarkBFSScaling(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		g := benchGraph(n, 1)
		dist := make([]int32, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BFS(g, i%n, dist)
			}
		})
	}
}

// BenchmarkDijkstraScaling measures the weighted engine on unit weights for
// a direct comparison with BFS.
func BenchmarkDijkstraScaling(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		g := graph.FromUnweighted(benchGraph(n, 2))
		dist := make([]int32, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Dijkstra(g, i%n, dist)
			}
		})
	}
}

// BenchmarkAllSourcesParallel measures the parallel all-sources driver's
// scaling with worker count (the ground-truth sweep's engine).
func BenchmarkAllSourcesParallel(b *testing.B) {
	g := benchGraph(5000, 3)
	sources := make([]int, 200)
	for i := range sources {
		sources[i] = i * 25
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AllSourcesFunc(g, sources, workers, func(int, []int32) {})
			}
		})
	}
}

// BenchmarkBFSEngines compares the two kernels. Single-source rows
// measure one BFS; the batch rows measure a 64-source sweep per op (divide
// by 64 for the per-source cost) on one worker: batch64/diropt runs
// dirOptBFS per source, the path of worker shares below msShareThreshold,
// and batch64/bitparallel64 is the sweep driver itself, where the
// bit-parallel kernel's batching pays off. The lanes rows are the
// threshold's evidence: on the four served snapshots (DBLP n=10k and
// Facebook n=4,700, each at 80% and 100%), one op runs 8, 16, 32 or 64
// sources either through dirOptBFS one at a time or as one msBFSBatch, and
// reports ns/source. The DBLP and Facebook rows run dirOptBFS on
// the served workloads' graph shapes (servedSnapshot), cycling over 200
// sources with an edge: benchGraph is one connected random component with
// neither DBLP's diameter nor its unreachable components, so those rows
// decide the direction rule. The pruned rows run the bounded leg,
// PrunedSecondBFS, on the four windows the served workloads query (G_t1 at
// the first fraction, G_t2 at the second) from 200 sources with an edge in
// G_t1, under the constant threshold 1 that every top-k extraction starts
// from until k pairs are offered.
//
// Every graph and the pruned rows' d1 rows are built by the first row that
// runs and needs them, outside its timed loop, so a run filtered to one row
// builds only that row's fixtures. Rows run one at a time, so the memos
// need no lock.
func BenchmarkBFSEngines(b *testing.B) {
	type snapshotKey struct {
		dataset string
		nodes   int
		frac    float64
	}
	snapshots := map[snapshotKey]*graph.Graph{}
	snapshot := func(b *testing.B, dataset string, nodes int, frac float64) *graph.Graph {
		k := snapshotKey{dataset, nodes, frac}
		if snapshots[k] == nil {
			snapshots[k] = servedSnapshot(b, dataset, nodes, frac)
		}
		return snapshots[k]
	}
	randomGraphs := map[int]*graph.Graph{}
	randomGraph := func(n int) *graph.Graph {
		if randomGraphs[n] == nil {
			randomGraphs[n] = benchGraph(n, 1)
		}
		return randomGraphs[n]
	}

	for _, w := range []struct {
		dataset string
		nodes   int
		t1, t2  float64
	}{{"DBLP", 10000, 0.8, 1}, {"Facebook", 4700, 0.8, 1}, {"Facebook", 10000, 0.6, 0.8}, {"Facebook", 10000, 0.8, 1}} {
		var sources []int
		var d1 [][]int32
		b.Run(fmt.Sprintf("single/pruned/%s/n=%d/cut=%.1f-%.1f", w.dataset, w.nodes, w.t1, w.t2), func(b *testing.B) {
			g2 := snapshot(b, w.dataset, w.nodes, w.t2)
			n := g2.NumNodes()
			s := NewScratch(n)
			if d1 == nil {
				g1 := snapshot(b, w.dataset, w.nodes, w.t1)
				sources = liveSources(g1, 200)
				d1 = make([][]int32, len(sources))
				for i, src := range sources {
					d1[i] = make([]int32, n)
					BFSWith(g1, src, d1[i], s)
				}
			}
			d2 := make([]int32, n)
			bound := func() int32 { return 1 }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(sources)
				PrunedSecondBFS(g2, sources[j], d1[j], d2, bound, s)
			}
		})
	}
	for _, shape := range []struct {
		dataset string
		nodes   int
	}{{"DBLP", 10000}, {"Facebook", 4700}} {
		for _, frac := range []float64{0.8, 1} {
			b.Run(fmt.Sprintf("single/diropt/%s/n=%d/cut=%.1f", shape.dataset, shape.nodes, frac), func(b *testing.B) {
				g := snapshot(b, shape.dataset, shape.nodes, frac)
				sources := liveSources(g, 200)
				dist := make([]int32, g.NumNodes())
				s := NewScratch(g.NumNodes())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					BFSWith(g, sources[i%len(sources)], dist, s)
				}
			})
		}
	}
	for _, shape := range []struct {
		dataset string
		nodes   int
	}{{"DBLP", 10000}, {"Facebook", 4700}} {
		for _, frac := range []float64{0.8, 1} {
			for _, lanes := range []int{8, 16, 32, 64} {
				for _, batched := range []bool{false, true} {
					kernel := "diropt"
					if batched {
						kernel = "bitparallel64"
					}
					b.Run(fmt.Sprintf("lanes/%s/%s/n=%d/cut=%.1f/sources=%d", kernel, shape.dataset, shape.nodes, frac, lanes), func(b *testing.B) {
						g := snapshot(b, shape.dataset, shape.nodes, frac)
						n := g.NumNodes()
						pool := liveSources(g, 192)
						rows := newRows(lanes, n)
						s := NewScratch(n)
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							lo := (i * lanes) % len(pool)
							batch := pool[lo : lo+lanes]
							if batched {
								msBFSBatch(g, batch, rows, s)
								continue
							}
							for j, src := range batch {
								BFSWith(g, src, rows[j], s)
							}
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/source")
					})
				}
			}
		}
	}
	for _, n := range []int{10000, 50000} {
		sources := make([]int, 64)
		for i := range sources {
			sources[i] = (i * (n / 64)) % n
		}
		b.Run(fmt.Sprintf("single/diropt/n=%d", n), func(b *testing.B) {
			g := randomGraph(n)
			dist := make([]int32, n)
			s := NewScratch(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				BFSWith(g, i%n, dist, s)
			}
		})
		b.Run(fmt.Sprintf("batch64/diropt/n=%d", n), func(b *testing.B) {
			g := randomGraph(n)
			dist := make([]int32, n)
			s := NewScratch(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, src := range sources {
					BFSWith(g, src, dist, s)
				}
			}
		})
		b.Run(fmt.Sprintf("batch64/bitparallel64/n=%d", n), func(b *testing.B) {
			g := randomGraph(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AllSourcesFunc(g, sources, 1, func(int, []int32) {})
			}
		})
	}
}

// BenchmarkAllPairs measures the exact ground-truth sweep's hot path — the
// paired per-source distance rows streamed by topk via PairedSourcesFunc —
// on a 50k-node snapshot pair, over a 1024-source slice of the full sweep
// (per-source cost is uniform, so the slice is representative). Both rows
// run on one worker: the diropt row is dirOptBFS per source on each
// snapshot, and the bitparallel64 row is the driver, which batches a sweep
// this large.
func BenchmarkAllPairs(b *testing.B) {
	const n, srcCount = 50000, 1024
	g1 := benchGraph(n, 7)
	g2 := benchGraph(n, 8)
	sources := make([]int, srcCount)
	for i := range sources {
		sources[i] = (i * (n / srcCount)) % n
	}
	b.Run(fmt.Sprintf("paired/diropt/n=%d/sources=%d", n, srcCount), func(b *testing.B) {
		b.ReportAllocs()
		s := NewScratch(n)
		d1, d2 := make([]int32, n), make([]int32, n)
		for i := 0; i < b.N; i++ {
			for _, src := range sources {
				BFSWith(g1, src, d1, s)
				BFSWith(g2, src, d2, s)
			}
		}
	})
	b.Run(fmt.Sprintf("paired/bitparallel64/n=%d/sources=%d", n, srcCount), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			PairedSourcesFunc(g1, g2, sources, 1, func(int, []int32, []int32) {})
		}
	})
}
