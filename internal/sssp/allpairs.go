package sssp

import (
	"context"
	"runtime/pprof"
	"sync"

	"repro/internal/graph"
)

// sweepWorker runs body on a new goroutine labeled for pprof, so CPU and
// goroutine profiles attribute multi-source sweep work to the sssp
// subsystem (and the serving kernel) rather than to anonymous funcs.
func sweepWorker(wg *sync.WaitGroup, kernel string, body func()) {
	wg.Add(1)
	go pprof.Do(context.Background(), pprof.Labels("subsystem", "sssp-sweep", "kernel", kernel),
		func(context.Context) {
			defer wg.Done()
			body()
		})
}

// AllSourcesFunc runs fn(src, dist) for every source in sources, spreading
// the BFS work across workers goroutines (<=0 means GOMAXPROCS). Each worker
// owns its distance buffers, so fn must finish with dist before returning and
// must not retain it. fn may be called concurrently from different workers;
// for a fixed worker the calls are sequential.
//
// This is the exact-ground-truth workhorse: the topk package streams every
// source's distance vector through a Δ-accumulating callback instead of
// materializing an O(n²) distance matrix. A sweep of msAutoThreshold or
// more sources runs 64 sources per pass through the bit-parallel kernel;
// a smaller one runs dirOptBFS per source.
func AllSourcesFunc(g *graph.Graph, sources []int, workers int, fn func(src int, dist []int32)) {
	sweepRows([]*graph.Graph{g}, sources, workers, func(src int, rows [][]int32) {
		fn(src, rows[0])
	})
}

// PairedSourcesFunc runs BFS from each source on both snapshots and hands the
// two distance vectors to fn together. It parallelizes across sources and
// picks its kernel like AllSourcesFunc; the buffers are per-worker and must
// not be retained.
func PairedSourcesFunc(g1, g2 *graph.Graph, sources []int, workers int, fn func(src int, d1, d2 []int32)) {
	sweepRows([]*graph.Graph{g1, g2}, sources, workers, func(src int, rows [][]int32) {
		fn(src, rows[0], rows[1])
	})
}

// sweepRows is the multi-source drivers' kernel policy and worker pool.
// The sources of a sweep of at least msAutoThreshold go through msBFSBatch
// in chunks of up to 64, and a smaller sweep's go through dirOptBFS one at
// a time. Chunks are spread across at most workers goroutines (<=0 means
// GOMAXPROCS). Each worker borrows one pooled Scratch for the whole call
// and allocates its rows once, one per source a chunk can hold
// (min(64, sources) for a batched sweep) on each graph in gs, so a sweep
// allocates rows per worker, never per source. A chunk is traversed on
// every graph with the worker's Scratch, then visit(src, rows) gets src's
// row on each graph, in gs order.
func sweepRows(gs []*graph.Graph, sources []int, workers int, visit func(src int, rows [][]int32)) {
	batched := len(sources) >= msAutoThreshold
	size, kernel := 1, "diropt"
	if batched {
		size, kernel = min(msBatchBits, len(sources)), "bitparallel64"
	}
	numChunks := (len(sources) + size - 1) / size
	if numChunks == 0 {
		return
	}
	next := make(chan int, numChunks)
	for c := 0; c < numChunks; c++ {
		next <- c
	}
	close(next)
	work := func() {
		s := getScratch()
		defer putScratch(s)
		blocks := make([][][]int32, len(gs))
		for j, g := range gs {
			blocks[j] = newRows(size, g.NumNodes())
		}
		out := make([][]int32, len(gs))
		for c := range next {
			batch := sources[c*size : min((c+1)*size, len(sources))]
			for j, g := range gs {
				if batched {
					msBFSBatch(g, batch, blocks[j][:len(batch)], s)
				} else {
					BFSWith(g, batch[0], blocks[j][0], s)
				}
			}
			for i, src := range batch {
				for j := range gs {
					out[j] = blocks[j][i]
				}
				visit(src, out)
			}
		}
	}
	workers = ClampWorkers(workers, numChunks)
	if workers == 1 {
		work()
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sweepWorker(&wg, kernel, work)
	}
	wg.Wait()
}

// newRows returns count distance rows of length n over one backing array.
func newRows(count, n int) [][]int32 {
	backing := make([]int32, count*n)
	rows := make([][]int32, count)
	for i := range rows {
		rows[i] = backing[i*n : (i+1)*n]
	}
	return rows
}
