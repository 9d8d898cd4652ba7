package sssp

import (
	"context"
	"fmt"
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
// materializing an O(n²) distance matrix. The kernel follows sweepRows's
// per-share policy.
func AllSourcesFunc(g *graph.Graph, sources []int, workers int, fn func(src int, dist []int32)) {
	sweepRows([]*graph.Graph{g}, sources, workers, nil, func(src int, rows [][]int32) {
		fn(src, rows[0])
	})
}

// RowsInto fills rows[i] (length g.NumNodes()) with the BFS distances from
// sources[i], spreading the sources across workers goroutines (<=0 means
// GOMAXPROCS) under sweepRows's per-share policy. The sweep writes straight
// into rows and allocates none of its own. Duplicate sources produce
// identical rows; each source's row must be a distinct slice.
func RowsInto(g *graph.Graph, sources []int, rows [][]int32, workers int) {
	if len(rows) != len(sources) {
		panic(fmt.Sprintf("sssp: %d rows for %d sources", len(rows), len(sources)))
	}
	sweepRows([]*graph.Graph{g}, sources, workers, rows, nil)
}

// PairedSourcesFunc runs BFS from each source on both snapshots and hands the
// two distance vectors to fn together. It parallelizes across sources and
// picks its kernel like AllSourcesFunc; the buffers are per-worker and must
// not be retained.
func PairedSourcesFunc(g1, g2 *graph.Graph, sources []int, workers int, fn func(src int, d1, d2 []int32)) {
	sweepRows([]*graph.Graph{g1, g2}, sources, workers, nil, func(src int, rows [][]int32) {
		fn(src, rows[0], rows[1])
	})
}

// sweepRows is the multi-source drivers' kernel policy and worker pool.
// The sources are spread over ClampWorkers(workers, len(sources))
// goroutines, and the kernel is picked per worker share, ⌈sources/workers⌉:
// a share of at least msShareThreshold goes through msBFSBatch in chunks of
// up to 64 lanes (a share's worth when it has fewer), and a smaller one's
// sources go through dirOptBFS one at a time. Each worker borrows one pooled
// Scratch for the whole call. With into nil, a worker allocates its rows
// once, one per source a chunk can hold on each graph in gs, traverses each
// chunk on every graph, then hands visit(src, rows) src's row on each graph,
// in gs order. With into set (one graph, visit nil), into[i] is the row of
// sources[i], and the sweep allocates no rows.
func sweepRows(gs []*graph.Graph, sources []int, workers int, into [][]int32, visit func(src int, rows [][]int32)) {
	workers = ClampWorkers(workers, len(sources))
	size, kernel := 1, "diropt"
	if share := (len(sources) + workers - 1) / workers; share >= msShareThreshold {
		size, kernel = min(msBatchBits, share), "bitparallel64"
	}
	batched := size > 1
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
		var blocks [][][]int32
		if into == nil {
			blocks = make([][][]int32, len(gs))
			for j, g := range gs {
				blocks[j] = newRows(size, g.NumNodes())
			}
		}
		out := make([][]int32, len(gs))
		for c := range next {
			lo, hi := c*size, min((c+1)*size, len(sources))
			batch := sources[lo:hi]
			for j, g := range gs {
				var rows [][]int32
				if into != nil {
					rows = into[lo:hi]
				} else {
					rows = blocks[j][:len(batch)]
				}
				if batched {
					msBFSBatch(g, batch, rows, s)
				} else {
					BFSWith(g, batch[0], rows[0], s)
				}
			}
			if visit == nil {
				continue
			}
			for i, src := range batch {
				for j := range gs {
					out[j] = blocks[j][i]
				}
				visit(src, out)
			}
		}
	}
	workers = min(workers, numChunks)
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
