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
	workers = ClampWorkers(workers, len(sources))
	n := g.NumNodes()
	scratches := make([]Scratch, workers)
	if len(sources) >= msAutoThreshold {
		lanes := min(msBatchBits, len(sources))
		forEachChunk(len(sources), workers, msBatchBits, "bitparallel64", func(w, start, end int) {
			s := &scratches[w]
			batch := sources[start:end]
			rows := s.ensureRows(lanes, n)[:len(batch)]
			msBFSBatch(g, batch, rows, s)
			for i, src := range batch {
				fn(src, rows[i])
			}
		})
		return
	}
	dists := make([][]int32, workers)
	forEachChunk(len(sources), workers, 1, "diropt", func(w, i, _ int) {
		if dists[w] == nil {
			dists[w] = make([]int32, n)
		}
		BFSWith(g, sources[i], dists[w], &scratches[w])
		fn(sources[i], dists[w])
	})
}

// PairedSourcesFunc runs BFS from each source on both snapshots and hands the
// two distance vectors to fn together. It parallelizes across sources and
// picks its kernel like AllSourcesFunc; the buffers are per-worker and must
// not be retained.
func PairedSourcesFunc(g1, g2 *graph.Graph, sources []int, workers int, fn func(src int, d1, d2 []int32)) {
	workers = ClampWorkers(workers, len(sources))
	// Two scratches per worker, one per snapshot: a batch holds each graph's
	// distance rows until fn has seen both.
	s1 := make([]Scratch, workers)
	s2 := make([]Scratch, workers)
	if len(sources) >= msAutoThreshold {
		lanes := min(msBatchBits, len(sources))
		forEachChunk(len(sources), workers, msBatchBits, "bitparallel64", func(w, start, end int) {
			batch := sources[start:end]
			rows1 := s1[w].ensureRows(lanes, g1.NumNodes())[:len(batch)]
			rows2 := s2[w].ensureRows(lanes, g2.NumNodes())[:len(batch)]
			msBFSBatch(g1, batch, rows1, &s1[w])
			msBFSBatch(g2, batch, rows2, &s2[w])
			for i, src := range batch {
				fn(src, rows1[i], rows2[i])
			}
		})
		return
	}
	d1s := make([][]int32, workers)
	d2s := make([][]int32, workers)
	forEachChunk(len(sources), workers, 1, "diropt", func(w, i, _ int) {
		if d1s[w] == nil {
			d1s[w] = make([]int32, g1.NumNodes())
			d2s[w] = make([]int32, g2.NumNodes())
		}
		BFSWith(g1, sources[i], d1s[w], &s1[w])
		BFSWith(g2, sources[i], d2s[w], &s2[w])
		fn(sources[i], d1s[w], d2s[w])
	})
}

// forEachChunk splits [0, total) into chunks of at most size entries and runs
// body(workerIndex, start, end) on each, spreading chunks across workers.
// Worker indices are dense in [0, workers), so callers can keep per-worker
// state (scratches, row buffers) in plain slices; a sweep's allocations are
// then per worker, not per source. kernel labels the worker goroutines for
// pprof.
func forEachChunk(total, workers, size int, kernel string, body func(w, start, end int)) {
	numChunks := (total + size - 1) / size
	if workers > numChunks {
		workers = numChunks
	}
	chunk := func(c int) (int, int) {
		start := c * size
		return start, min(start+size, total)
	}
	if workers <= 1 {
		for c := 0; c < numChunks; c++ {
			start, end := chunk(c)
			body(0, start, end)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int, workers)
	for w := 0; w < workers; w++ {
		w := w
		sweepWorker(&wg, kernel, func() {
			for c := range next {
				start, end := chunk(c)
				body(w, start, end)
			}
		})
	}
	for c := 0; c < numChunks; c++ {
		next <- c
	}
	close(next)
	wg.Wait()
}
