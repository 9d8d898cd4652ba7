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
// materializing an O(n²) distance matrix. Under the Auto engine, large
// source sets run 64 sources per pass through the bit-parallel kernel.
func AllSourcesFunc(g *graph.Graph, sources []int, workers int, fn func(src int, dist []int32)) {
	AllSourcesEngineFunc(g, sources, workers, Auto, fn)
}

// AllSourcesEngineFunc is AllSourcesFunc with an explicit engine, the hook
// ablations use to compare kernels on identical sweeps.
func AllSourcesEngineFunc(g *graph.Graph, sources []int, workers int, e Engine, fn func(src int, dist []int32)) {
	_ = AllSourcesEngineCtxFunc(context.Background(), g, sources, workers, e, fn)
}

// AllSourcesEngineCtxFunc is AllSourcesEngineFunc under a context: once ctx
// is done, no further source (or 64-source batch) starts traversing and the
// driver returns ctx's error; traversals already in flight finish their
// current source, so fn is never interrupted mid-row. Cancellation changes
// which sources got swept, never the rows delivered for the ones that did,
// and leaves all pooled scratch reusable.
func AllSourcesEngineCtxFunc(ctx context.Context, g *graph.Graph, sources []int, workers int, e Engine, fn func(src int, dist []int32)) error {
	workers = ClampWorkers(workers, len(sources))
	eng := resolveBatch(e, len(sources))
	n := g.NumNodes()
	scratches := make([]Scratch, workers)
	if eng == BitParallel64 {
		forEachChunk(ctx, len(sources), workers, msBatchBits, eng, func(w, start, end int) {
			s := &scratches[w]
			batch := sources[start:end]
			rows := s.ensureRows(n)[:len(batch)]
			msBFSBatch(g, batch, rows, s)
			for i, src := range batch {
				fn(src, rows[i])
			}
		})
		return ctx.Err()
	}
	dists := make([][]int32, workers)
	forEachChunk(ctx, len(sources), workers, 1, eng, func(w, i, _ int) {
		if dists[w] == nil {
			dists[w] = make([]int32, n)
		}
		BFSWith(g, sources[i], dists[w], eng, &scratches[w])
		fn(sources[i], dists[w])
	})
	return ctx.Err()
}

// PairedSourcesFunc runs BFS from each source on both snapshots and hands the
// two distance vectors to fn together. It parallelizes across sources like
// AllSourcesFunc; the buffers are per-worker and must not be retained.
func PairedSourcesFunc(g1, g2 *graph.Graph, sources []int, workers int, fn func(src int, d1, d2 []int32)) {
	PairedSourcesEngineFunc(g1, g2, sources, workers, Auto, fn)
}

// PairedSourcesEngineFunc is PairedSourcesFunc with an explicit engine.
func PairedSourcesEngineFunc(g1, g2 *graph.Graph, sources []int, workers int, e Engine, fn func(src int, d1, d2 []int32)) {
	_ = PairedSourcesEngineCtxFunc(context.Background(), g1, g2, sources, workers, e, fn)
}

// PairedSourcesEngineCtxFunc is PairedSourcesEngineFunc under a context,
// with the same cancellation contract as AllSourcesEngineCtxFunc: no new
// source starts after ctx is done, rows already being produced are delivered
// whole, scratch stays reusable.
func PairedSourcesEngineCtxFunc(ctx context.Context, g1, g2 *graph.Graph, sources []int, workers int, e Engine, fn func(src int, d1, d2 []int32)) error {
	workers = ClampWorkers(workers, len(sources))
	eng := resolveBatch(e, len(sources))
	// Two scratches per worker, one per snapshot: a batch holds each graph's
	// distance rows until fn has seen both.
	s1 := make([]Scratch, workers)
	s2 := make([]Scratch, workers)
	if eng == BitParallel64 {
		forEachChunk(ctx, len(sources), workers, msBatchBits, eng, func(w, start, end int) {
			batch := sources[start:end]
			rows1 := s1[w].ensureRows(g1.NumNodes())[:len(batch)]
			rows2 := s2[w].ensureRows(g2.NumNodes())[:len(batch)]
			msBFSBatch(g1, batch, rows1, &s1[w])
			msBFSBatch(g2, batch, rows2, &s2[w])
			for i, src := range batch {
				fn(src, rows1[i], rows2[i])
			}
		})
		return ctx.Err()
	}
	d1s := make([][]int32, workers)
	d2s := make([][]int32, workers)
	forEachChunk(ctx, len(sources), workers, 1, eng, func(w, i, _ int) {
		if d1s[w] == nil {
			d1s[w] = make([]int32, g1.NumNodes())
			d2s[w] = make([]int32, g2.NumNodes())
		}
		BFSWith(g1, sources[i], d1s[w], eng, &s1[w])
		BFSWith(g2, sources[i], d2s[w], eng, &s2[w])
		fn(sources[i], d1s[w], d2s[w])
	})
	return ctx.Err()
}

// DistanceMatrix computes the full rows-by-n distance matrix from the given
// sources. Row i holds the distances from sources[i]. Intended for candidate
// sets and landmark sets (small m), not for all-pairs ground truth.
func DistanceMatrix(g *graph.Graph, sources []int, workers int) [][]int32 {
	rows := make([][]int32, len(sources))
	// Sweep each distinct source once, anchored at its first occurrence.
	// Sweeping the raw list would make every duplicate's callback store into
	// the same slot from different workers — a write-write race on the row
	// header (and wasted sweeps) whenever the candidate set repeats a source.
	index := make(map[int]int, len(sources))
	unique := make([]int, 0, len(sources))
	for i, s := range sources {
		if _, ok := index[s]; !ok {
			index[s] = i
			unique = append(unique, s)
		}
	}
	AllSourcesFunc(g, unique, workers, func(src int, dist []int32) {
		row := make([]int32, len(dist))
		copy(row, dist)
		rows[index[src]] = row
	})
	// Duplicate sources alias their first occurrence's row.
	for i, s := range sources {
		if rows[i] == nil {
			rows[i] = rows[index[s]]
		}
	}
	return rows
}

// forEachChunk splits [0, total) into chunks of at most size entries and runs
// body(workerIndex, start, end) on each, spreading chunks across workers.
// Worker indices are dense in [0, workers), so callers can keep per-worker
// state (scratches, row buffers) in plain slices; a sweep's allocations are
// then per worker, not per source. Once ctx is done, remaining chunks are
// skipped (chunks already running finish whole). kernel labels the worker
// goroutines for pprof.
func forEachChunk(ctx context.Context, total, workers, size int, kernel Engine, body func(w, start, end int)) {
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
			if ctx.Err() != nil {
				return
			}
			start, end := chunk(c)
			body(0, start, end)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int, workers)
	for w := 0; w < workers; w++ {
		w := w
		sweepWorker(&wg, kernel.String(), func() {
			for c := range next {
				if ctx.Err() != nil {
					continue // drain without traversing
				}
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
