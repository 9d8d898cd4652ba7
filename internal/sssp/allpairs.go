package sssp

import (
	"context"
	"fmt"
	"math/bits"
	"runtime/pprof"
	"sync"
	"sync/atomic"

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
	sweepRows([]*graph.Graph{g}, sources, workers, nil, nil, func(src int, rows [][]int32) {
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
	sweepRows([]*graph.Graph{g}, sources, workers, rows, nil, nil)
}

// PrunedRowsInto is the sweep form of PrunedSecondBFS under a constant
// threshold t: it fills d2s[i] with sources[i]'s G_t2 row bounded at t,
// given d1s[i], the source's full G_t1 row, and returns how many rows the
// cut stopped. Each row and each cut is the one PrunedSecondBFS with bound
// t gives (the same contract: a cut row is valid only for delta extraction
// against its d1 under a floor of at least max(1, t)), whichever kernel
// sweepRows's per-share rule picks: a batched share stops each lane at its
// own depth limit, maxD1 − max(1, t). It allocates no row.
func PrunedRowsInto(g2 *graph.Graph, sources []int, d1s, d2s [][]int32, t int32, workers int) (cutoffs int) {
	if len(d1s) != len(sources) || len(d2s) != len(sources) {
		panic(fmt.Sprintf("sssp: %d t1 and %d t2 rows for %d sources", len(d1s), len(d2s), len(sources)))
	}
	return sweepRows([]*graph.Graph{g2}, sources, workers, d2s, &bounded{d1s: d1s, t: t}, nil)
}

// bounded makes a one-graph sweep's rows bounded second-snapshot rows at
// the constant threshold t: d1s[i] is the full first-snapshot row of the
// sweep's sources[i].
type bounded struct {
	d1s [][]int32
	t   int32
}

// limit is the depth limit of the bounded row of sources[i], the level
// PrunedSecondBFS's cut stops before at threshold t: maxD1 − max(1, t).
// Four partial maxima over interleaved nodes keep four independent max
// chains in flight instead of one carried through every node.
func (b *bounded) limit(i int) int32 {
	d1 := b.d1s[i]
	var m0, m1, m2, m3 int32
	v := 0
	for ; v+4 <= len(d1); v += 4 {
		r := d1[v : v+4 : v+4]
		m0, m1, m2, m3 = max(m0, r[0]), max(m1, r[1]), max(m2, r[2]), max(m3, r[3])
	}
	for ; v < len(d1); v++ {
		m0 = max(m0, d1[v])
	}
	return max(m0, m1, m2, m3) - max(1, b.t)
}

// PairedSourcesFunc runs BFS from each source on both snapshots and hands the
// two distance vectors to fn together. It parallelizes across sources and
// picks its kernel like AllSourcesFunc; the buffers are per-worker and must
// not be retained.
func PairedSourcesFunc(g1, g2 *graph.Graph, sources []int, workers int, fn func(src int, d1, d2 []int32)) {
	sweepRows([]*graph.Graph{g1, g2}, sources, workers, nil, nil, func(src int, rows [][]int32) {
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
// sources[i], and the sweep allocates no rows. With cut set as well, each
// row is bounded: a batch stops each lane at its depth limit and a small
// share runs PrunedSecondBFS at the constant threshold; the sweep returns
// how many rows were cut.
func sweepRows(gs []*graph.Graph, sources []int, workers int, into [][]int32, cut *bounded, visit func(src int, rows [][]int32)) (cutoffs int) {
	workers = ClampWorkers(workers, len(sources))
	size, kernel := 1, "diropt"
	if SweepBatches(len(sources), workers) {
		share := (len(sources) + workers - 1) / workers
		size, kernel = min(msBatchBits, share), "bitparallel64"
	}
	batched := size > 1
	numChunks := (len(sources) + size - 1) / size
	if numChunks == 0 {
		return 0
	}
	var cuts atomic.Int64
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
		var limits []int32
		var bound func() int32
		if cut != nil {
			limits = make([]int32, size)
			bound = func() int32 { return cut.t }
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
				switch {
				case batched && cut != nil:
					for i := range batch {
						limits[i] = cut.limit(lo + i)
					}
					cuts.Add(int64(bits.OnesCount64(msBFSBatch(g, batch, rows, limits[:len(batch)], s))))
				case batched:
					msBFSBatch(g, batch, rows, nil, s)
				case cut != nil:
					if PrunedSecondBFS(g, batch[0], cut.d1s[lo], rows[0], bound, s) {
						cuts.Add(1)
					}
				default:
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
		return int(cuts.Load())
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sweepWorker(&wg, kernel, work)
	}
	wg.Wait()
	return int(cuts.Load())
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
