package sssp

import (
	"runtime"
	"sync"
)

// Engine and Auto remain only for callers written against the deleted
// kernel-selection knob. Nothing reads them: the kernel is a fixed function
// of the call shape (see msShareThreshold).
//
// Deprecated: the BFS kernel can no longer be chosen.
type Engine int

// Auto is the zero Engine.
//
// Deprecated: see Engine.
const Auto Engine = 0

// msBatchBits is the MS-BFS lane width: one source per bit of a uint64.
const msBatchBits = 64

// msShareThreshold fixes the kernel policy of the multi-source drivers:
// a worker share of at least this many sources runs through the bit-parallel
// batch kernel, and a smaller one runs dirOptBFS per source. On the served
// snapshots a batch's per-source cost against dirOptBFS read 0.95–1.16× at
// 8 lanes and 0.76–0.82× at 16 (BenchmarkBFSEngines's lanes rows,
// BENCH_sssp.json "share_threshold"). Single-source entry points always run
// dirOptBFS.
const msShareThreshold = 16

// ClampWorkers resolves a worker-count request against a job count: <= 0
// asks for GOMAXPROCS, the result never exceeds jobs, and is at least 1.
// This is the one shared clamping rule for every parallel driver (sssp
// sweeps, dist worker pools, topk shards, core extraction).
func ClampWorkers(workers, jobs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Scratch holds every buffer a BFS kernel needs beyond the caller's rows:
// the index-cursor frontier queue, the bottom-up frontier bitmaps and the
// bit-parallel visit words (one per node). The buffers grow to the largest
// graph a Scratch has served and are then allocation-free; a Scratch is not
// safe for concurrent use. The package owns traversal scratch: every entry
// point called without one, and every sweep worker, borrows one from an
// internal pool for the length of its call, so callers own only their
// distance rows. Tests and benchmarks that pin zero-allocation calls pass
// their own.
type Scratch struct {
	queue []int32 // frontier queue, cursor-indexed (cap >= n)
	cur   []uint64
	nxt   []uint64 // bottom-up frontier bitmaps, (n+63)/64 words

	// Bit-parallel (MS-BFS) state: one word per node.
	seen  []uint64
	front []uint64
	next  []uint64
	nextQ []int32
}

// NewScratch returns a Scratch pre-sized for graphs of n nodes.
func NewScratch(n int) *Scratch {
	s := &Scratch{}
	s.ensure(n)
	return s
}

// ensure grows the single-source buffers to serve an n-node graph.
func (s *Scratch) ensure(n int) {
	if cap(s.queue) < n {
		s.queue = make([]int32, 0, n)
	}
	words := (n + 63) / 64
	if len(s.cur) < words {
		s.cur = make([]uint64, words)
		s.nxt = make([]uint64, words)
	}
}

// ensureMS grows the bit-parallel buffers to serve an n-node graph and
// zeroes the visit words.
func (s *Scratch) ensureMS(n int) {
	s.ensure(n)
	if len(s.seen) < n {
		s.seen = make([]uint64, n)
		s.front = make([]uint64, n)
		s.next = make([]uint64, n)
	} else {
		// front/next are left all-zero by msBFSBatch; only seen needs
		// clearing.
		clearWords(s.seen[:n])
	}
	if cap(s.nextQ) < n {
		s.nextQ = make([]int32, 0, n)
	}
}

func clearWords(w []uint64) {
	for i := range w {
		w[i] = 0
	}
}

// scratchPool and dijkstraPool recycle the scratch of every call made
// without one and of every sweep worker. A borrowed scratch keeps the size
// of the largest graph it served; the kernels size it for theirs.
var (
	scratchPool  = sync.Pool{New: func() any { return new(Scratch) }}
	dijkstraPool = sync.Pool{New: func() any { return new(DijkstraScratch) }}
)

func getScratch() *Scratch  { return scratchPool.Get().(*Scratch) }
func putScratch(s *Scratch) { scratchPool.Put(s) }
