package sssp

import (
	"runtime"
	"sync"
)

// Engine and Auto remain only for callers written against the deleted
// kernel-selection knob. Nothing reads them: the kernel is a fixed function
// of the call shape (see msAutoThreshold).
//
// Deprecated: the BFS kernel can no longer be chosen.
type Engine int

// Auto is the zero Engine.
//
// Deprecated: see Engine.
const Auto Engine = 0

// msBatchBits is the MS-BFS lane width: one source per bit of a uint64.
const msBatchBits = 64

// msAutoThreshold fixes the kernel policy of the multi-source drivers: a
// sweep of at least this many sources runs the 64-lane bit-parallel batch
// kernel, and a smaller one runs dirOptBFS per source, where the per-batch
// setup (three words per node) isn't worth amortizing. Single-source entry
// points always run dirOptBFS.
const msAutoThreshold = 8

// ClampWorkers resolves a worker-count request against a job count: <= 0
// asks for GOMAXPROCS, the result never exceeds jobs, and is at least 1.
// This is the one shared clamping rule for every parallel driver (sssp
// sweeps, dist sessions pools, topk shards, core extraction).
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

// Scratch holds every buffer a BFS kernel needs beyond the caller's dist
// slice: the index-cursor frontier queue, the bottom-up frontier bitmaps,
// the bit-parallel visit words (one per node), and the batch drivers' row
// block, which is sized once, to its sweep (see ensureRows). The other
// buffers grow to the largest graph a Scratch has served and are then
// allocation-free; a Scratch is not safe for concurrent use. Parallel
// drivers keep one Scratch per worker; single-shot entry points borrow one
// from an internal pool.
type Scratch struct {
	queue []int32 // frontier queue, cursor-indexed (cap >= n)
	cur   []uint64
	nxt   []uint64 // bottom-up frontier bitmaps, (n+63)/64 words

	// Bit-parallel (MS-BFS) state: one word per node.
	seen  []uint64
	front []uint64
	next  []uint64
	nextQ []int32

	// rows is the batch drivers' distance-row block, allocated on first use
	// with one row per lane the sweep can fill (see ensureRows).
	rows [][]int32
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

// ensureRows returns the batch drivers' block of lanes distance rows of
// length n, allocating it on first use. Every sweep builds fresh Scratches,
// so the block is sized once, to the sweep: a driver asks for
// min(64, sources) lanes, and a 10-source sweep allocates 10 rows, not 64.
// Only the batch drivers call this.
func (s *Scratch) ensureRows(lanes, n int) [][]int32 {
	if s.rows == nil {
		backing := make([]int32, lanes*n)
		s.rows = make([][]int32, lanes)
		for i := range s.rows {
			s.rows[i] = backing[i*n : (i+1)*n]
		}
	}
	return s.rows
}

func clearWords(w []uint64) {
	for i := range w {
		w[i] = 0
	}
}

// scratchPool recycles Scratches for entry points called without one.
var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

func getScratch(n int) *Scratch {
	s := scratchPool.Get().(*Scratch)
	s.ensure(n)
	return s
}

func putScratch(s *Scratch) { scratchPool.Put(s) }
