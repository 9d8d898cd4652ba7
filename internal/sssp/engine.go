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
// the bounded rows' d1 histogram, the bit-parallel visit words (one per
// node), and the batch drivers' row block. A Scratch grows to the largest
// graph it has served and is then allocation-free; it is not safe for
// concurrent use. Parallel drivers keep one Scratch per worker;
// single-shot entry points borrow one from an internal pool.
type Scratch struct {
	queue []int32 // frontier queue, cursor-indexed (cap >= n)
	cur   []uint64
	nxt   []uint64 // bottom-up frontier bitmaps, (n+63)/64 words
	cnt   []int32  // PrunedSecondBFS's d1 histogram, n+1 entries

	// Bit-parallel (MS-BFS) state: one word per node.
	seen  []uint64
	front []uint64
	next  []uint64
	nextQ []int32

	// rows is the batch drivers' distance-row block: 64 rows of length
	// rowsN, all views into the grow-only rowsBacking array (see ensureRows).
	rows        [][]int32
	rowsBacking []int32
	rowsN       int
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

// ensureCut grows the buffers of a bounded second-snapshot row
// (PrunedSecondBFS) to serve an n-node graph.
func (s *Scratch) ensureCut(n int) {
	s.ensure(n)
	if len(s.cnt) < n+1 {
		s.cnt = make([]int32, n+1)
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

// ensureRows returns the batch drivers' 64 distance rows of exactly length
// n, all views into one grow-only backing array. The backing only ever
// grows: eval suites alternating between graph sizes re-point the row
// headers without reallocating, so a warmed Scratch serves any n it has ever
// seen allocation-free (pinned by TestEnsureRowsGrowOnly). Only the batch
// drivers call this.
func (s *Scratch) ensureRows(n int) [][]int32 {
	if s.rows != nil && s.rowsN == n {
		return s.rows
	}
	if need := msBatchBits * n; cap(s.rowsBacking) < need {
		s.rowsBacking = make([]int32, need)
	}
	if s.rows == nil {
		s.rows = make([][]int32, msBatchBits)
	}
	for i := range s.rows {
		s.rows[i] = s.rowsBacking[i*n : (i+1)*n]
	}
	s.rowsN = n
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
