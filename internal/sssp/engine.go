package sssp

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// Engine selects the BFS kernel used by the unweighted shortest-path
// entry points. The engines are interchangeable: every one of them produces
// bit-identical distances (and reached counts / eccentricities) — they
// differ only in throughput on different workload shapes. Every kernel is
// serial; sweeps over many sources parallelize across sources (the drivers'
// workers argument), never inside one traversal.
type Engine int

const (
	// Auto picks the best kernel for the call shape: direction-optimizing
	// for single sources, bit-parallel batching for multi-source sweeps.
	// A process-wide override can be installed with SetDefaultEngine.
	Auto Engine = iota
	// TopDown is the classic level-by-level scalar BFS — the baseline the
	// paper counts as one unit of budget. Kept selectable for ablations.
	TopDown
	// DirectionOpt is a Beamer-style direction-optimizing BFS: it starts
	// top-down and switches to bottom-up scanning of the unvisited set when
	// the frontier grows past a fraction of the unexplored edges, which
	// skips most edge examinations on small-diameter graphs.
	DirectionOpt
	// BitParallel64 batches up to 64 sources into one sweep, tracking
	// per-node visit sets as machine words (an MS-BFS). Only the
	// multi-source drivers exploit the batching; for a single source it
	// degenerates to a one-bit sweep and is selectable mainly for testing.
	BitParallel64
)

// engineNames is the single source of truth binding engines to their
// flag-friendly spellings. String and ParseEngine both derive from it, so
// -engine stays self-documenting (round-trip pinned by
// TestEngineNameRoundTrip).
var engineNames = []struct {
	e    Engine
	name string
}{
	{Auto, "auto"},
	{TopDown, "topdown"},
	{DirectionOpt, "diropt"},
	{BitParallel64, "bitparallel64"},
}

// engineAliases maps additional accepted spellings to engines.
var engineAliases = map[string]Engine{
	"":                     Auto,
	"scalar":               TopDown,
	"direction-optimizing": DirectionOpt,
	"beamer":               DirectionOpt,
	"bitparallel":          BitParallel64,
	"msbfs":                BitParallel64,
}

// String returns the engine's flag-friendly name.
func (e Engine) String() string {
	for _, en := range engineNames {
		if en.e == e {
			return en.name
		}
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// EngineNames lists the canonical -engine spellings in declaration order.
func EngineNames() []string {
	names := make([]string, len(engineNames))
	for i, en := range engineNames {
		names[i] = en.name
	}
	return names
}

// ParseEngine converts a flag value into an Engine.
func ParseEngine(s string) (Engine, error) {
	for _, en := range engineNames {
		if en.name == s {
			return en.e, nil
		}
	}
	if e, ok := engineAliases[s]; ok {
		return e, nil
	}
	return Auto, fmt.Errorf("sssp: unknown engine %q (want %s)", s, strings.Join(EngineNames(), "|"))
}

// defaultEngine is the process-wide engine that Auto resolves to; Auto
// itself means "use the built-in heuristics".
var defaultEngine atomic.Int32

// SetDefaultEngine installs a process-wide engine override used whenever a
// caller passes (or defaults to) Auto. Ablation harnesses set this once at
// startup; normal callers never touch it.
func SetDefaultEngine(e Engine) { defaultEngine.Store(int32(e)) }

// DefaultEngine returns the current process-wide engine override (Auto when
// none is installed).
func DefaultEngine() Engine { return Engine(defaultEngine.Load()) }

// msBatchBits is the MS-BFS lane width: one source per bit of a uint64.
const msBatchBits = 64

// msAutoThreshold is the minimum source count for which Auto prefers the
// bit-parallel batch engine in the multi-source drivers; below it the
// per-batch setup (three words per node) isn't worth amortizing.
const msAutoThreshold = 8

// resolveSingle maps an engine request to the kernel used for one source.
func resolveSingle(e Engine) Engine {
	if e == Auto {
		e = DefaultEngine()
	}
	if e == Auto {
		return DirectionOpt
	}
	return e
}

// resolveBatch maps an engine request to the kernel used by a multi-source
// driver over nsources sources.
func resolveBatch(e Engine, nsources int) Engine {
	if e == Auto {
		e = DefaultEngine()
	}
	if e == Auto {
		if nsources >= msAutoThreshold {
			return BitParallel64
		}
		return DirectionOpt
	}
	return e
}

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
// block. A Scratch grows to the largest graph it has served and is then
// allocation-free; it is not safe for concurrent use. Parallel drivers keep
// one Scratch per worker; single-shot entry points borrow one from an
// internal pool.
type Scratch struct {
	queue []int32 // frontier queue, cursor-indexed (cap >= n)
	cur   []uint64
	nxt   []uint64 // bottom-up frontier bitmaps, (n+63)/64 words

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

	// One-lane views for single-source calls routed through the batch
	// kernel, so BFSWith stays allocation-free on every engine (oneRow[0]
	// is cleared after each call; the caller's dist buffer is not retained).
	oneSrc [1]int
	oneRow [1][]int32
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

// ensureRows returns the batch drivers' 64 distance rows of exactly length
// n, all views into one grow-only backing array. The backing only ever
// grows: eval suites alternating between graph sizes re-point the row
// headers without reallocating, so a warmed Scratch serves any n it has ever
// seen allocation-free (pinned by TestEnsureRowsGrowOnly). Only the batch
// drivers call this; single-source bit-parallel calls write into the
// caller's dist buffer and never pay for the row block.
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
