// Package prune implements the Δ-threshold substrate of pruned top-k
// extraction: a small concurrent structure tracking the kth-largest delta
// seen so far across all extraction workers, published as a lock-free
// monotone threshold.
//
// The soundness argument pruning rests on: the kth-largest delta among any
// subset of the final pair set is a lower bound on the kth-largest delta of
// the full set, so a pair whose delta is *strictly below* the current
// threshold can never enter the final top-k, no matter what is still
// undiscovered. Pairs whose delta equals the threshold must be kept — ties
// at the kth boundary are broken by node IDs during the final sort, and
// dropping one would change which pairs survive the cut. Because the
// threshold only ever rises and every skip test is strict, the set of pairs
// that survive is independent of discovery order, which is what keeps the
// pruned extraction bit-identical to the unpruned one across worker
// schedules (pinned by the differential fuzz tests in internal/core).
//
// Extraction cuts three ways against the threshold T, each dropping only
// work whose every delta is strictly below T: a second-snapshot traversal
// stops once no undiscovered node can reach T (sssp.PrunedSecondBFS); a
// candidate whose landmark upper bound is below T is skipped whole; and a
// pair whose delta is below T is never emitted, so the final sort sees only
// pairs that can still reach the top-k. The emission cut also leaves the
// threshold itself unchanged: Offer ignores any delta <= T, and T never
// decreases, so a delta below a value a worker has loaded would have been
// ignored anyway.
//
// Δ-mode queries (Options.MinDelta) must never use a Threshold: they return
// every qualifying pair, not the best k, so there is no kth boundary to
// prune against (see DESIGN.md).
package prune

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Threshold is the shared kth-Δ tracker of one extraction run. Workers
// Offer every emitted delta; Load returns the largest value T such that at
// least k offered deltas are >= T (0 until k offers arrive), or a sound
// externally-provided seed, whichever is larger. Load is a single atomic
// read, cheap enough for per-traversal-level bound checks.
//
// Concurrency contract: published is written only while mu is held (Offer's
// slow path and Seed) and read lock-free everywhere; it is monotone
// non-decreasing, so a stale read is merely a looser-but-sound threshold.
type Threshold struct {
	k int
	// published is the live threshold: max(seeded value, heap minimum once
	// the heap holds k deltas). Reads are lock-free; see struct comment.
	published atomic.Int32

	mu   sync.Mutex
	heap []int32 // min-heap of the k largest deltas offered so far
}

// NewThreshold creates a Threshold for a top-k query. k must be positive.
// Nothing is preallocated: k comes from the client, and the heap grows by
// append to at most one entry per offered delta.
func NewThreshold(k int) *Threshold {
	if k <= 0 {
		panic("prune: non-positive k")
	}
	return &Threshold{k: k}
}

// Load returns the current threshold (0 before it first rises). Deltas
// strictly below the returned value are provably outside the final top-k.
func (t *Threshold) Load() int32 { return t.published.Load() }

// Seed raises the threshold to at least delta without any offers backing
// it. SOUNDNESS IS THE CALLER'S OBLIGATION: delta must be a lower bound on
// the final kth-largest delta of THIS exact query. The serve layer's warm
// cache satisfies it by seeding only with the final kth delta of a previous
// query with the identical result-determining shape (same epoch window,
// selector, m, l, k, and seed), which recomputes the identical pair set.
//
//convlint:shared published is mutex-guarded for writes, lock-free monotone for reads
func (t *Threshold) Seed(delta int32) {
	if delta <= 0 {
		return
	}
	t.mu.Lock()
	if delta > t.published.Load() {
		t.published.Store(delta)
		seeded.Add(1)
	}
	t.mu.Unlock()
}

// Offer records one emitted pair delta. The fast path (delta no larger than
// the published threshold) is a single atomic read: such a delta can change
// neither the heap minimum nor the threshold.
//
//convlint:shared fast path reads published lock-free; staleness is sound (threshold is monotone)
func (t *Threshold) Offer(delta int32) {
	if delta <= t.published.Load() {
		return
	}
	t.mu.Lock()
	if len(t.heap) < t.k {
		t.heap = append(t.heap, delta)
		up(t.heap, len(t.heap)-1)
		if len(t.heap) == t.k {
			t.raise(t.heap[0])
		}
	} else if delta > t.heap[0] {
		t.heap[0] = delta
		down(t.heap, 0)
		t.raise(t.heap[0])
	}
	t.mu.Unlock()
}

// raise publishes v if it beats the current threshold. Called under mu.
func (t *Threshold) raise(v int32) {
	if v > t.published.Load() {
		t.published.Store(v)
		raises.Add(1)
	}
}

// up restores the min-heap property after appending at index i.
func up(h []int32, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// down restores the min-heap property after replacing the root.
func down(h []int32, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h[l] < h[s] {
			s = l
		}
		if r < n && h[r] < h[s] {
			s = r
		}
		if s == i {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

// Package counters: how much work pruning avoided, exported through
// /metrics as prune.* alongside the sssp.pruned_* kernel counters.
var (
	candidatesSkipped atomic.Int64
	raises            atomic.Int64
	seeded            atomic.Int64
)

// SkipCandidates records n whole candidates skipped by a landmark upper
// bound: their distance rows were charged to the budget but never traversed.
func SkipCandidates(n int) { candidatesSkipped.Add(int64(n)) }

func init() {
	obs.RegisterMetric("prune.candidates_skipped", candidatesSkipped.Load)
	obs.RegisterMetric("prune.threshold_raises", raises.Load)
	obs.RegisterMetric("prune.threshold_seeded", seeded.Load)
}
