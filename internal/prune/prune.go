// Package prune implements the Δ-threshold substrate of pruned
// extraction: a small concurrent structure tracking the kth-largest delta
// seen so far across all extraction workers, published as a lock-free
// monotone threshold that never falls below a floor.
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
// A δ query (core.Options.MinDelta) uses the same Threshold with k = 0 and
// floor δ: it returns every pair with Δ >= δ, so its threshold is δ from
// the start and never rises, and every cut above drops only pairs below δ,
// which the query never returns. A top-K query's floor is 1, since a
// delta-0 pair is never emitted (see DESIGN.md). The floor is the only way
// a threshold starts high: every later rise is backed by k offered deltas.
package prune

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Threshold is the shared kth-Δ tracker of one extraction run. Workers
// Offer every emitted delta; Load returns the larger of max(1, floor) and
// the largest value T such that at least k offered deltas are >= T. The
// floor is the one way a threshold starts high: a δ query's floor is δ.
// Load is a single atomic read, cheap enough for per-traversal-level bound
// checks.
//
// Concurrency contract: after construction, published is written only by
// Offer's slow path, while mu is held, and read lock-free everywhere; it is
// monotone non-decreasing, so a stale read is merely a looser-but-sound
// threshold.
type Threshold struct {
	k int
	// published is the live threshold: max(1, floor, heap minimum once the
	// heap holds k deltas). Reads are lock-free; see struct comment.
	published atomic.Int32

	mu   sync.Mutex
	heap []int32 // min-heap of the k largest deltas offered so far
}

// NewThreshold creates the Threshold of one query: k is a top-k query's k,
// or 0 for a δ query, whose threshold never rises, and Load starts at
// max(1, floor). A negative k panics. Nothing is preallocated: k comes from
// the client, and the heap grows by append to at most one entry per
// offered delta.
func NewThreshold(k int, floor int32) *Threshold {
	if k < 0 {
		panic("prune: negative k")
	}
	t := &Threshold{k: k}
	t.published.Store(max(1, floor))
	return t
}

// Load returns the current threshold, at least 1. Deltas strictly below
// the returned value are provably outside the query's answer.
func (t *Threshold) Load() int32 { return t.published.Load() }

// Offer records one emitted pair delta. The fast path (delta no larger than
// the published threshold) is a single atomic read: such a delta can change
// neither the heap minimum nor the threshold.
//
//convlint:shared fast path reads published lock-free; staleness is sound (threshold is monotone)
func (t *Threshold) Offer(delta int32) {
	if t.k == 0 || delta <= t.published.Load() {
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
)

// SkipCandidates records n whole candidates skipped by a landmark upper
// bound. Their distance rows were charged to the budget; a skip always
// saves the t2 row, and saves the t1 row only when the candidate was below
// the threshold's floor or its row was cached.
func SkipCandidates(n int) { candidatesSkipped.Add(int64(n)) }

func init() {
	obs.RegisterMetric("prune.candidates_skipped", candidatesSkipped.Load)
	obs.RegisterMetric("prune.threshold_raises", raises.Load)
}
