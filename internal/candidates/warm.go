package candidates

import (
	"sync"

	"repro/internal/budget"
)

// Warm is a per-window warm cache for repeated queries over one snapshot
// pair: memoized selection results (candidates, cached distance rows,
// landmark sets) and the final kth-Δ of completed top-k queries, both keyed
// by the query's result-determining shape. The serve layer keeps one Warm
// per epoch window, so entries can never leak across snapshots — that
// scoping is what makes reuse sound. Served results stay bit-identical to
// cold runs: a selection hit restores exactly what the cold selector
// produced and replays its recorded meter charges, and a kth-Δ entry seeds
// the prune threshold only for a query whose shape recomputes the identical
// pair set.
//
// The memo holds at most warmKeys selection keys; storing a new key beyond
// that evicts the oldest one together with its kth-Δ entries. Eviction only
// turns a later hit into a cold run with the identical result and budget
// report, so a client that varies its seed cannot grow the cache without
// bound.
//
// Warm is safe for concurrent use.
type Warm struct {
	mu      sync.Mutex
	entries map[string]warmEntry
	order   []string // keys of entries, oldest first
}

// warmKeys caps the selection keys one Warm memoizes. A served window sees
// far fewer distinct shapes in steady use; each entry holds the selector's
// cached distance rows, so the cap bounds a window's warm memory.
const warmKeys = 64

// warmEntry is everything memoized under one selection key.
type warmEntry struct {
	sel *warmSelection // nil until a selection is stored
	kth map[int]int32  // final kth Δ by k
}

// WarmCharge is one successful meter charge recorded during a cold
// selection, replayed verbatim on warm hits so the budget report (and any
// budget-exhaustion failure point) matches the cold run exactly.
type WarmCharge struct {
	Phase budget.Phase
	N     int
}

// warmSelection is one memoized selection outcome. The row slices are
// shared read-only between the cache and every restored query; the
// candidate slice and maps are copied on both store and lookup because
// callers mutate them (core's defensive dedupe reuses the backing array).
type warmSelection struct {
	cands     []int
	landmarks []int
	d1, d2    map[int][]int32
	charges   []WarmCharge
}

// NewWarm returns an empty warm cache.
func NewWarm() *Warm {
	return &Warm{entries: make(map[string]warmEntry)}
}

// put stores e under key. A new key evicts the oldest one when the memo is
// full. Called with mu held.
func (w *Warm) put(key string, e warmEntry) {
	if _, ok := w.entries[key]; !ok {
		if len(w.order) == warmKeys {
			delete(w.entries, w.order[0])
			w.order = append(w.order[:0], w.order[1:]...)
		}
		w.order = append(w.order, key)
	}
	w.entries[key] = e
}

// LookupSelection restores a memoized selection into ctx (row caches and
// landmark set) and returns the candidate list plus the charges to replay.
// The returned slices are private copies; row contents are shared read-only.
func (w *Warm) LookupSelection(key string, ctx *Context) ([]int, []WarmCharge, bool) {
	w.mu.Lock()
	s := w.entries[key].sel
	w.mu.Unlock()
	if s == nil {
		return nil, nil, false
	}
	ctx.D1Rows = copyRows(s.d1)
	ctx.D2Rows = copyRows(s.d2)
	ctx.LandmarkNodes = append([]int(nil), s.landmarks...)
	return append([]int(nil), s.cands...), s.charges, true
}

// StoreSelection memoizes a completed selection: the candidates, the rows
// and landmarks the selector left in ctx, and the charges recorded while it
// ran. Call only after the selection validated cleanly; failed selections
// must not be cached.
func (w *Warm) StoreSelection(key string, cands []int, ctx *Context, charges []WarmCharge) {
	s := &warmSelection{
		cands:     append([]int(nil), cands...),
		landmarks: append([]int(nil), ctx.LandmarkNodes...),
		d1:        copyRows(ctx.D1Rows),
		d2:        copyRows(ctx.D2Rows),
		charges:   append([]WarmCharge(nil), charges...),
	}
	w.mu.Lock()
	e := w.entries[key]
	e.sel = s
	w.put(key, e)
	w.mu.Unlock()
}

// KthDelta returns the final kth-Δ of a previously completed top-k query
// with the same selection key and k, if any — a sound prune-threshold seed
// for an identical query (it recomputes the identical pair set).
func (w *Warm) KthDelta(selKey string, k int) (int32, bool) {
	w.mu.Lock()
	d, ok := w.entries[selKey].kth[k]
	w.mu.Unlock()
	return d, ok
}

// StoreKthDelta records the final kth-Δ of a completed top-k query. Callers
// must only store when the query returned exactly k pairs — a short result
// has no kth boundary.
func (w *Warm) StoreKthDelta(selKey string, k int, delta int32) {
	w.mu.Lock()
	e := w.entries[selKey]
	if e.kth == nil {
		e.kth = make(map[int]int32)
	}
	e.kth[k] = delta
	w.put(selKey, e)
	w.mu.Unlock()
}

// copyRows clones the map headers; the row slices themselves are shared
// (they are read-only after selection).
func copyRows(m map[int][]int32) map[int][]int32 {
	if m == nil {
		return nil
	}
	out := make(map[int][]int32, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
