package candidates

import (
	"slices"
	"sync"

	"repro/internal/budget"
	"repro/internal/topk"
)

// Warm is a per-window memo of finished queries over one snapshot pair:
// each entry holds one query's pairs, its candidates and every meter charge
// its cold run made, in order, keyed by the query's result-determining
// shape (selector, m, l, seed, k and δ). Algorithm 1's answer and charge
// sequence are fixed by that shape and the snapshot pair, so a hit replays
// the recorded charges and returns the stored answer without selecting or
// traversing anything. The serve layer keeps one Warm per epoch window, so
// entries can never leak across snapshots; that scoping is what makes reuse
// sound.
//
// The memo holds at most warmKeys entries; storing a new key beyond that
// evicts the oldest one. Eviction only turns a later hit into a cold run
// with the identical result and budget report, so a client that varies its
// seed cannot grow the cache without bound. A result of more than
// warmMaxPairs pairs is not stored.
//
// Warm is safe for concurrent use.
type Warm struct {
	mu      sync.Mutex
	entries map[string]warmEntry
	order   []string // keys of entries, oldest first
}

// warmKeys caps the queries one Warm memoizes. A served window sees far
// fewer distinct shapes in steady use.
const warmKeys = 64

// warmMaxPairs caps the pairs of one stored result (about 1.3 MB), so the
// cap on keys bounds a window's memo memory. A small-δ query can return
// m·(n−1) pairs; such a query runs cold every time.
const warmMaxPairs = 1 << 16

// warmEntry is one finished query.
type warmEntry struct {
	pairs   []topk.Pair
	cands   []int
	charges []WarmCharge
}

// WarmCharge is one successful meter charge recorded during a cold run,
// replayed verbatim on warm hits so the budget report (and any
// budget-exhaustion failure point) matches the cold run exactly.
type WarmCharge struct {
	Phase budget.Phase
	N     int
}

// NewWarm returns an empty warm cache.
func NewWarm() *Warm {
	return &Warm{entries: make(map[string]warmEntry)}
}

// Lookup returns the finished query stored under key: its pairs, its
// candidates and the charges to replay, all private copies.
func (w *Warm) Lookup(key string) ([]topk.Pair, []int, []WarmCharge, bool) {
	w.mu.Lock()
	e, ok := w.entries[key]
	w.mu.Unlock()
	if !ok {
		return nil, nil, nil, false
	}
	return slices.Clone(e.pairs), slices.Clone(e.cands), slices.Clone(e.charges), true
}

// Store memoizes a finished query: its pairs, its candidates and every
// charge its run made, in order, all copied in. Call it only for a run that
// succeeded. A result of more than warmMaxPairs pairs is not stored; a new
// key evicts the oldest one when the memo is full.
func (w *Warm) Store(key string, pairs []topk.Pair, cands []int, charges []WarmCharge) {
	if len(pairs) > warmMaxPairs {
		return
	}
	e := warmEntry{pairs: slices.Clone(pairs), cands: slices.Clone(cands), charges: slices.Clone(charges)}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.entries[key]; !ok {
		if len(w.order) == warmKeys {
			delete(w.entries, w.order[0])
			w.order = append(w.order[:0], w.order[1:]...)
		}
		w.order = append(w.order, key)
	}
	w.entries[key] = e
}
