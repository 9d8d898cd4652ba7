package candidates

import (
	"slices"
	"sync"

	"repro/internal/budget"
	"repro/internal/topk"
)

// Warm is a per-window memo of finished queries over one snapshot pair:
// each entry holds one query's pairs, its candidates and its cold run's
// spending per phase, keyed by the query's result-determining shape
// (selector, m, l, seed, k and δ). Algorithm 1's answer and spending are
// fixed by that shape and the snapshot pair, so a hit charges the stored
// spending and returns the stored answer without selecting or traversing
// anything. The serve layer keeps one Warm per epoch window, so entries can
// never leak across snapshots; that scoping is what makes reuse sound.
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
	pairs []topk.Pair
	cands []int
	spent budget.Report // the cold run's SSSPs per phase; Limit is not read
}

// NewWarm returns an empty warm cache.
func NewWarm() *Warm {
	return &Warm{entries: make(map[string]warmEntry)}
}

// Lookup returns the finished query stored under key: private copies of
// its pairs and candidates, and its cold run's spending per phase.
func (w *Warm) Lookup(key string) ([]topk.Pair, []int, budget.Report, bool) {
	w.mu.Lock()
	e, ok := w.entries[key]
	w.mu.Unlock()
	if !ok {
		return nil, nil, budget.Report{}, false
	}
	return slices.Clone(e.pairs), slices.Clone(e.cands), e.spent, true
}

// Store memoizes a finished query: its pairs and candidates, copied in, and
// the SSSPs its run spent per phase (spent.Limit is not read). Call it only
// for a run that succeeded. A result of more than warmMaxPairs pairs is not
// stored; a new key evicts the oldest one when the memo is full.
func (w *Warm) Store(key string, pairs []topk.Pair, cands []int, spent budget.Report) {
	if len(pairs) > warmMaxPairs {
		return
	}
	e := warmEntry{pairs: slices.Clone(pairs), cands: slices.Clone(cands), spent: spent}
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
