package candidates

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/budget"
	"repro/internal/topk"
)

// TestWarmEvictsOldestKey: storing one key past the cap evicts the oldest
// key and keeps the newest; a result over the pair cap is not stored; and
// changing a looked-up result leaves the memo unchanged.
func TestWarmEvictsOldestKey(t *testing.T) {
	w := NewWarm()
	key := func(i int) string { return fmt.Sprintf("MMSD|m50|l10|s%d|k10|d0", i) }
	for i := 0; i <= warmKeys; i++ {
		pairs := []topk.Pair{{U: int32(i), V: int32(i + 1), D1: 3, D2: 1, Delta: 2}}
		w.Store(key(i), pairs, []int{i}, budget.Report{CandidateGen: i, TopK: 2})
	}
	if _, _, _, ok := w.Lookup(key(0)); ok {
		t.Error("oldest key survived the cap")
	}
	pairs, cands, spent, ok := w.Lookup(key(warmKeys))
	if !ok || len(cands) != 1 || cands[0] != warmKeys || len(pairs) != 1 || spent != (budget.Report{CandidateGen: warmKeys, TopK: 2}) {
		t.Fatalf("newest key = %v, %v, %+v, %v; want one pair, [%d] and its spending", pairs, cands, spent, ok, warmKeys)
	}
	if len(w.entries) != warmKeys {
		t.Errorf("memo holds %d keys, want the cap %d", len(w.entries), warmKeys)
	}

	pairs[0].Delta, cands[0] = 99, -1
	again, cands2, _, _ := w.Lookup(key(warmKeys))
	if again[0].Delta != 2 || cands2[0] != warmKeys {
		t.Errorf("changing a looked-up result changed the memo: %v, %v", again, cands2)
	}

	big := make([]topk.Pair, warmMaxPairs+1)
	w.Store("big", big, nil, budget.Report{})
	if _, _, _, ok := w.Lookup("big"); ok {
		t.Errorf("a result of %d pairs was stored over the cap of %d", len(big), warmMaxPairs)
	}
	if _, _, _, ok := w.Lookup(key(1)); !ok {
		t.Error("a result over the pair cap evicted a stored key")
	}
	w.Store("cap", big[:warmMaxPairs], nil, budget.Report{})
	if got, _, _, ok := w.Lookup("cap"); !ok || !reflect.DeepEqual(got, big[:warmMaxPairs]) {
		t.Errorf("a result of exactly %d pairs was not stored", warmMaxPairs)
	}
}

// TestWarmConcurrentEviction: concurrent stores and lookups past the cap
// keep the memo at the cap with its key order in step (run with -race).
func TestWarmConcurrentEviction(t *testing.T) {
	w := NewWarm()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2*warmKeys; i++ {
				key := fmt.Sprintf("g%d|s%d", g, i)
				w.Store(key, []topk.Pair{{U: 0, V: 1, Delta: int32(i)}}, []int{i}, budget.Report{TopK: 2})
				w.Lookup(key)
			}
		}()
	}
	wg.Wait()
	if len(w.entries) != warmKeys || len(w.order) != warmKeys {
		t.Errorf("memo holds %d keys in order %d, want both %d", len(w.entries), len(w.order), warmKeys)
	}
	for _, key := range w.order {
		if _, ok := w.entries[key]; !ok {
			t.Errorf("ordered key %q has no entry", key)
		}
	}
}
