package candidates

import (
	"fmt"
	"sync"
	"testing"
)

// TestWarmEvictsOldestKey: storing one key past the cap evicts the oldest
// key's selection and kth-Δ entries together, and keeps the newest.
func TestWarmEvictsOldestKey(t *testing.T) {
	w := NewWarm()
	key := func(i int) string { return fmt.Sprintf("MMSD|m50|l10|s%d", i) }
	for i := 0; i <= warmKeys; i++ {
		ctx := &Context{D1Rows: map[int][]int32{i: {0, 1}}}
		w.StoreSelection(key(i), []int{i}, ctx, nil)
		if i == 0 {
			w.StoreKthDelta(key(0), 10, 3)
		}
	}
	if _, _, ok := w.LookupSelection(key(0), &Context{}); ok {
		t.Error("oldest key's selection survived the cap")
	}
	if _, ok := w.KthDelta(key(0), 10); ok {
		t.Error("oldest key's kth Δ survived the cap")
	}
	cands, _, ok := w.LookupSelection(key(warmKeys), &Context{})
	if !ok || len(cands) != 1 || cands[0] != warmKeys {
		t.Errorf("newest key's selection = %v, %v; want [%d], true", cands, ok, warmKeys)
	}
	w.StoreKthDelta(key(warmKeys), 10, 4)
	if d, ok := w.KthDelta(key(warmKeys), 10); !ok || d != 4 {
		t.Errorf("newest key's kth Δ = %d, %v; want 4, true", d, ok)
	}
	if len(w.entries) != warmKeys {
		t.Errorf("memo holds %d keys, want the cap %d", len(w.entries), warmKeys)
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
				w.StoreSelection(key, []int{i}, &Context{}, nil)
				w.StoreKthDelta(key, 5, int32(i))
				w.LookupSelection(key, &Context{})
				w.KthDelta(key, 5)
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
