package prune

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// kthLargest computes the reference threshold: the kth largest of deltas,
// or 0 when fewer than k were offered.
func kthLargest(deltas []int32, k int) int32 {
	if len(deltas) < k {
		return 0
	}
	s := append([]int32(nil), deltas...)
	sort.Slice(s, func(i, j int) bool { return s[i] > s[j] })
	return s[k-1]
}

// TestThresholdMatchesReference: after every offer, Load is the largest of
// 1, the floor and the kth largest delta offered so far.
func TestThresholdMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(8)
		n := rng.Intn(40)
		for _, floor := range []int32{0, 1, 3} {
			th := NewThreshold(k, floor)
			if got := th.Load(); got != max(1, floor) {
				t.Fatalf("trial %d floor %d: Load=%d before any offer", trial, floor, got)
			}
			var offered []int32
			for i := 0; i < n; i++ {
				d := int32(rng.Intn(12))
				offered = append(offered, d)
				th.Offer(d)
				if got, want := th.Load(), max(1, floor, kthLargest(offered, k)); got != want {
					t.Fatalf("trial %d floor %d after %d offers: Load=%d want %d (k=%d offered=%v)",
						trial, floor, i+1, got, want, k, offered)
				}
			}
		}
	}
}

// TestThresholdKZeroNeverRises: a δ query's threshold (k = 0) ignores every
// offer and stays at max(1, floor).
func TestThresholdKZeroNeverRises(t *testing.T) {
	for _, floor := range []int32{-2, 0, 1, 3} {
		th := NewThreshold(0, floor)
		for _, d := range []int32{0, 1, 5, 9, 100} {
			th.Offer(d)
			if got := th.Load(); got != max(1, floor) {
				t.Fatalf("floor %d after Offer(%d): Load=%d want %d", floor, d, got, max(1, floor))
			}
		}
	}
}

func TestThresholdMonotoneUnderConcurrency(t *testing.T) {
	const k, workers, perWorker = 5, 8, 500
	th := NewThreshold(k, 0)
	all := make([][]int32, workers)
	rng := rand.New(rand.NewSource(11))
	for w := range all {
		for i := 0; i < perWorker; i++ {
			all[w] = append(all[w], int32(rng.Intn(100)))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(deltas []int32) {
			defer wg.Done()
			prev := int32(0)
			for _, d := range deltas {
				th.Offer(d)
				cur := th.Load()
				if cur < prev {
					t.Errorf("threshold decreased: %d -> %d", prev, cur)
					return
				}
				prev = cur
			}
		}(all[w])
	}
	wg.Wait()
	var flat []int32
	for _, d := range all {
		flat = append(flat, d...)
	}
	if got, want := th.Load(), max(1, kthLargest(flat, k)); got != want {
		t.Fatalf("final threshold %d, reference %d", got, want)
	}
}

func TestNewThresholdPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewThreshold(-1, 0) did not panic")
		}
	}()
	NewThreshold(-1, 0)
}
