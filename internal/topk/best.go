package topk

import "slices"

// Best keeps the k first elements, in cmp order, of a stream offered to it,
// so that ranking n elements to keep k costs O(n log k) instead of a full
// sort. It is a max-heap under cmp: heap[0] is the last element kept.
type Best[E any] struct {
	k    int
	cmp  func(a, b E) int
	heap []E
}

// NewBest returns an empty Best that keeps k elements ordered by cmp, which
// must be a strict total order on the elements offered.
func NewBest[E any](k int, cmp func(a, b E) int) *Best[E] {
	return &Best[E]{k: k, cmp: cmp, heap: make([]E, 0, k)}
}

// Admits reports whether Offer(e) would keep e: fewer than k are kept, or e
// precedes the last one kept. Callers use it to skip costlier checks on
// elements that cannot enter.
func (b *Best[E]) Admits(e E) bool {
	return len(b.heap) < b.k || len(b.heap) > 0 && b.cmp(e, b.heap[0]) < 0
}

// Offer keeps e if it is among the k first elements offered so far.
func (b *Best[E]) Offer(e E) {
	if !b.Admits(e) {
		return
	}
	h := b.heap
	if len(h) < b.k {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if b.cmp(h[p], h[i]) >= 0 {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		b.heap = h
		return
	}
	h[0] = e
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && b.cmp(h[c+1], h[c]) > 0 {
			c++
		}
		if b.cmp(h[i], h[c]) >= 0 {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Sorted returns the kept elements in cmp order. The Best must not be used
// after it.
func (b *Best[E]) Sorted() []E {
	slices.SortFunc(b.heap, b.cmp)
	return b.heap
}
