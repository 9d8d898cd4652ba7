package sssp

import (
	"fmt"
	"time"

	"repro/internal/graph"
)

// heapItem is an entry of the Dijkstra priority queue.
type heapItem struct {
	node int32
	dist int32
}

// minHeap is a hand-rolled binary min-heap on distance. It is a plain slice
// heap (lazy deletion, no decrease-key): stale entries are skipped on pop,
// which is the standard simple-and-fast Dijkstra variant.
type minHeap []heapItem

// push sifts a new entry up. The only allocation is the slice's own
// amortized growth, which a pooled scratch keeps across calls.
//
//convlint:hotpath
func (h *minHeap) push(it heapItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].dist <= (*h)[i].dist {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

// pop removes the minimum and sifts the tail down, allocation-free.
//
//convlint:hotpath
func (h *minHeap) pop() heapItem {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && old[l].dist < old[smallest].dist {
			smallest = l
		}
		if r < last && old[r].dist < old[smallest].dist {
			smallest = r
		}
		if smallest == i {
			break
		}
		old[i], old[smallest] = old[smallest], old[i]
		i = smallest
	}
	return top
}

// DijkstraScratch holds the working state of one Dijkstra call: the
// settled bitmap and the priority queue's backing array. Calls borrow one
// from an internal pool, so repeated calls reuse both. Like sssp.Scratch it
// is share-by-pointer (scratchcopy enforces no by-value copies) and not
// safe for concurrent use.
type DijkstraScratch struct {
	done []bool
	heap minHeap
}

// ensure resets the scratch for a fresh run over n nodes.
func (s *DijkstraScratch) ensure(n int) {
	if cap(s.done) < n {
		s.done = make([]bool, n)
	} else {
		s.done = s.done[:n]
		clear(s.done)
	}
	s.heap = s.heap[:0]
}

// Dijkstra computes weighted shortest-path distances from src into dist,
// which must have length g.NumNodes(). Unreached nodes get Unreachable.
// Weights must be non-negative (enforced by graph.NewWeighted). It borrows
// a pooled DijkstraScratch, the weighted analogue of BFSWith's nil scratch.
func Dijkstra(g *graph.Weighted, src int, dist []int32) {
	//convlint:nondet sweep latency is observational, not part of results
	start := time.Now()
	n := g.NumNodes()
	if len(dist) != n {
		panic(fmt.Sprintf("sssp: dist buffer length %d, graph has %d nodes", len(dist), n))
	}
	if src < 0 || src >= n {
		panic(fmt.Sprintf("sssp: source %d out of range [0,%d)", src, n))
	}
	s := dijkstraPool.Get().(*DijkstraScratch)
	defer dijkstraPool.Put(s)
	s.ensure(n)
	done, h := s.done, &s.heap
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	h.push(heapItem{node: int32(src), dist: 0})
	var settled, edges, heapPeak int64
	for len(*h) > 0 {
		if hl := int64(len(*h)); hl > heapPeak {
			heapPeak = hl
		}
		it := h.pop()
		u := it.node
		if done[u] {
			continue // stale entry
		}
		done[u] = true
		settled++
		adj, ws := g.Neighbors(int(u))
		edges += int64(len(adj))
		for i, v := range adj {
			nd := it.dist + ws[i]
			if dist[v] == Unreachable || nd < dist[v] {
				dist[v] = nd
				h.push(heapItem{node: v, dist: nd})
			}
		}
	}
	s.heap = *h
	km := &kernelMetrics[kDijkstra]
	km.calls.Add(1)
	km.sources.Add(1)
	km.nodes.Add(settled)
	km.edges.Add(edges)
	peakMax(&km.frontierPeak, heapPeak)
	observeSweep(kDijkstra, start, 1, settled, edges)
}

// WeightedDistances is a convenience wrapper around Dijkstra that allocates
// the result buffer.
func WeightedDistances(g *graph.Weighted, src int) []int32 {
	dist := make([]int32, g.NumNodes())
	Dijkstra(g, src, dist)
	return dist
}
