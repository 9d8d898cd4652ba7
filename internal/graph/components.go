package graph

import (
	"math/bits"
	"sync"
)

// AdjacencyLister is the structural view shared by Graph and Weighted: the
// node universe plus weight-less adjacency. Component analysis only needs
// connectivity, so it runs identically on both representations (and on any
// distance source wrapping them).
type AdjacencyLister interface {
	NumNodes() int
	NeighborIDs(u int) []int32
}

// ComponentsOf labels each node of any adjacency-listing graph with a
// connected-component ID in [0, count) and returns the label slice together
// with the number of components. Isolated nodes form singleton components.
func ComponentsOf(g AdjacencyLister) (labels []int32, count int) {
	n := g.NumNodes()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int32, 0, n)
	var next int32
	for s := 0; s < n; s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = next
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.NeighborIDs(int(u)) {
				if labels[v] < 0 {
					labels[v] = next
					queue = append(queue, v)
				}
			}
		}
		next++
	}
	return labels, int(next)
}

// Components labels each node with a connected-component ID in [0, count) and
// returns the label slice together with the number of components. Isolated
// nodes form singleton components.
func Components(g *Graph) (labels []int32, count int) { return ComponentsOf(g) }

// LargestComponentOf returns the nodes of the largest connected component of
// any adjacency-listing graph, sorted ascending, together with the component
// count of the whole graph.
func LargestComponentOf(g AdjacencyLister) (nodes []int, components int) {
	labels, count := ComponentsOf(g)
	if count == 0 {
		return nil, 0
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for c, s := range sizes {
		if s > sizes[best] {
			best = c
		}
	}
	nodes = make([]int, 0, sizes[best])
	for u, l := range labels {
		if int(l) == best {
			nodes = append(nodes, u)
		}
	}
	return nodes, count
}

// largestMemo keeps a graph's largest connected component from its first
// use on: a bitmap over the node universe (⌈n/64⌉ words, about n/8 bytes)
// and the graph's component count. Graphs are immutable, so it never goes
// stale, and a PadUniverse view is a new graph with a memo of its own.
type largestMemo struct {
	once  sync.Once
	bits  NodeBits
	size  int
	count int
}

// NodeBits is a set of nodes kept as a bitmap over a node universe: node u
// is in it when bit u%64 of word u/64 is set.
type NodeBits []uint64

// NodeBitsOf returns the set of nodes over a universe of n nodes.
func NodeBitsOf(n int, nodes []int) NodeBits {
	b := make(NodeBits, (n+63)/64)
	for _, u := range nodes {
		b[u/64] |= 1 << (u % 64)
	}
	return b
}

// Has reports whether u is in the set.
func (b NodeBits) Has(u int) bool { return b[uint(u)/64]&(1<<(uint(u)%64)) != 0 }

// Nodes expands the set, ascending.
func (b NodeBits) Nodes() []int {
	var nodes []int
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			nodes = append(nodes, w*64+bits.TrailingZeros64(word))
		}
	}
	return nodes
}

// AtRanks returns the nodes of the given ranks in the set (rank 0 is its
// smallest node); ranks must be ascending and below the set's size. It
// skips whole words by their popcount, so it reads each word once.
func (b NodeBits) AtRanks(ranks []int) []int {
	nodes := make([]int, 0, len(ranks))
	base := 0 // the rank of word w's lowest node
	for w, word := range b {
		if len(nodes) == len(ranks) {
			break
		}
		c := bits.OnesCount64(word)
		for len(nodes) < len(ranks) && ranks[len(nodes)] < base+c {
			x := word
			for r := ranks[len(nodes)] - base; r > 0; r-- {
				x &= x - 1
			}
			nodes = append(nodes, w*64+bits.TrailingZeros64(x))
		}
		base += c
	}
	return nodes
}

// get returns g's largest component as the memo's bitmap, its size and the
// component count, labelling g on the first call only; concurrent first
// calls label it once.
func (m *largestMemo) get(g AdjacencyLister) (set NodeBits, size, components int) {
	m.once.Do(func() {
		comp, count := LargestComponentOf(g)
		m.bits = NodeBitsOf(g.NumNodes(), comp)
		m.size, m.count = len(comp), count
	})
	return m.bits, m.size, m.count
}

// LargestComponent returns the nodes of g's largest connected component,
// sorted ascending, together with the component count of the whole graph.
// The first call labels g; every later one expands the memo kept beside g.
func (g *Graph) LargestComponent() (nodes []int, components int) {
	set, _, count := g.largest.get(g)
	return set.Nodes(), count
}

// LargestComponentBits is LargestComponent without the expansion: the
// memo's bitmap itself (read-only, shared by every caller), the
// component's size and the component count.
func (g *Graph) LargestComponentBits() (set NodeBits, size, components int) { return g.largest.get(g) }

// LargestComponent is Graph.LargestComponent for a weighted graph.
func (g *Weighted) LargestComponent() (nodes []int, components int) {
	set, _, count := g.largest.get(g)
	return set.Nodes(), count
}

// LargestComponentBits is Graph.LargestComponentBits for a weighted graph.
func (g *Weighted) LargestComponentBits() (set NodeBits, size, components int) {
	return g.largest.get(g)
}

// SameComponent returns a predicate telling whether two nodes are connected
// in g, backed by one Components pass.
func SameComponent(g *Graph) func(u, v int) bool {
	labels, _ := Components(g)
	return func(u, v int) bool { return labels[u] == labels[v] }
}
