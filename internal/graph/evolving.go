package graph

import (
	"errors"
	"fmt"
	"sort"
)

// TimedEdge is an undirected edge annotated with the time slice in which it
// appeared. Streams are kept in non-decreasing Time order.
type TimedEdge struct {
	U, V int
	Time int64
}

// Evolving models a growing graph as a timestamped stream of edge insertions
// (the paper's sequence of slices S_1, S_2, ...). Nodes are implicit: a node
// exists from the first edge that mentions it. Only insertions are supported,
// matching the paper's evolution model, so any later snapshot is a supergraph
// of any earlier one.
type Evolving struct {
	stream   []TimedEdge
	numNodes int
}

var (
	// ErrEmptyStream reports an Evolving with no edges.
	ErrEmptyStream = errors.New("graph: empty edge stream")
	// ErrUnsorted reports an out-of-order edge stream.
	ErrUnsorted = errors.New("graph: edge stream not sorted by time")
)

// NewEvolving validates and wraps a timestamped edge stream. The stream must
// be non-empty, sorted by Time, free of self-loops and duplicate edges, and
// use node IDs in [0, math.MaxInt32]. The stream slice is retained; callers
// must not modify it afterwards.
func NewEvolving(stream []TimedEdge) (*Evolving, error) {
	if len(stream) == 0 {
		return nil, ErrEmptyStream
	}
	seen := make(map[Edge]struct{}, len(stream))
	n := 0
	for i, te := range stream {
		if !validNode(te.U) || !validNode(te.V) {
			return nil, fmt.Errorf("%w: stream[%d] = (%d, %d)", ErrNodeRange, i, te.U, te.V)
		}
		if te.U == te.V {
			return nil, fmt.Errorf("graph: stream[%d] is a self-loop on node %d", i, te.U)
		}
		if i > 0 && te.Time < stream[i-1].Time {
			return nil, fmt.Errorf("%w: stream[%d].Time=%d < stream[%d].Time=%d",
				ErrUnsorted, i, te.Time, i-1, stream[i-1].Time)
		}
		c := Edge{te.U, te.V}.Canon()
		if _, dup := seen[c]; dup {
			return nil, fmt.Errorf("graph: stream[%d] duplicates edge (%d, %d)", i, c.U, c.V)
		}
		seen[c] = struct{}{}
		if te.U >= n {
			n = te.U + 1
		}
		if te.V >= n {
			n = te.V + 1
		}
	}
	return &Evolving{stream: stream, numNodes: n}, nil
}

// NumNodes returns the size of the node universe after all insertions.
func (ev *Evolving) NumNodes() int { return ev.numNodes }

// NumEdges returns the total number of edge insertions in the stream.
func (ev *Evolving) NumEdges() int { return len(ev.stream) }

// Stream returns the underlying edge stream. The slice must not be modified.
func (ev *Evolving) Stream() []TimedEdge { return ev.stream }

// SnapshotPrefix builds the graph containing the first count edges of the
// stream, over the full node universe (so node IDs are comparable across
// snapshots). count is clamped to [0, NumEdges].
func (ev *Evolving) SnapshotPrefix(count int) *Graph {
	if count < 0 {
		count = 0
	}
	if count > len(ev.stream) {
		count = len(ev.stream)
	}
	b := NewBuilder(ev.numNodes)
	for _, te := range ev.stream[:count] {
		// Stream edges were validated by NewEvolving; AddEdge cannot fail.
		_ = b.AddEdge(te.U, te.V)
	}
	return b.Build()
}

// SnapshotFraction builds the graph containing the first frac fraction of the
// edge stream; frac is clamped to [0, 1]. The paper's snapshots are defined
// this way: G_t1 holds 80% of the edges, G_t2 the full graph, and classifier
// training uses the 60% and 70% prefixes.
func (ev *Evolving) SnapshotFraction(frac float64) *Graph {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return ev.SnapshotPrefix(int(frac * float64(len(ev.stream))))
}

// SnapshotAtTime builds the graph containing every edge with Time <= t.
func (ev *Evolving) SnapshotAtTime(t int64) *Graph {
	count := sort.Search(len(ev.stream), func(i int) bool { return ev.stream[i].Time > t })
	return ev.SnapshotPrefix(count)
}

// SnapshotPair is a (G_t1, G_t2) instance pair with G2 ⊇ G1 — the input to
// every algorithm in the library.
type SnapshotPair struct {
	G1, G2 *Graph
}

// Pair builds the snapshot pair at the two edge fractions f1 < f2.
func (ev *Evolving) Pair(f1, f2 float64) (SnapshotPair, error) {
	if !(f1 < f2) {
		return SnapshotPair{}, fmt.Errorf("graph: snapshot fractions must satisfy f1 < f2, got %v >= %v", f1, f2)
	}
	return SnapshotPair{G1: ev.SnapshotFraction(f1), G2: ev.SnapshotFraction(f2)}, nil
}

// Validate checks the structural invariant the problem definition relies on:
// both snapshots exist, share a node universe, and G2 is a supergraph of G1.
func (sp SnapshotPair) Validate() error {
	if sp.G1 == nil || sp.G2 == nil {
		return errors.New("graph: snapshot pair has nil graph")
	}
	if sp.G1.NumNodes() != sp.G2.NumNodes() {
		return fmt.Errorf("graph: snapshot node universes differ: %d vs %d",
			sp.G1.NumNodes(), sp.G2.NumNodes())
	}
	if !sp.G2.IsSupergraphOf(sp.G1) {
		return errors.New("graph: G2 is not a supergraph of G1 (edge deletions are not supported)")
	}
	return nil
}

// NewEdges returns the edges present in G2 but not in G1, i.e. the insertions
// between the two snapshots. The Incidence baseline builds its active-node
// set from their endpoints.
func (sp SnapshotPair) NewEdges() []Edge {
	return NewDelta(sp.G1, sp.G2).Edges
}

// Delta is the edge difference G2 \ G1 of a snapshot pair: the insertions
// that happened between t1 and t2, canonical (U <= V) and sorted ascending.
// It is immutable once built, so one Delta can be shared read-only across
// workers. The Incidence baseline reads its endpoints (NewEdges), and
// dynsssp.Scratch.ApplyAll accepts its Edges as the insertions to repair a
// distance row over.
type Delta struct {
	// Edges holds the inserted edges, canonical and sorted. Nil when the
	// snapshots are identical.
	Edges []Edge
}

// NumEdges returns the number of inserted edges.
func (d *Delta) NumEdges() int { return len(d.Edges) }

// NewDelta computes the edge difference g2 \ g1 with one merge pass over the
// two sorted CSR adjacency structures — O(V + E2), no per-edge lookups.
// Edges of g1 absent from g2 (deletions) are ignored; callers that need the
// supergraph invariant enforced validate the pair first
// (SnapshotPair.Validate). Nodes of g2 beyond g1's universe contribute all
// their edges.
func NewDelta(g1, g2 *Graph) *Delta {
	n1, n2 := g1.NumNodes(), g2.NumNodes()
	var out []Edge
	for u := 0; u < n2; u++ {
		adj2 := g2.Neighbors(u)
		var adj1 []int32
		if u < n1 {
			adj1 = g1.Neighbors(u)
		}
		i := 0
		for _, v := range adj2 {
			if v < int32(u) {
				continue // report each undirected edge once, from its smaller endpoint
			}
			for i < len(adj1) && adj1[i] < v {
				i++
			}
			if i < len(adj1) && adj1[i] == v {
				continue
			}
			out = append(out, Edge{u, int(v)})
		}
	}
	return &Delta{Edges: out}
}

// Delta returns the pair's edge difference G2 \ G1.
func (sp SnapshotPair) Delta() *Delta { return NewDelta(sp.G1, sp.G2) }
