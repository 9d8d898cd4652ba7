// Package dynsssp maintains single-source shortest-path distances under
// edge insertions — the incremental alternative the paper contrasts its
// approach with (its refs [7, 23]). A DynamicBFS tracks the distance vector
// of one source over a growing graph; inserting an edge triggers a bounded
// relaxation wave that touches only the nodes whose distance actually
// drops, instead of recomputing the whole BFS.
//
// The monitoring package uses it to keep landmark distance vectors fresh
// across sliding windows, and an ablation benchmark compares incremental
// maintenance against full recomputation.
package dynsssp

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/sssp"
)

// DynamicBFS maintains the BFS distances from a fixed source over a mutable
// undirected graph. The graph lives inside the structure (adjacency lists),
// because insertions must be visible to subsequent relaxations.
type DynamicBFS struct {
	src  int
	adj  [][]int32
	dist []int32
	// scratch backs the batch repair kernel; allocated on first ApplyBatch.
	scratch *Scratch
	// stats
	inserted   int
	touched    int
	lastRepair Stats
}

// New builds a DynamicBFS from an initial snapshot. The snapshot's adjacency
// is copied; later Graph mutations do not affect it.
//
//convlint:unbudgeted one-time construction BFS; the streaming monitor charges its l setup SSSPs when it builds trackers
func New(g *graph.Graph, src int) (*DynamicBFS, error) {
	n := g.NumNodes()
	if src < 0 || src >= n {
		return nil, fmt.Errorf("dynsssp: source %d out of range [0,%d)", src, n)
	}
	d := &DynamicBFS{
		src:  src,
		adj:  make([][]int32, n),
		dist: make([]int32, n),
	}
	for u := 0; u < n; u++ {
		nbrs := g.Neighbors(u)
		d.adj[u] = append(make([]int32, 0, len(nbrs)), nbrs...)
	}
	sssp.BFS(g, src, d.dist)
	return d, nil
}

// Source returns the fixed BFS source.
func (d *DynamicBFS) Source() int { return d.src }

// NumNodes returns the current node-universe size.
func (d *DynamicBFS) NumNodes() int { return len(d.adj) }

// Dist returns the current distance from the source to u
// (sssp.Unreachable if none).
func (d *DynamicBFS) Dist(u int) int32 { return d.dist[u] }

// Distances returns the full distance vector; the slice aliases internal
// state and must not be modified.
func (d *DynamicBFS) Distances() []int32 { return d.dist }

// Stats reports how many insertions were processed and how many node
// relaxations they triggered — the work saved versus full recomputation.
func (d *DynamicBFS) Stats() (inserted, touched int) { return d.inserted, d.touched }

// EnsureNode grows the node universe to include u (isolated until edges
// arrive).
func (d *DynamicBFS) EnsureNode(u int) {
	for len(d.adj) <= u {
		d.adj = append(d.adj, nil)
		d.dist = append(d.dist, sssp.Unreachable)
	}
}

// InsertEdge adds the undirected edge {u, v} and repairs the distance
// vector with a one-edge ApplyBatch. Self-loops are ignored; duplicate edges
// are tolerated (they trigger no relaxation). Returns the number of nodes
// whose distance changed.
//
//convlint:unbudgeted thin alias for ApplyBatch; callers charge (or suppress) at that entry point
func (d *DynamicBFS) InsertEdge(u, v int) (changed int, err error) {
	return d.ApplyBatch([]graph.TimedEdge{{U: u, V: v}})
}

// ApplyStream replays a batch of timed edges (e.g. one evolution slice),
// returning the total number of distance changes. It delegates to the batch
// repair kernel: one seed pass over the whole slice, one level-ordered wave.
//
//convlint:unbudgeted thin alias for ApplyBatch; callers charge (or suppress) at that entry point
func (d *DynamicBFS) ApplyStream(edges []graph.TimedEdge) (changed int, err error) {
	return d.ApplyBatch(edges)
}

// ApplyBatch inserts a batch of undirected edges and repairs the distance
// vector with one decrease-only wave over the combined delta, instead of one
// wave per edge. Self-loops are skipped; duplicate edges are tolerated.
// Unknown nodes grow the universe. Returns the number of distance
// improvements applied.
func (d *DynamicBFS) ApplyBatch(edges []graph.TimedEdge) (changed int, err error) {
	//convlint:nondet repair latency is observational, not part of results
	start := time.Now()
	for i, te := range edges {
		if te.U < 0 || te.V < 0 {
			return 0, fmt.Errorf("dynsssp: negative node in edges[%d] = (%d, %d)", i, te.U, te.V)
		}
	}
	for _, te := range edges {
		if te.U == te.V {
			continue
		}
		if te.U >= len(d.adj) || te.V >= len(d.adj) {
			d.EnsureNode(te.U)
			d.EnsureNode(te.V)
		}
		d.adj[te.U] = append(d.adj[te.U], int32(te.V))
		d.adj[te.V] = append(d.adj[te.V], int32(te.U))
		d.inserted++
	}
	if d.scratch == nil {
		d.scratch = NewScratch()
	}
	s := d.scratch
	s.seeds = s.seeds[:0]
	seedChanged := 0
	for _, te := range edges {
		if te.U != te.V {
			seedChanged += s.seedEdge(d.dist, int32(te.U), int32(te.V))
		}
	}
	var a listAdj
	a.lists = d.adj
	st := repairWave(s, a, d.dist)
	st.Changed += seedChanged
	d.touched += st.Nodes
	d.lastRepair = st
	sssp.RecordRepair(int64(st.Nodes), int64(st.Edges), int64(st.FrontierPeak), start)
	return st.Changed, nil
}

// RepairStats returns the Stats of the most recent InsertEdge, ApplyBatch
// or ApplyStream call (zero value before the first one).
func (d *DynamicBFS) RepairStats() Stats { return d.lastRepair }

// Stats reports the size of one batch repair: how much traversal the
// decrease-only wave performed instead of a full BFS.
type Stats struct {
	// Changed counts distance improvements applied (seed relaxations plus
	// wave relaxations). A node improved twice counts twice.
	Changed int
	// Nodes and Edges count wave node visits and adjacency scans — the
	// traversal the repair actually did; compare against V and 2E of a
	// fresh BFS to see the savings.
	Nodes int
	Edges int
	// FrontierPeak is the largest single-level wave frontier.
	FrontierPeak int
}

// Scratch holds the reusable buffers of the batch repair kernel: the seed
// (level<<32|node) queue, its counting-sort scatter buffer and level
// histogram, and the two wave frontiers. One Scratch serves one goroutine;
// workers of a parallel sweep each own one.
type Scratch struct {
	seeds  []int64
	sorted []int64
	counts []int32
	cur    []int32
	next   []int32
}

// NewScratch returns an empty Scratch; buffers grow on first use and are
// reused afterwards (the repair kernel is zero-alloc in steady state).
func NewScratch() *Scratch {
	return &Scratch{}
}

// seedEdge relaxes one inserted edge {u, v} against dist, recording any
// improved endpoint as a wave seed. Returns 1 if a distance improved.
//
//convlint:hotpath
func (s *Scratch) seedEdge(dist []int32, u, v int32) int {
	du, dv := dist[u], dist[v]
	if du >= 0 && (dv < 0 || dv > du+1) {
		nd := du + 1
		dist[v] = nd
		s.seeds = append(s.seeds, int64(nd)<<32|int64(v))
		return 1
	}
	if dv >= 0 && (du < 0 || du > dv+1) {
		nd := dv + 1
		dist[u] = nd
		s.seeds = append(s.seeds, int64(nd)<<32|int64(u))
		return 1
	}
	return 0
}

// ApplyAll repairs dist — a valid distance vector of some source on g1 ⊆ g2
// — into the corresponding vector on g2, where delta is the edge difference
// g2 \ g1 (graph.NewDelta). The caller typically copies the t1 row and
// hands the copy here; after the call dist is bit-identical to a fresh BFS
// on g2 from the same source. Self-loops in delta are skipped and duplicate
// edges are tolerated. Panics on a dist/universe size mismatch or an
// out-of-range delta node: those are programming errors of the caller's
// plumbing, not data errors.
//
// The repair is decrease-only (insertions never increase a distance): each
// delta edge seeds at most one improved endpoint, seeds are processed in
// level order, and the wave re-relaxes the full g2 adjacency of every
// improved node, so all shortest-path constraints involving new edges are
// re-enforced while untouched regions are never traversed.
//
//convlint:hotpath
func (s *Scratch) ApplyAll(g2 *graph.Graph, delta []graph.Edge, dist []int32) Stats {
	//convlint:nondet repair latency is observational, not part of results
	start := time.Now()
	n := g2.NumNodes()
	if len(dist) != n {
		panic(fmt.Sprintf("dynsssp: dist length %d, graph has %d nodes", len(dist), n))
	}
	s.seeds = s.seeds[:0]
	seedChanged := 0
	for i := 0; i < len(delta); {
		u := delta[i].U
		if u < 0 || u >= n {
			panic(fmt.Sprintf("dynsssp: delta[%d] = (%d, %d) out of range [0,%d)", i, u, delta[i].V, n))
		}
		// dist[u] is cached across the run of consecutive edges sharing u
		// (NewDelta emits them grouped): within the run only the v-side
		// branch below can write dist[u], and it refreshes the cache, so du
		// is always exact. Ungrouped input just means shorter runs.
		du := dist[u]
		for ; i < len(delta) && delta[i].U == u; i++ {
			v := delta[i].V
			if v < 0 || v >= n {
				panic(fmt.Sprintf("dynsssp: delta[%d] = (%d, %d) out of range [0,%d)", i, u, v, n))
			}
			if v == u {
				continue
			}
			dv := dist[v]
			if du >= 0 && (dv < 0 || dv > du+1) {
				nd := du + 1
				dist[v] = nd
				s.seeds = append(s.seeds, int64(nd)<<32|int64(v))
				seedChanged++
			} else if dv >= 0 && (du < 0 || du > dv+1) {
				du = dv + 1
				dist[u] = du
				s.seeds = append(s.seeds, int64(du)<<32|int64(u))
				seedChanged++
			}
		}
	}
	var a csrAdj
	a.offsets, a.nbrs = g2.CSR()
	st := repairWave(s, a, dist)
	st.Changed += seedChanged
	sssp.RecordRepair(int64(st.Nodes), int64(st.Edges), int64(st.FrontierPeak), start)
	return st
}

// adjacency abstracts the two graph representations the repair wave runs
// over: the immutable CSR of a snapshot and the mutable adjacency lists of a
// DynamicBFS. Concrete struct type parameters keep the dispatch static.
type adjacency interface {
	neighborsOf(u int32) []int32
}

type csrAdj struct {
	offsets []int32
	nbrs    []int32
}

func (a csrAdj) neighborsOf(u int32) []int32 { return a.nbrs[a.offsets[u]:a.offsets[u+1]] }

type listAdj struct {
	lists [][]int32
}

func (a listAdj) neighborsOf(u int32) []int32 { return a.lists[u] }

// sortSeedsByLevel orders s.seeds level-major with a counting sort: levels
// are small dense integers (bounded by the graph's diameter), so two linear
// passes beat a comparison sort on every realistic seed batch. Node order
// within a level is arbitrary, which the wave tolerates — its stale check is
// by level only.
//
//convlint:hotpath
func sortSeedsByLevel(s *Scratch) {
	seeds := s.seeds
	if len(seeds) < 2 {
		return
	}
	maxLevel := int32(0)
	for _, sd := range seeds {
		if l := int32(sd >> 32); l > maxLevel {
			maxLevel = l
		}
	}
	for len(s.counts) <= int(maxLevel) {
		s.counts = append(s.counts, 0)
	}
	counts := s.counts[:maxLevel+1]
	clear(counts)
	for _, sd := range seeds {
		counts[sd>>32]++
	}
	var off int32
	for l, c := range counts {
		counts[l] = off
		off += c
	}
	for len(s.sorted) < len(seeds) {
		s.sorted = append(s.sorted, 0)
	}
	sorted := s.sorted[:len(seeds)]
	for _, sd := range seeds {
		l := sd >> 32
		sorted[counts[l]] = sd
		counts[l]++
	}
	s.seeds, s.sorted = sorted, seeds[:0]
}

// repairWave runs the level-ordered decrease-only wave over the seeds in
// s.seeds (already applied to dist by seedEdge). Seeds are sorted by their
// (level, node) encoding and merged into the frontier level by level; a seed
// whose node has since improved below its level is stale and skipped
// (dist[node] != level). During the wave a node is improved at most once
// after seeding — any improver sits one level below and was itself already
// processed — so every frontier is duplicate-free and the wave visits each
// changed node exactly once.
//
//convlint:hotpath
func repairWave[A adjacency](s *Scratch, adj A, dist []int32) Stats {
	sortSeedsByLevel(s)
	cur := s.cur[:0]
	next := s.next[:0]
	seeds := s.seeds
	si := 0
	var level int32
	var st Stats
	for si < len(seeds) || len(cur) > 0 {
		if len(cur) == 0 {
			level = int32(seeds[si] >> 32) // jump over empty levels to the next seed
		}
		for si < len(seeds) && int32(seeds[si]>>32) == level {
			v := int32(uint32(seeds[si]))
			si++
			if dist[v] == level {
				cur = append(cur, v)
			}
		}
		if len(cur) > st.FrontierPeak {
			st.FrontierPeak = len(cur)
		}
		nd := level + 1
		for _, u := range cur {
			st.Nodes++
			nbrs := adj.neighborsOf(u)
			st.Edges += len(nbrs)
			for _, v := range nbrs {
				if dist[v] < 0 || dist[v] > nd {
					dist[v] = nd
					next = append(next, v)
					st.Changed++
				}
			}
		}
		level++
		cur, next = next, cur[:0]
	}
	s.cur, s.next = cur[:0], next[:0]
	return st
}

// DeltaSince compares the maintained distances against a baseline vector
// (typically the distances at an earlier snapshot) and reports, for every
// node, the decrease baseline - current, with unreachable-in-baseline nodes
// reported as 0 (they were not connected, hence not converging). The result
// is written into out, which must have length NumNodes().
func (d *DynamicBFS) DeltaSince(baseline []int32, out []int32) error {
	if len(baseline) > len(d.dist) || len(out) != len(d.dist) {
		return fmt.Errorf("dynsssp: baseline length %d, out length %d, have %d nodes",
			len(baseline), len(out), len(d.dist))
	}
	for v := range out {
		out[v] = 0
	}
	for v, b := range baseline {
		if b <= 0 {
			continue
		}
		cur := d.dist[v]
		if cur >= 0 && cur < b {
			out[v] = b - cur
		}
	}
	return nil
}
