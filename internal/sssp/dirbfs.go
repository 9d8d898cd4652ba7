package sssp

import (
	"math/bits"

	"repro/internal/graph"
)

// Direction-optimizing BFS (Beamer, Asanović, Patterson: "Direction-
// Optimizing Breadth-First Search", SC'12). Levels run top-down (scan the
// frontier's adjacency) unless the frontier is large on three counts, when
// they run bottom-up (scan the unvisited nodes for any parent in the
// frontier): its outgoing edges outnumber a fraction of the unexplored
// edges (Beamer's test), it holds a fixed share of the still-unvisited
// nodes, and it holds a fixed fraction of the graph. Entering bottom-up
// also needs the frontier's edges to outnumber the n nodes a bottom-up
// sweep visits. On the small-diameter graphs of the paper's Facebook
// dataset the middle levels pass every test, and bottom-up ends each
// node's scan at its first frontier parent instead of examining every
// frontier edge. On sparse large-diameter graphs such as DBLP, Beamer's
// test alone also passes levels whose unvisited nodes mostly lie beyond
// the frontier or in components the source cannot reach; each such node
// scans its whole adjacency list, and the worst of those bottom-up levels
// examined six to ten times the edges a top-down level would have. The
// share test keeps them top-down, and the entry test the few left on
// DBLP's full snapshot, where a sweep of all n nodes costs more than the
// frontier's edges (EXPERIMENTS.md, "Why bottom-up waits for a large
// frontier").
const (
	// dirOptAlpha: bottom-up needs
	// (edges out of frontier) > (edges out of unvisited) / alpha.
	dirOptAlpha = 14
	// dirOptShare: bottom-up needs
	// (frontier size) * share > (unvisited nodes).
	dirOptShare = 3
	// dirOptBeta: bottom-up needs
	// (frontier size) >= n / beta.
	dirOptBeta = 24
)

// levelCut is the Δ-threshold depth limit of a bounded second-snapshot row
// (PrunedSecondBFS, whose comment shows why it is sound). When it fires the
// loop stops before the level and leaves every undiscovered node
// Unreachable.
type levelCut struct {
	maxD1 int32        // the largest first-snapshot distance of the row
	bound func() int32 // the Δ threshold, sampled once per level
	fired bool         // set when the cut stopped the traversal
}

// bfsWork is one dirOptBFS call's work, flushed once by its caller.
type bfsWork struct {
	nodes, edges, tdSteps, buSteps, switches, peak int64
}

// dirOptBFS is the level loop of every single-source row, full (cut nil)
// or bounded. dist must be all Unreachable. Distances are those of a plain
// level-order BFS (levels are order-independent); only the
// edge-examination order differs. Returns the eccentricity of src, or on a
// cut the level the cut fired before.
//
//convlint:hotpath
func dirOptBFS(g *graph.Graph, src int, dist []int32, s *Scratch, cut *levelCut) (ecc int32, work bfsWork) {
	offsets, neighbors := g.CSR()
	n := g.NumNodes()
	words := (n + 63) / 64
	q := s.queue[:0]
	q = append(q, int32(src))
	dist[src] = 0
	reached := 1

	// mf counts directed edges out of the current frontier, mu directed
	// edges out of still-unvisited nodes; both drive the Beamer heuristic.
	mf := int64(offsets[src+1] - offsets[src])
	mu := 2*int64(g.NumEdges()) - mf

	level := int32(0)
	levelStart, levelEnd := 0, 1 // q[levelStart:levelEnd] is the frontier
	bottomUp := false
	nf := 1 // frontier node count

	// Metrics accumulate in registers; the caller flushes them once.
	var edges, tdSteps, buSteps, switches int64
	peak := 1

	for {
		// Cut check before expanding this level, whose nodes get
		// d2 = level+1.
		if cut != nil && cut.maxD1-(level+1) < max(1, cut.bound()) {
			cut.fired = true
			break
		}
		// A level runs bottom-up only while all three tests hold (and,
		// when entering it, the entry test); a one-node frontier always
		// expands top-down. The loop is level-synchronous, so distances do
		// not depend on the direction.
		wantBottomUp := nf > 1 && mf > mu/dirOptAlpha && nf*dirOptShare > n-reached && nf >= n/dirOptBeta &&
			(bottomUp || mf > int64(n))
		if wantBottomUp && !bottomUp {
			// Switch: materialize the frontier as a bitmap.
			clearWords(s.cur[:words])
			for _, u := range q[levelStart:levelEnd] {
				s.cur[u>>6] |= 1 << (uint(u) & 63)
			}
			bottomUp = true
			switches++
		} else if !wantBottomUp && bottomUp {
			// Switch back: collect the bitmap frontier into the queue.
			levelStart = len(q)
			for w, word := range s.cur[:words] {
				for word != 0 {
					q = append(q, int32(w<<6+bits.TrailingZeros64(word)))
					word &= word - 1
				}
			}
			levelEnd = len(q)
			bottomUp = false
			switches++
		}

		var levelEdges, mfNext int64
		if !bottomUp {
			tdSteps++
			q, levelEdges, mfNext = topDownStep(offsets, neighbors, dist, q, levelStart, levelEnd, level+1)
			levelStart, levelEnd = levelEnd, len(q)
			nf = levelEnd - levelStart
		} else {
			buSteps++
			clearWords(s.nxt[:words])
			nf, levelEdges, mfNext = bottomUpStep(offsets, neighbors, dist, s.cur[:words], s.nxt[:words], level+1)
			s.cur, s.nxt = s.nxt, s.cur
		}
		edges += levelEdges
		reached += nf
		mu -= mfNext
		mf = mfNext
		if nf > peak {
			peak = nf
		}
		if nf == 0 {
			break
		}
		level++
		ecc = level
	}
	s.queue = q[:0]
	work.nodes, work.edges, work.peak = int64(reached), edges, int64(peak)
	work.tdSteps, work.buSteps, work.switches = tdSteps, buSteps, switches
	return ecc, work
}

// topDownStep expands the frontier q[start:end]: every unvisited
// neighbour gets distance next and joins q. It returns the grown queue, the
// edges examined and the new frontier's outgoing edges. The level steps are
// functions of their own so that each loop's state stays in registers, and
// topDownStep is kept out of line: inlined into dirOptBFS, it made the
// full rows of BenchmarkBFSEngines 4–15% slower (EXPERIMENTS.md, "Why δ is
// the threshold's floor and the cut has no histogram").
//
//convlint:hotpath
//go:noinline
func topDownStep(offsets, neighbors, dist, q []int32, start, end int, next int32) (_ []int32, edges, mf int64) {
	for _, u := range q[start:end] {
		edges += int64(offsets[u+1] - offsets[u])
		for _, v := range neighbors[offsets[u]:offsets[u+1]] {
			if dist[v] == Unreachable {
				dist[v] = next
				mf += int64(offsets[v+1] - offsets[v])
				q = append(q, v)
			}
		}
	}
	return q, edges, mf
}

// bottomUpStep gives every unvisited node with a parent in the frontier
// bitmap cur distance next and marks it in nxt, ending each node's scan at
// its first parent. It returns the new frontier's size, the edges examined
// and the new frontier's outgoing edges.
//
//convlint:hotpath
func bottomUpStep(offsets, neighbors, dist []int32, cur, nxt []uint64, next int32) (nf int, edges, mf int64) {
	for v := range dist {
		if dist[v] != Unreachable {
			continue
		}
		for _, w := range neighbors[offsets[v]:offsets[v+1]] {
			edges++
			if cur[w>>6]&(1<<(uint(w)&63)) != 0 {
				dist[v] = next
				mf += int64(offsets[v+1] - offsets[v])
				nxt[v>>6] |= 1 << (uint(v) & 63)
				nf++
				break
			}
		}
	}
	return nf, edges, mf
}
