package sssp

import (
	"math/bits"
	"time"

	"repro/internal/graph"
)

// Direction-optimizing BFS (Beamer, Asanović, Patterson: "Direction-
// Optimizing Breadth-First Search", SC'12). Levels run top-down (scan the
// frontier's adjacency) unless the frontier is large on three counts, when
// they run bottom-up (scan the unvisited nodes for any parent in the
// frontier): its outgoing edges outnumber a fraction of the unexplored
// edges (Beamer's test), it holds a fixed share of the still-unvisited
// nodes, and it holds a fixed fraction of the graph. On the small-diameter
// graphs of the paper's Facebook dataset the middle levels pass all three,
// and bottom-up ends each node's scan at its first frontier parent instead
// of examining every frontier edge. On sparse large-diameter graphs such as
// DBLP, Beamer's test alone also passes levels whose unvisited nodes mostly
// lie beyond the frontier or in components the source cannot reach; each
// such node scans its whole adjacency list, and the worst of those
// bottom-up levels examined six to ten times the edges a top-down level
// would have. The share test keeps them top-down (EXPERIMENTS.md, "Why
// bottom-up waits for a large frontier").
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

// dirOptBFS is the direction-optimizing kernel, the one every
// single-source BFS runs. Distances are those of a plain level-order BFS
// (levels are order-independent); only the edge-examination order differs.
//
//convlint:hotpath
func dirOptBFS(g *graph.Graph, src int, dist []int32, s *Scratch) (reached int, ecc int32) {
	//convlint:nondet sweep latency is observational, not part of results
	start := time.Now()
	offsets, neighbors := g.CSR()
	n := g.NumNodes()
	words := (n + 63) / 64
	q := s.queue[:0]
	q = append(q, int32(src))
	dist[src] = 0
	reached = 1

	// mf counts directed edges out of the current frontier, mu directed
	// edges out of still-unvisited nodes; both drive the Beamer heuristic.
	mf := int64(offsets[src+1] - offsets[src])
	mu := 2*int64(g.NumEdges()) - mf

	level := int32(0)
	levelStart, levelEnd := 0, 1 // q[levelStart:levelEnd] is the frontier
	bottomUp := false
	nf := 1 // frontier node count

	// Metrics accumulate in registers and flush once on return.
	var edges, tdSteps, buSteps, switches int64
	peak := 1

	for {
		// A level runs bottom-up only while all three tests hold, and a
		// one-node frontier always expands top-down. The kernel is
		// level-synchronous, so distances do not depend on the direction.
		wantBottomUp := nf > 1 && mf > mu/dirOptAlpha && nf*dirOptShare > n-reached && nf >= n/dirOptBeta
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

		if !bottomUp {
			// Top-down step: expand the frontier's adjacency.
			tdSteps++
			var mfNext int64
			for head := levelStart; head < levelEnd; head++ {
				u := q[head]
				edges += int64(offsets[u+1] - offsets[u])
				for _, v := range neighbors[offsets[u]:offsets[u+1]] {
					if dist[v] == Unreachable {
						dist[v] = level + 1
						reached++
						deg := int64(offsets[v+1] - offsets[v])
						mfNext += deg
						mu -= deg
						q = append(q, v)
					}
				}
			}
			levelStart, levelEnd = levelEnd, len(q)
			nf = levelEnd - levelStart
			mf = mfNext
		} else {
			// Bottom-up step: every unvisited node looks for a parent in
			// the current frontier bitmap.
			buSteps++
			clearWords(s.nxt[:words])
			nfNext := 0
			var mfNext int64
			for v := 0; v < n; v++ {
				if dist[v] != Unreachable {
					continue
				}
				for _, w := range neighbors[offsets[v]:offsets[v+1]] {
					edges++
					if s.cur[w>>6]&(1<<(uint(w)&63)) != 0 {
						dist[v] = level + 1
						reached++
						deg := int64(offsets[v+1] - offsets[v])
						mfNext += deg
						mu -= deg
						s.nxt[v>>6] |= 1 << (uint(v) & 63)
						nfNext++
						break
					}
				}
			}
			s.cur, s.nxt = s.nxt, s.cur
			nf = nfNext
			mf = mfNext
		}
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
	km := &kernelMetrics[kDirOpt]
	km.calls.Add(1)
	km.sources.Add(1)
	km.nodes.Add(int64(reached))
	km.edges.Add(edges)
	km.tdSteps.Add(tdSteps)
	km.buSteps.Add(buSteps)
	km.switches.Add(switches)
	peakMax(&km.frontierPeak, int64(peak))
	observeSweep(kDirOpt, start, 1, int64(reached), edges)
	return reached, ecc
}
