package sssp

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/graph"
	"repro/internal/invariant"
)

// Bit-parallel multi-source BFS (MS-BFS; Then et al., "The More the
// Merrier: Efficient Multi-Source Graph Traversal", VLDB 2015). Up to 64
// sources traverse the graph together: each node carries one machine word
// whose bit i means "reached by source i", so one pass over an edge
// advances every source that still needs it. A node is re-expanded only at
// the few distinct levels at which some source first reaches it — on the
// paper's small-diameter snapshots that is 2–4 levels — so a 64-source
// batch examines each edge a handful of times instead of 64.
//
// The level loop is direction-optimizing, as dirOptBFS is for one source
// (Beamer et al., SC'12). A top-down (push) level ORs each frontier node's
// front word into its neighbours' next words. A bottom-up (pull) level
// visits every node that some live lane (one whose frontier is not empty)
// has not reached, ORs its neighbours' front words, and stops at the first
// neighbour set that covers all its missing lanes. A push level examines
// mf edges, the frontier's outgoing edges, and each that delivers a new
// lane is a random read-modify-write of two words; a pull level reads all
// n seen words and examines at most mu edges, the outgoing edges of the
// nodes not yet reached by every lane, writing only the nodes it visits.
// A level pulls when 2·mf > mu + 2n. Without the 2n term (2·mf > mu
// alone), DBLP batches of 1–8 lanes, the tail chunk of a sweep, ran up to
// 1.4× slower: their pull levels paid for n word reads and for the whole
// adjacency lists of nodes some lane never reaches, while their push
// levels are cheap. On Facebook the wide middle levels pass it at every
// lane count and a pulled node usually stops after a few neighbours
// (EXPERIMENTS.md, "Why bit-parallel sweeps go bottom-up").

// msBFSBatch runs BFS from sources[0..k) (k <= 64) simultaneously and
// writes the distance row of sources[i] into rows[i] (length n, Unreachable
// for nodes in other components). Duplicate sources are allowed and produce
// identical rows. The scratch's MS buffers are (re)used across calls: seen
// is cleared by ensureMS, and front and next are all-zero again on return.
//
// limits, when set, gives each lane a depth limit: lane i stops before the
// level past max(0, limits[i]), so its row holds the true distance of every
// node within that depth and Unreachable beyond it, and bit i of the
// returned mask is set when it stopped with a frontier left to expand. That
// is PrunedSecondBFS's row and cut under a constant threshold, lane by
// lane. A stopped lane leaves the active mask: its front bits no longer
// push and a pulled node no longer waits for it, while the other lanes go
// on. A batch with limits flushes to the PrunedBFS counters, one without to
// BitParallel64's.
//
//convlint:hotpath
func msBFSBatch(g *graph.Graph, sources []int, rows [][]int32, limits []int32, s *Scratch) (cut uint64) {
	//convlint:nondet sweep latency is observational, not part of results
	start := time.Now()
	n := g.NumNodes()
	if len(sources) > msBatchBits {
		panic(fmt.Sprintf("sssp: MS-BFS batch of %d sources exceeds %d lanes", len(sources), msBatchBits))
	}
	offsets, neighbors := g.CSR()
	s.ensureMS(n)
	seen, front, next := s.seen, s.front, s.next

	for i, src := range sources {
		if src < 0 || src >= n {
			panic(fmt.Sprintf("sssp: source %d out of range [0,%d)", src, n))
		}
		// Fill the row by doubling copies, which run as block moves: one
		// store per entry took about a quarter of a 64-lane Facebook batch
		// whose wide levels pull.
		row := rows[i]
		if len(row) > 0 {
			row[0] = Unreachable
			for k := 1; k < len(row); k *= 2 {
				copy(row[k:], row[:k])
			}
		}
		row[src] = 0
	}

	// all has one bit per lane, and live the lanes whose frontier is not
	// empty: a lane outside live reaches nothing more, so a pulled node
	// never waits for it.
	all := ^uint64(0) >> (msBatchBits - len(sources))
	live := all
	q := s.queue[:0]
	for i, src := range sources {
		bit := uint64(1) << uint(i)
		if seen[src] == 0 {
			q = append(q, int32(src))
		}
		seen[src] |= bit
		front[src] |= bit
	}
	// mf counts the edges out of the frontier, mu the edges out of the
	// nodes some lane has not reached; a node leaves mu the level its last
	// lane reaches it.
	mu := 2 * int64(g.NumEdges())
	var mf int64
	for _, u := range q {
		d := int64(offsets[u+1] - offsets[u])
		mf += d
		if seen[u] == all {
			mu -= d
		}
	}

	// Metrics accumulate in registers and flush once per batch. A "node"
	// here is one (source, node) visit — the scalar-equivalent work the
	// batch saves is visits versus edges actually scanned.
	var edges, tdSteps, buSteps, switches int64
	visits := int64(len(sources))
	peak := len(q)
	pull := false

	nextQ := s.nextQ[:0]
	for level := int32(1); len(q) > 0; level++ {
		if limits != nil {
			// A live lane whose limit is below this level stops here: its
			// frontier is at its limit and not empty, so it was cut.
			stop := live &^ lanesWithin(limits, level)
			cut |= stop
			if live &^= stop; live == 0 {
				for _, u := range q {
					front[u] = 0
				}
				break
			}
		}
		if want := 2*mf > mu+2*int64(n); want != pull {
			pull = want
			switches++
		}
		var levelEdges int64
		if pull {
			buSteps++
			nextQ, levelEdges = pullLevel(offsets, neighbors, seen[:n], front, next, live, nextQ[:0])
			for _, u := range q {
				front[u] = 0
			}
		} else {
			tdSteps++
			nextQ, levelEdges = pushLevel(offsets, neighbors, seen, front, next, live, q, nextQ[:0])
		}
		edges += levelEdges
		mf, live = 0, 0
		for _, v := range nextQ {
			w := next[v]
			live |= w
			visits += int64(bits.OnesCount64(w))
			for w != 0 {
				rows[bits.TrailingZeros64(w)][v] = level
				w &= w - 1
			}
			d := int64(offsets[v+1] - offsets[v])
			mf += d
			if seen[v] == all {
				mu -= d
			}
		}
		if len(nextQ) > peak {
			peak = len(nextQ)
		}
		front, next = next, front
		q, nextQ = nextQ, q
	}
	if invariant.Enabled {
		checkMSCleared(front, next)
	}
	// Hand the (possibly swapped) slices back so the next call reuses them;
	// front and next are all-zero again at this point.
	s.front, s.next = front, next
	s.queue, s.nextQ = q[:0], nextQ[:0]
	kernel := kBitParallel
	if limits != nil {
		kernel = kPrunedBFS
		prunedCutoffs.Add(int64(bits.OnesCount64(cut)))
	}
	km := &kernelMetrics[kernel]
	km.calls.Add(1)
	km.sources.Add(int64(len(sources)))
	km.nodes.Add(visits)
	km.edges.Add(edges)
	km.tdSteps.Add(tdSteps)
	km.buSteps.Add(buSteps)
	km.switches.Add(switches)
	peakMax(&km.frontierPeak, int64(peak))
	observeSweep(kernel, start, int64(len(sources)), visits, edges)
	return cut
}

// lanesWithin returns the mask of the lanes whose depth limit reaches
// level (a limit below 0 counts as 0).
func lanesWithin(limits []int32, level int32) (mask uint64) {
	for i, l := range limits {
		if l >= level {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// pushLevel expands the frontier q top-down: each frontier node clears its
// front word and ORs its live lanes into every neighbour's next word, less
// the lanes the neighbour has seen; a neighbour that gains its first lane
// of the level joins nextQ. A node whose lanes have all stopped expands
// nothing. It returns nextQ and the edges examined.
//
//convlint:hotpath
func pushLevel(offsets, neighbors []int32, seen, front, next []uint64, live uint64, q, nextQ []int32) (_ []int32, edges int64) {
	for _, u := range q {
		fu := front[u] & live
		front[u] = 0
		if fu == 0 {
			continue
		}
		edges += int64(offsets[u+1] - offsets[u])
		for _, v := range neighbors[offsets[u]:offsets[u+1]] {
			new := fu &^ seen[v]
			if new == 0 {
				continue
			}
			if next[v] == 0 {
				nextQ = append(nextQ, v)
			}
			next[v] |= new
			seen[v] |= new
		}
	}
	return nextQ, edges
}

// pullLevel expands the frontier bottom-up: every node missing some live
// lane ORs its neighbours' front words until they cover all its missing
// lanes, takes the lanes they bring as its next word and joins nextQ, in
// node order. It leaves front to the caller, which clears the frontier's
// words once the level is done. It returns nextQ and the edges examined.
//
//convlint:hotpath
func pullLevel(offsets, neighbors []int32, seen, front, next []uint64, live uint64, nextQ []int32) (_ []int32, edges int64) {
	for v, sv := range seen {
		missing := live &^ sv
		if missing == 0 {
			continue
		}
		var got uint64
		for _, w := range neighbors[offsets[v]:offsets[v+1]] {
			edges++
			got |= front[w]
			if got&missing == missing {
				break
			}
		}
		if new := got & missing; new != 0 {
			next[v] = new
			seen[v] = sv | new
			nextQ = append(nextQ, int32(v))
		}
	}
	return nextQ, edges
}

// checkMSCleared panics unless every front and next word is zero: the state
// msBFSBatch must leave, because Scratch.ensureMS clears only seen.
func checkMSCleared(front, next []uint64) {
	for v := range front {
		invariant.Checkf(front[v] == 0 && next[v] == 0,
			"msBFSBatch left node %d with front %#x and next %#x", v, front[v], next[v])
	}
}
