package sssp

import (
	"testing"

	"repro/internal/graph"
)

// batchCase is one multi-lane differential case: a blockWithPaths graph
// (block and path sizes, isolated nodes) plus byte-pair edges, one byte per
// lane choosing its source, and optional depth-limit bytes (none: full
// rows).
type batchCase struct {
	data, sources, limits []byte
	block, path, isolated uint8
}

// batchCorpus seeds FuzzBatchLanes and TestBatchLanesPullLevels. Sources
// on the far end of the first path walk it top-down, pull the block's wide
// level and go back to pushing down the second path. The limited cases stop
// lanes below 1, inside the block's levels and past every eccentricity.
var batchCorpus = []batchCase{
	{nil, []byte{0}, nil, 0, 0, 1},
	{[]byte{0, 1, 1, 2, 2, 0}, []byte{0, 1, 2, 2, 2}, nil, 3, 2, 1},
	{nil, []byte{51, 51, 51, 0, 63}, nil, 40, 12, 5},
	{nil, []byte{45, 46, 47, 48, 49, 50, 51, 51, 70, 71}, nil, 40, 12, 3},
	{[]byte{60, 200, 3, 90, 7, 9}, []byte{70, 47, 25, 25, 3, 200, 90}, nil, 47, 25, 2},
	{nil, []byte{
		0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
		16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31,
		32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47,
		48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63,
	}, nil, 30, 15, 4},
	{nil, []byte{51, 51, 51, 0, 63, 20}, []byte{0, 4, 5, 6, 11, 47}, 40, 12, 5},
	{[]byte{60, 200, 3, 90}, []byte{70, 47, 25, 25, 3, 200, 90, 1}, []byte{1, 2, 3, 7, 8, 9, 10, 30}, 47, 25, 2},
	{nil, []byte{
		0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
		16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31,
	}, []byte{5, 6, 7, 8, 9, 10, 11, 12, 13, 44}, 30, 15, 4},
}

// checkBatchLanes builds c's graph and runs one msBFSBatch over its 1–64
// sources (a byte each, modulo n; duplicates allowed; none means one
// source, node 0) twice on one Scratch. Without limit bytes every lane's
// row must equal referenceBFS from its source. With them, lane i's limit is
// limits[i mod len] % 48 − 4 (so from −4, below 1, to 43, past every
// eccentricity of a small case): up to max(0, limit) its row must equal
// referenceBFS, beyond it every node must be Unreachable, and its cut bit
// must be set exactly when a node lies at max(0, limit), the frontier it
// stopped with. The second call also fails if the first left a front or
// next word set, since ensureMS clears only seen.
func checkBatchLanes(t *testing.T, c batchCase) {
	t.Helper()
	b := blockWithPaths(int(c.block)%48, int(c.path)%32, int(c.isolated)%8+1)
	for i := 0; i+1 < len(c.data); i += 2 {
		_ = b.AddEdge(int(c.data[i]), int(c.data[i+1]))
	}
	g := b.Build()
	n := g.NumNodes()
	srcBytes := c.sources[:min(len(c.sources), msBatchBits)]
	if len(srcBytes) == 0 {
		srcBytes = []byte{0}
	}
	sources := make([]int, len(srcBytes))
	want := make([][]int32, len(srcBytes))
	var limits []int32
	if len(c.limits) > 0 {
		limits = make([]int32, len(srcBytes))
	}
	var wantCut uint64
	for i, v := range srcBytes {
		sources[i] = int(v) % n
		want[i], _, _ = referenceBFS(g, sources[i])
		if limits == nil {
			continue
		}
		limits[i] = int32(c.limits[i%len(c.limits)]%48) - 4
		depth := max(0, limits[i])
		for v, d := range want[i] {
			if d == depth {
				wantCut |= 1 << uint(i)
			}
			if d > depth {
				want[i][v] = Unreachable
			}
		}
	}
	rows := newRows(len(sources), n)
	s := NewScratch(n)
	for call := 1; call <= 2; call++ {
		cut := msBFSBatch(g, sources, rows, limits, s)
		for i, row := range rows {
			for v := range row {
				if row[v] != want[i][v] {
					t.Fatalf("call %d, lane %d of %d (source %d, limits %v): dist[%d] = %d, want %d",
						call, i, len(sources), sources[i], limits, v, row[v], want[i][v])
				}
			}
		}
		if cut != wantCut {
			t.Fatalf("call %d, %d lanes (limits %v): cut mask %#x, want %#x", call, len(sources), limits, cut, wantCut)
		}
	}
}

// FuzzBatchLanes is the multi-lane twin of FuzzEngines: byte-derived
// graphs (blockWithPaths plus data edges, growing the universe up to 256
// nodes), 1–64 byte-chosen sources, duplicates included, and byte-chosen
// per-lane depth limits (or none), through one bit-parallel batch, whose
// every lane must match the oracle up to its limit and be Unreachable
// beyond it. It covers what a one-lane batch cannot: a pulled node's
// missing-lane mask, its early exit once its neighbours cover every
// missing lane, lanes that die or stop at their limit while others still
// push or pull, and duplicate sources.
func FuzzBatchLanes(f *testing.F) {
	for _, c := range batchCorpus {
		f.Add(c.data, c.sources, c.limits, c.block, c.path, c.isolated)
	}
	f.Fuzz(func(t *testing.T, data, sources, limits []byte, block, path, isolated uint8) {
		checkBatchLanes(t, batchCase{data, sources, limits, block, path, isolated})
	})
}

// TestBatchLanesPullLevels runs the fuzz corpus and requires that some
// level was pulled and that batches switched direction both ways: with
// push levels only, the equality with the oracle would not cover the pull
// half of the loop.
func TestBatchLanesPullLevels(t *testing.T) {
	before := SnapshotMetrics()
	for _, c := range batchCorpus {
		checkBatchLanes(t, c)
	}
	d := SnapshotMetrics().Sub(before).BitParallel64
	if d.BottomUpSteps < 1 || d.Switches < 2 {
		t.Fatalf("bitparallel64 bottom-up steps = %d, switches = %d over the corpus, want >= 1 and >= 2",
			d.BottomUpSteps, d.Switches)
	}
}

// pushOnlyEdges is the edge work of a batch that never pulls, read off its
// rows: a push level examines the adjacency of every node some lane first
// reached at the level before, so each node's adjacency is examined once
// per distinct finite distance among the lanes.
func pushOnlyEdges(g *graph.Graph, rows [][]int32) int64 {
	var edges int64
	levels := map[int32]bool{}
	for v := 0; v < g.NumNodes(); v++ {
		clear(levels)
		for _, row := range rows {
			if row[v] != Unreachable {
				levels[row[v]] = true
			}
		}
		edges += int64(len(levels) * g.Degree(v))
	}
	return edges
}

// TestBatchDirectionEdgeWork pins the batch kernel's direction rule by its
// exact edge work on small datagen fixtures of the two served shapes, at
// their 80% and 100% snapshots: every node is a source once, in batches of
// 4 (a sweep's tail chunk), 16 (the smallest batched share), 25 and 64
// lanes, and the batches' edges are held against pushOnlyEdges over the
// same rows. On Facebook the pull levels must engage and cut the edges to
// at most 0.6 of it (they read 0.24–0.53). On DBLP they may cost at
// most 5% more: its 4- to 25-lane batches examine fewer edges than pushing
// (0.97–1.00), but 64-lane batches examine 1.01–1.02 times as many,
// because their widest levels pull whole adjacency lists in a component
// no lane has finished, where no pulled node can stop early; those levels
// still run faster than pushing them (BENCH_sssp.json,
// "bitparallel_direction"). Under 2·mf > mu alone, DBLP's 16- to 64-lane
// batches examined about 1.2 times the push-only edges.
func TestBatchDirectionEdgeWork(t *testing.T) {
	cases := []struct {
		dataset  string
		nodes    int
		maxRatio float64
		pulls    bool
	}{
		{"DBLP", 1000, 1.05, false},
		{"Facebook", 500, 0.6, true},
	}
	for _, c := range cases {
		for _, frac := range []float64{0.8, 1} {
			g := servedSnapshot(t, c.dataset, c.nodes, frac)
			n := g.NumNodes()
			s := NewScratch(n)
			for _, lanes := range []int{4, 16, 25, 64} {
				rows := newRows(lanes, n)
				sources := make([]int, 0, lanes)
				var pushOnly int64
				before := SnapshotMetrics()
				for lo := 0; lo < n; lo += lanes {
					sources = sources[:0]
					for v := lo; v < min(lo+lanes, n); v++ {
						sources = append(sources, v)
					}
					msBFSBatch(g, sources, rows[:len(sources)], nil, s)
					pushOnly += pushOnlyEdges(g, rows[:len(sources)])
				}
				d := SnapshotMetrics().Sub(before).BitParallel64
				ratio := float64(d.Edges) / float64(pushOnly)
				if ratio > c.maxRatio {
					t.Errorf("%s n=%d at %.0f%%, %d lanes: batches examined %d edges, push-only %d (ratio %.3f, want <= %.2f)",
						c.dataset, n, 100*frac, lanes, d.Edges, pushOnly, ratio, c.maxRatio)
				}
				if c.pulls && d.BottomUpSteps == 0 {
					t.Errorf("%s n=%d at %.0f%%, %d lanes: no level pulled", c.dataset, n, 100*frac, lanes)
				}
				t.Logf("%s n=%d at %.0f%%, %d lanes: %d edges, push-only %d (ratio %.3f), %d pull levels",
					c.dataset, n, 100*frac, lanes, d.Edges, pushOnly, ratio, d.BottomUpSteps)
			}
		}
	}
}
