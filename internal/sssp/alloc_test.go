package sssp

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/invariant"
)

// TestBFSWithZeroAllocs is the runtime backstop for what the hotalloc
// analyzer checks statically: with a caller-provided, warmed Scratch, one
// single-source call allocates nothing on either kernel — BFSWith
// (dirOptBFS) and a one-lane msBFSBatch. This is the property the
// multi-source sweep's 3.34x win rests on.
func TestBFSWithZeroAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("CSR invariant assertions allocate; zero-alloc holds for default builds")
	}
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 2000, 6000)
	n := g.NumNodes()
	dist := make([]int32, n)
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			s := NewScratch(n)
			// Warm every buffer the kernel lazily grows (MS-BFS visit words,
			// bitmap frontiers); steady-state calls must then be free.
			k.run(g, 0, dist, s)
			src := 0
			allocs := testing.AllocsPerRun(50, func() {
				k.run(g, src%n, dist, s)
				src++
			})
			if allocs != 0 {
				t.Errorf("kernel %s: %.1f allocs per call with provided Scratch, want 0", k.name, allocs)
			}
		})
	}
}

// TestSweepRowBlockSizedToSources: a sweep allocates its bit-parallel row
// block for the lanes it can fill, not for all 64, and borrows its
// traversal scratch from the package pool. A one-worker sweep of
// msShareThreshold sources, the smallest that batches, on 10,000 nodes
// needs its 16 rows plus the kernel's per-node words, about 24·n int32 (a
// 64-row block alone would be 64·n); a repeated sweep finds the words
// pooled and allocates little more than its rows.
func TestSweepRowBlockSizedToSources(t *testing.T) {
	if invariant.Enabled {
		t.Skip("CSR invariant assertions allocate; the bound holds for default builds")
	}
	const n = 10000
	g := randomGraph(rand.New(rand.NewSource(3)), n, 3*n)
	sources := make([]int, msShareThreshold)
	for i := range sources {
		sources[i] = i
	}
	sweepBytes := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		AllSourcesFunc(g, sources, 1, func(int, []int32) {})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if got, limit := sweepBytes(), uint64(32*n*4); got >= limit {
		t.Errorf("a %d-source sweep allocated %d bytes, want under %d (32·n int32)", len(sources), got, limit)
	}
	t.Run("repeated", func(t *testing.T) {
		if raceEnabled {
			t.Skip("-race makes sync.Pool drop Puts at random; the bound rests on reuse")
		}
		// A collection between two sweeps can empty the pool, so the
		// cheaper of two repeats is the one held to the bound.
		got := min(sweepBytes(), sweepBytes())
		if rows := len(sources); got >= uint64((rows+2)*n*4) {
			t.Errorf("a repeated %d-source sweep allocated %d bytes, want under %d (%d·n int32: its rows plus slack)",
				rows, got, (rows+2)*n*4, rows+2)
		}
	})
}
