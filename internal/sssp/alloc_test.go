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
// block for the lanes it can fill, not for all 64. A 10-source sweep at one
// worker on 10,000 nodes needs 10 rows plus the kernel's per-node words,
// about 18·n int32; a 64-row block alone would be 64·n.
func TestSweepRowBlockSizedToSources(t *testing.T) {
	if invariant.Enabled {
		t.Skip("CSR invariant assertions allocate; the bound holds for default builds")
	}
	const n = 10000
	g := randomGraph(rand.New(rand.NewSource(3)), n, 3*n)
	sources := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	AllSourcesFunc(g, sources, 1, func(int, []int32) {})
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*n*4); got >= limit {
		t.Errorf("a %d-source sweep allocated %d bytes, want under %d (32·n int32)", len(sources), got, limit)
	}
}
