package sssp

import (
	"math/rand"
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

// TestMultiSourceBFSWithZeroAllocs covers the dispersion-selection driver
// the same way.
func TestMultiSourceBFSWithZeroAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("CSR invariant assertions allocate; zero-alloc holds for default builds")
	}
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 1500, 4000)
	n := g.NumNodes()
	dist := make([]int32, n)
	sources := []int{0, 3, 9, 27}
	s := NewScratch(n)
	MultiSourceBFSWith(g, sources, dist, s)
	allocs := testing.AllocsPerRun(50, func() {
		MultiSourceBFSWith(g, sources, dist, s)
	})
	if allocs != 0 {
		t.Errorf("%.1f allocs per MultiSourceBFSWith with provided Scratch, want 0", allocs)
	}
}
