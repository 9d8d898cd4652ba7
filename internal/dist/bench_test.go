package dist

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
)

// benchEvolving builds the synthetic DBLP stream scaled to n=50000, the
// sparse high-diameter generator where a full BFS pays many near-empty
// levels. Built once and shared across all split fractions.
func benchEvolving(b *testing.B) *graph.Evolving {
	b.Helper()
	ev, err := datagen.DBLP(datagen.Config{Seed: 1, Scale: 50000.0 / 18000})
	if err != nil {
		b.Fatalf("datagen: %v", err)
	}
	return ev
}

// BenchmarkPairedSweep times the second snapshot's rows at 60/70/80% split
// fractions over the same 64 sources. The secondleg rows run one full
// scalar BFS on G_t2 per source. The sweep rows measure the batched driver
// (PairedSweep), which hands both legs to the MS-BFS bit-parallel kernel
// and amortizes ~(V+2E)/64 per source at this batch size; see README
// "Performance architecture".
func BenchmarkPairedSweep(b *testing.B) {
	ev := benchEvolving(b)
	n := ev.NumNodes()
	const srcCount = 64
	for _, frac := range []float64{0.6, 0.7, 0.8} {
		sp, err := ev.Pair(frac, 1.0)
		if err != nil {
			b.Fatalf("pair: %v", err)
		}
		p := BFSPair(sp)
		pct := int(frac * 100)

		// Sources are spread over the nodes that exist at t1, matching the
		// pipeline: a candidate isolated at t1 has no finite d_t1, so its
		// delta is zero by definition and no selector emits it.
		present := 0
		for u := 0; u < n; u++ {
			if sp.G1.Degree(u) > 0 {
				present++
			}
		}
		sources := make([]int, srcCount)
		for i := range sources {
			sources[i] = (i * (present / srcCount)) % present
		}

		b.Run(fmt.Sprintf("secondleg/full/split=%d", pct), func(b *testing.B) {
			b.ReportAllocs()
			d2 := make([]int32, n)
			for i := 0; i < b.N; i++ {
				for _, src := range sources {
					p.S2.DistancesInto(src, d2)
				}
			}
		})
		b.Run(fmt.Sprintf("sweep/full/split=%d", pct), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PairedSweep(p, sources, 1, func(int, []int32, []int32) {})
			}
		})
	}
}
