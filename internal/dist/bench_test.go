package dist

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/sssp"
)

// benchEvolving builds the synthetic DBLP stream scaled to n=50000 — the
// acceptance size for the incremental paired engine. DBLP is the sparse
// high-diameter generator, the regime the incremental engine targets: a
// full BFS pays many near-empty levels over 50k nodes while the edge delta
// stays small. (On the dense preferential-attachment generators — Facebook,
// Actors — a 20% delta reshapes distances globally and the full traversal
// is within ~2x of the repair; see README "Performance architecture".)
// Built once and shared across all split fractions.
func benchEvolving(b *testing.B) *graph.Evolving {
	b.Helper()
	ev, err := datagen.DBLP(datagen.Config{Seed: 1, Scale: 50000.0 / 18000})
	if err != nil {
		b.Fatalf("datagen: %v", err)
	}
	return ev
}

// BenchmarkPairedSweep compares the full paired sweep (re-traverse G_t2 per
// source) against the incremental one (derive the t2 row by repairing the
// t1 row with the snapshot edge delta) at 60/70/80% split fractions.
//
// The secondleg rows isolate what the incremental engine replaces: one full
// scalar BFS on G_t2 versus one copy+repair per source, over the same 64
// sources. This is the acceptance comparison — the repair touches only the
// region the delta improves, so its cost tracks the delta size, not V+E.
//
// The sweep rows measure the batched full driver (PairedSweep), which hands
// both legs to the MS-BFS bit-parallel kernel and amortizes ~(V+2E)/64 per
// source at this batch size; see README "Performance architecture".
func BenchmarkPairedSweep(b *testing.B) {
	ev := benchEvolving(b)
	n := ev.NumNodes()
	const srcCount = 64
	for _, frac := range []float64{0.6, 0.7, 0.8} {
		sp, err := ev.Pair(frac, 1.0)
		if err != nil {
			b.Fatalf("pair: %v", err)
		}
		p := BFSPair(sp, sssp.Auto)
		pct := int(frac * 100)

		// Sources are spread over the nodes that exist at t1, matching the
		// pipeline: a candidate isolated at t1 has no finite d_t1, so its
		// delta is zero by definition and no selector emits it. (A source
		// born after t1 would also be the incremental engine's worst case —
		// its t1 row is all-unreachable and the repair rebuilds everything.)
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

		// Precompute the t1 rows once: both secondleg variants start from
		// an already-produced d1, so only the second leg is on the clock.
		d1s := make([][]int32, srcCount)
		s1 := p.S1.NewSession()
		for i, src := range sources {
			d1s[i] = make([]int32, n)
			s1.DistancesInto(src, d1s[i])
		}

		b.Run(fmt.Sprintf("secondleg/full/split=%d", pct), func(b *testing.B) {
			b.ReportAllocs()
			sess2 := p.S2.NewSession()
			d2 := make([]int32, n)
			for i := 0; i < b.N; i++ {
				for _, src := range sources {
					sess2.DistancesInto(src, d2)
				}
			}
		})
		b.Run(fmt.Sprintf("secondleg/incremental/split=%d", pct), func(b *testing.B) {
			b.ReportAllocs()
			ps := NewPairedEngine(p, PairedIncremental).NewSession()
			d2 := make([]int32, n)
			for i := 0; i < b.N; i++ {
				for j := range sources {
					ps.DeriveInto(sources[j], d1s[j], d2, nil)
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
