package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/candidates"
	"repro/internal/dist"
	"repro/internal/sssp"
)

// BenchmarkBoundedRows times the t2 rows a query's extraction derives, on
// the served shapes (G_t1 at 80%, G_t2 at 100%): every candidate whose t2
// row selection did not cache, bounded at a constant threshold T, one
// PrunedSecondBFS per row (per-source) against the bounded sweep
// sssp.PrunedRowsInto in worker shares of all rows and of half of them
// (batch/share=N, one worker, so N lanes per batch). T is 1 and the
// query's final kth Δ when that is larger. It reports ns/row and the exact
// edges/row. Run it under GOMAXPROCS=1:
//
//	go test -run '^$' -bench BoundedRows -benchtime 50x ./internal/core
func BenchmarkBoundedRows(b *testing.B) {
	shapes := []struct {
		dataset  string
		nodes    int
		selector string
		k        int
	}{
		{"Facebook", 4700, "MaxMin", 10},
		{"Facebook", 10000, "SumDiff", 10},
		{"Facebook", 10000, "MMSD", 50},
		{"Facebook", 10000, "DegDiff", 200},
		{"DBLP", 10000, "MMSD", 10},
	}
	for _, sh := range shapes {
		name := fmt.Sprintf("%s/n=%d/%s/k=%d", sh.dataset, sh.nodes, sh.selector, sh.k)
		b.Run(name, func(b *testing.B) {
			sp := datagenPair(b, sh.dataset, sh.nodes)
			sel, err := candidates.ByName(sh.selector)
			if err != nil {
				b.Fatal(err)
			}
			opts := Options{Selector: sel, M: 50, L: 10, K: sh.k, Seed: 1, Workers: 1}
			res, err := TopK(sp, opts)
			if err != nil {
				b.Fatal(err)
			}
			final := int32(1)
			if len(res.Pairs) > 0 {
				final = res.Pairs[len(res.Pairs)-1].Delta
			}
			// Replay the seeded selection to learn which t2 rows it cached.
			cctx := &candidates.Context{Pair: sp, S1: dist.NewBFS(sp.G1), S2: dist.NewBFS(sp.G2),
				M: opts.M, L: opts.L, RNG: rand.New(rand.NewSource(opts.Seed)), Workers: 1}
			cands, err := sel.Select(cctx)
			if err != nil {
				b.Fatal(err)
			}
			var sources []int
			var d1s, d2s [][]int32
			for _, u := range cands {
				if cctx.D2Rows[u] != nil {
					continue
				}
				sources = append(sources, u)
				d1s = append(d1s, sssp.Distances(sp.G1, u))
				d2s = append(d2s, make([]int32, sp.G2.NumNodes()))
			}
			rows := len(sources)
			ts := []int32{1}
			if final > 1 {
				ts = append(ts, final)
			}
			for _, t := range ts {
				bound := func() int32 { return t }
				run := func(b *testing.B, derive func()) {
					before := sssp.SnapshotMetrics().PrunedBFS.Edges
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						derive()
					}
					b.StopTimer()
					perRow := float64(b.N * rows)
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perRow, "ns/row")
					b.ReportMetric(float64(sssp.SnapshotMetrics().PrunedBFS.Edges-before)/perRow, "edges/row")
				}
				b.Run(fmt.Sprintf("T=%d/per-source", t), func(b *testing.B) {
					s := sssp.NewScratch(sp.G2.NumNodes())
					run(b, func() {
						for i, src := range sources {
							sssp.PrunedSecondBFS(sp.G2, src, d1s[i], d2s[i], bound, s)
						}
					})
				})
				for _, share := range []int{rows, (rows + 1) / 2} {
					b.Run(fmt.Sprintf("T=%d/batch/share=%d", t, share), func(b *testing.B) {
						run(b, func() {
							for lo := 0; lo < rows; lo += share {
								hi := min(lo+share, rows)
								sssp.PrunedRowsInto(sp.G2, sources[lo:hi], d1s[lo:hi], d2s[lo:hi], t, 1)
							}
						})
					})
				}
			}
		})
	}
}
