package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/candidates"
	"repro/internal/graph"
)

// fuzzGrowingPair builds a snapshot pair from a seeded edge stream. The
// first size nodes split into comps parts (node v belongs to part v mod
// comps) that no edge ever joins; each part grows a random tree. A path of
// pathLen nodes hangs off node 0, then random chords inside each part follow
// (path nodes count as part 0), so late chords shortcut long paths and
// deltas run long. Nodes the G1 prefix has not reached are isolated there.
// G1 is the first frac of the stream, G2 all of it.
func fuzzGrowingPair(t *testing.T, seed int64, size, comps, pathLen int, frac float64) graph.SnapshotPair {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seen := map[graph.Edge]bool{}
	var stream []graph.TimedEdge
	add := func(u, v int) {
		e := graph.Edge{U: u, V: v}.Canon()
		if u == v || seen[e] {
			return
		}
		seen[e] = true
		stream = append(stream, graph.TimedEdge{U: u, V: v, Time: int64(len(stream))})
	}
	for v := comps; v < size; v++ {
		add(v, v%comps+comps*rng.Intn(v/comps))
	}
	for i, prev := 0, 0; i < pathLen; i++ {
		add(prev, size+i)
		prev = size + i
	}
	part := func(v int) int {
		if v >= size {
			return 0
		}
		return v % comps
	}
	for i := 0; i < size; i++ {
		u, v := rng.Intn(size+pathLen), rng.Intn(size+pathLen)
		if part(u) == part(v) {
			add(u, v)
		}
	}
	ev, err := graph.NewEvolving(stream)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ev.Pair(frac, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// FuzzTopKOracle checks extraction against the exact oracle on random
// growing pairs with disconnected parts, long paths and isolated nodes: a
// selector from {Degree, DegDiff, MMSD, SumDiff}, a top-K query with
// k in [1, 50] (pruned: rising threshold, landmark skips, bounded t2 rows
// and the emission cut) or a δ query with δ in [1, 6] (full rows), at one
// and at three workers. Both runs must return exactly exactExtraction's
// pairs over the same candidates.
func FuzzTopKOracle(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(2), uint8(20), uint8(70), uint8(2), uint8(18), uint8(19))
	f.Add(int64(7), uint8(30), uint8(1), uint8(0), uint8(50), uint8(0), uint8(5), uint8(3))
	f.Add(int64(42), uint8(90), uint8(4), uint8(31), uint8(90), uint8(1), uint8(25), uint8(98))
	f.Add(int64(-5), uint8(12), uint8(3), uint8(9), uint8(60), uint8(3), uint8(29), uint8(11))
	f.Fuzz(func(t *testing.T, seed int64, sizeB, compsB, pathB, fracB, selB, mB, queryB uint8) {
		sp := fuzzGrowingPair(t, seed, int(sizeB)%90+8, int(compsB)%4+1, int(pathB)%32,
			0.5+float64(fracB%41)/100)
		selName := []string{"Degree", "DegDiff", "MMSD", "SumDiff"}[selB%4]
		sel, err := candidates.ByName(selName)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Selector: sel, M: int(mB)%26 + 5, L: 4, Seed: seed} // landmark selectors need m > l
		if queryB%2 == 0 {
			opts.K = int(queryB/2)%50 + 1
		} else {
			opts.MinDelta = int32(queryB/2)%6 + 1
		}
		var first *Result
		for _, workers := range []int{1, 3} {
			opts.Workers = workers
			res, err := TopK(sp, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s m=%d k=%d delta=%d workers=%d", selName, opts.M, opts.K, opts.MinDelta, workers)
			requireExact(t, label, sp, opts, res)
			if first == nil {
				first = res
			} else if !reflect.DeepEqual(first.Candidates, res.Candidates) {
				t.Errorf("%s: candidates %v, one worker chose %v", label, res.Candidates, first.Candidates)
			}
		}
	})
}
