package core

import (
	"fmt"
	"testing"

	"repro/internal/candidates"
	"repro/internal/datagen"
	"repro/internal/graph"
)

// datagenPair is datagen's dataset stream (seed 1) at the given node
// count, as the pair of its snapshots at 80% and 100% of its edges: the
// split the served workloads query.
func datagenPair(t testing.TB, dataset string, nodes int) graph.SnapshotPair {
	t.Helper()
	paperNodes := map[string]float64{"DBLP": 18000, "Facebook": 4700}[dataset]
	ev, err := datagen.ByName(dataset, datagen.Config{Seed: 1, Scale: float64(nodes) / paperNodes})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ev.Pair(0.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSchedulesAgree runs each query on both extraction schedules, the
// per-candidate loop and the batched round at T1, through the unexported
// schedule hook: Pairs, Candidates and the budget report must be
// identical, and on the fuzzGrowingPair graphs equal to the exact oracle.
// The graphs are fuzzGrowingPair pairs (disconnected parts, long paths,
// isolated nodes) and small datagen DBLP and Facebook pairs; the queries
// are top-K (k = 1, 10, 60) and δ queries over landmark and plain
// selectors, at one worker and three. Some batched run must have derived
// its rows in a sweep, so the comparison is not vacuous.
func TestSchedulesAgree(t *testing.T) {
	type pairCase struct {
		name   string
		sp     graph.SnapshotPair
		oracle bool
	}
	cases := []pairCase{
		{"growing/s1", fuzzGrowingPair(t, 1, 90, 2, 20, 0.7), true},
		{"growing/s7", fuzzGrowingPair(t, 7, 60, 1, 0, 0.5), true},
		{"growing/s42", fuzzGrowingPair(t, 42, 80, 4, 31, 0.9), true},
		{"DBLP/n=1000", datagenPair(t, "DBLP", 1000), false},
		{"Facebook/n=500", datagenPair(t, "Facebook", 500), false},
	}
	batched := 0
	for _, c := range cases {
		for _, selName := range []string{"Degree", "MMSD", "SumDiff", "MaxMin"} {
			sel, err := candidates.ByName(selName)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []struct {
				k     int
				delta int32
			}{{1, 0}, {10, 0}, {60, 0}, {0, 2}} {
				for _, workers := range []int{1, 3} {
					opts := Options{Selector: sel, M: 40, L: 4, K: q.k, MinDelta: q.delta, Seed: 3, Workers: workers}
					label := fmt.Sprintf("%s/%s/k=%d/delta=%d/workers=%d", c.name, selName, q.k, q.delta, workers)
					opts.schedule = schedulePerCandidate
					perCand, err := TopK(c.sp, opts)
					if err != nil {
						t.Fatal(err)
					}
					if perCand.Pruned.T2Batched != 0 {
						t.Fatalf("%s: the per-candidate schedule batched %d rows", label, perCand.Pruned.T2Batched)
					}
					opts.schedule = scheduleBatched
					batch, err := TopK(c.sp, opts)
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, label, perCand, batch)
					if c.oracle {
						requireExact(t, label, c.sp, opts, batch)
					}
					if batch.Pruned.T2Batched > 0 {
						batched++
					}
				}
			}
		}
	}
	if batched == 0 {
		t.Fatal("no query derived its rest's rows in a batched sweep")
	}
}

// TestScheduleRule pins the batch rule on the served shapes, datagen DBLP
// n=10k under MMSD (m=50, l=10, k=10) and Facebook n=4,700 under MaxMin
// (m=50, k=10), G_t1 at 80% against G_t2 at 100%, at one worker and two:
// the Facebook query batches the rows after its seed round, and the DBLP
// query does not. Both selectors pick their landmarks or candidates by
// MaxMin dispersion, which reads no seed. On these graphs Facebook's two
// seed rows keep 0.75 of the nodes they reach within their depth limit at
// T1 = 2, and DBLP's 0.01 at T1 = 14, under the rule's half
// (EXPERIMENTS.md, "Why bounded t2 rows batch only when they cover their
// component").
func TestScheduleRule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the served n=10k DBLP shape")
	}
	shapes := []struct {
		dataset, selector string
		nodes             int
		batch             bool
	}{
		{"DBLP", "MMSD", 10000, false},
		{"Facebook", "MaxMin", 4700, true},
	}
	for _, sh := range shapes {
		sp := datagenPair(t, sh.dataset, sh.nodes)
		sel, err := candidates.ByName(sh.selector)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			opts := Options{Selector: sel, M: 50, L: 10, K: 10, Seed: 1, Workers: workers}
			res, err := TopK(sp, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Pruned.T2Batched > 0; got != sh.batch {
				t.Errorf("%s %s workers %d: batched %d rows after %d seed rows, want batched = %v",
					sh.dataset, sh.selector, workers, res.Pruned.T2Batched, max(2, workers), sh.batch)
			}
		}
	}
}
