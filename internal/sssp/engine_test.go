package sssp

import (
	"testing"

	"repro/internal/graph"
)

// TestSweepKernelPolicy pins the one kernel policy of the multi-source
// drivers, which is picked per worker share: at w workers, a sweep of
// w·(msShareThreshold−1) sources gives each worker a share below the
// threshold, runs dirOptBFS once per source and never touches the batch
// kernel; a sweep of w·msShareThreshold sources runs w bitparallel64
// batches of msShareThreshold lanes each and no per-source BFS. Both
// drivers and RowsInto share the rule.
func TestSweepKernelPolicy(t *testing.T) {
	g := graph.FromEdges(12, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5},
		{U: 5, V: 6}, {U: 6, V: 7}, {U: 7, V: 8}, {U: 8, V: 9}, {U: 9, V: 10},
	})
	sourcesOf := func(count int) []int {
		sources := make([]int, count)
		for i := range sources {
			sources[i] = i % g.NumNodes() // repeats, and isolated node 11
		}
		return sources
	}
	for _, workers := range []int{1, 2, 4} {
		below := sourcesOf(workers * (msShareThreshold - 1))
		at := sourcesOf(workers * msShareThreshold)
		for _, driver := range []string{"AllSourcesFunc", "PairedSourcesFunc", "RowsInto"} {
			sweep := func(sources []int) MetricsSnapshot {
				before := SnapshotMetrics()
				switch driver {
				case "AllSourcesFunc":
					AllSourcesFunc(g, sources, workers, func(int, []int32) {})
				case "PairedSourcesFunc":
					PairedSourcesFunc(g, g, sources, workers, func(int, []int32, []int32) {})
				default:
					RowsInto(g, sources, newRows(len(sources), g.NumNodes()), workers)
				}
				return SnapshotMetrics().Sub(before)
			}
			legs := int64(1)
			if driver == "PairedSourcesFunc" {
				legs = 2
			}
			d := sweep(below)
			if d.DirectionOpt.Calls != legs*int64(len(below)) || d.BitParallel64.Calls != 0 {
				t.Fatalf("%s workers %d: %d sources ran %d diropt and %d bitparallel64 calls, want %d and 0",
					driver, workers, len(below), d.DirectionOpt.Calls, d.BitParallel64.Calls, legs*int64(len(below)))
			}
			d = sweep(at)
			wantBatches := legs * int64(workers)
			if d.BitParallel64.Calls != wantBatches || d.BitParallel64.Sources != legs*int64(len(at)) || d.DirectionOpt.Calls != 0 {
				t.Fatalf("%s workers %d: %d sources ran %d bitparallel64 batches over %d sources and %d diropt calls, want %d over %d and 0",
					driver, workers, len(at), d.BitParallel64.Calls, d.BitParallel64.Sources, d.DirectionOpt.Calls, wantBatches, legs*int64(len(at)))
			}
		}
	}
}

// TestClampWorkers is the table test for the one shared worker-clamping rule
// (satellite of the dedup across topk/dist/core).
func TestClampWorkers(t *testing.T) {
	cases := []struct {
		workers, jobs, wantMin, wantMax int
	}{
		{workers: 4, jobs: 10, wantMin: 4, wantMax: 4},
		{workers: 4, jobs: 2, wantMin: 2, wantMax: 2},
		{workers: 1, jobs: 100, wantMin: 1, wantMax: 1},
		{workers: 7, jobs: 7, wantMin: 7, wantMax: 7},
		// jobs == 0 floors at 1 so pool loops still terminate.
		{workers: 4, jobs: 0, wantMin: 1, wantMax: 1},
		{workers: -3, jobs: 0, wantMin: 1, wantMax: 1},
		// workers <= 0 resolves to GOMAXPROCS, then caps at jobs.
		{workers: 0, jobs: 1, wantMin: 1, wantMax: 1},
		{workers: -1, jobs: 2, wantMin: 1, wantMax: 2},
		{workers: 0, jobs: 1 << 30, wantMin: 1, wantMax: 1 << 30},
	}
	for _, c := range cases {
		got := ClampWorkers(c.workers, c.jobs)
		if got < c.wantMin || got > c.wantMax {
			t.Errorf("ClampWorkers(%d, %d) = %d, want in [%d, %d]",
				c.workers, c.jobs, got, c.wantMin, c.wantMax)
		}
	}
}
