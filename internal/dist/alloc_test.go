package dist

import (
	"runtime"
	"testing"

	"repro/internal/invariant"
)

// TestDistanceMatrixAllocatesOnlyItsRows: DistanceMatrix sweeps straight
// into the rows it returns, so a one-worker 10-source matrix on 10,000
// nodes allocates its 10 rows and little else: under 12·n int32. A sweep
// into a per-worker row block followed by a copy of every row allocates
// about 20·n.
func TestDistanceMatrixAllocatesOnlyItsRows(t *testing.T) {
	s, sources := allocFixture(t, 10)
	got := leastAlloc(func() { DistanceMatrix(s, sources, 1) })
	if limit := uint64(12 * allocN * 4); got >= limit {
		t.Errorf("a %d-source DistanceMatrix allocated %d bytes (%.1f·n int32), want under %d (12·n int32)",
			len(sources), got, float64(got)/(4*allocN), limit)
	}
}

// TestRowsIntoAllocatesNoRow: a BFS RowsInto writes the caller's rows, so
// on 10,000 nodes it allocates less than one row (n int32), per source (10
// sources at one worker) and batched (20 sources at one worker, one
// 20-lane batch).
func TestRowsIntoAllocatesNoRow(t *testing.T) {
	for _, count := range []int{10, 20} {
		s, sources := allocFixture(t, count)
		rows := make([][]int32, len(sources))
		for i := range rows {
			rows[i] = make([]int32, allocN)
		}
		got := leastAlloc(func() { RowsInto(s, sources, rows, 1) })
		if limit := uint64(allocN * 4); got >= limit {
			t.Errorf("a %d-source RowsInto allocated %d bytes (%.2f·n int32), want under %d (one row)",
				len(sources), got, float64(got)/(4*allocN), limit)
		}
	}
}

const allocN = 10000

// allocFixture skips builds whose bounds cannot hold and returns a BFS
// source on allocN nodes with count spread sources.
func allocFixture(t *testing.T, count int) (Source, []int) {
	t.Helper()
	if invariant.Enabled {
		t.Skip("CSR invariant assertions allocate; the bound holds for default builds")
	}
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop Puts at random; the bound rests on scratch reuse")
	}
	sources := make([]int, count)
	for i := range sources {
		sources[i] = i * (allocN / count)
	}
	return NewBFS(randomGraph(t, allocN, 4)), sources
}

// leastAlloc returns the bytes the cheaper of two calls of f allocated: a
// collection between two calls can empty the scratch pool.
func leastAlloc(f func()) uint64 {
	once := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	return min(once(), once())
}
