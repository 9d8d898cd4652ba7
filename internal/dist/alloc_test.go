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
	if invariant.Enabled {
		t.Skip("CSR invariant assertions allocate; the bound holds for default builds")
	}
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop Puts at random; the bound rests on scratch reuse")
	}
	const n = 10000
	s := NewBFS(randomGraph(t, n, 4))
	sources := []int{0, 1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000}
	matrixBytes := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		DistanceMatrix(s, sources, 1)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// A collection between two calls can empty the scratch pool, so the
	// cheaper of two repeats is the one held to the bound.
	got := min(matrixBytes(), matrixBytes())
	if limit := uint64(12 * n * 4); got >= limit {
		t.Errorf("a %d-source DistanceMatrix allocated %d bytes (%.1f·n int32), want under %d (12·n int32)",
			len(sources), got, float64(got)/(4*n), limit)
	}
}
