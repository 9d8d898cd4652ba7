package sssp

import (
	"testing"

	"repro/internal/invariant"
)

// TestEngineNameRoundTrip pins that every engine name String() produces is
// accepted back by ParseEngine, and that the ParseEngine error enumerates
// every name (so -engine stays self-documenting as kernels are added).
func TestEngineNameRoundTrip(t *testing.T) {
	all := []Engine{Auto, TopDown, DirectionOpt, BitParallel64}
	if len(all) != len(EngineNames()) {
		t.Fatalf("EngineNames lists %d engines, test covers %d — keep both in sync", len(EngineNames()), len(all))
	}
	for _, e := range all {
		got, err := ParseEngine(e.String())
		if err != nil {
			t.Fatalf("ParseEngine(%q): %v", e.String(), err)
		}
		if got != e {
			t.Fatalf("ParseEngine(%q) = %v, want %v", e.String(), got, e)
		}
	}
	_, err := ParseEngine("nonsense")
	if err == nil {
		t.Fatal("ParseEngine(nonsense): expected error")
	}
	for _, name := range EngineNames() {
		if !containsStr(err.Error(), name) {
			t.Fatalf("ParseEngine error %q does not mention engine %q", err, name)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
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

// TestEnsureRowsGrowOnly is the regression test for the ensureRows thrash
// fix: alternating between graph sizes must not re-pay the row-block
// allocation once the largest size has been served.
func TestEnsureRowsGrowOnly(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant builds allocate in assertions; grow-only holds for default builds")
	}
	s := &Scratch{}
	_ = s.ensureRows(1000) // warm with the largest size
	sizes := []int{1000, 500, 7, 1000, 0, 999}
	allocs := testing.AllocsPerRun(20, func() {
		for _, n := range sizes {
			rows := s.ensureRows(n)
			if len(rows) != msBatchBits || len(rows[0]) != n {
				t.Fatalf("ensureRows(%d): got %d rows of len %d", n, len(rows), len(rows[0]))
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocs per alternating ensureRows cycle, want 0 (grow-only)", allocs)
	}
	// Rows must be disjoint, correctly sized views.
	rows := s.ensureRows(100)
	rows[0][99] = 7
	rows[1][0] = 9
	if rows[0][99] != 7 || rows[1][0] != 9 || &rows[0][99] == &rows[1][0] {
		t.Fatal("ensureRows rows alias each other")
	}
}
