package monitor

import (
	"math/rand"
	"testing"

	"repro/internal/candidates"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/obs"
	"repro/internal/sssp"
)

func growingStream(t testing.TB, n int, seed int64) *graph.Evolving {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seen := map[graph.Edge]struct{}{}
	var stream []graph.TimedEdge
	add := func(u, v int) {
		if u == v {
			return
		}
		c := graph.Edge{U: u, V: v}.Canon()
		if _, dup := seen[c]; dup {
			return
		}
		seen[c] = struct{}{}
		stream = append(stream, graph.TimedEdge{U: u, V: v, Time: int64(len(stream))})
	}
	for i := 1; i < n; i++ {
		add(i, rng.Intn(i))
		if i > 2 && rng.Intn(3) == 0 {
			add(i, rng.Intn(i))
		}
	}
	ev, err := graph.NewEvolving(stream)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestWatchValidation(t *testing.T) {
	ev := growingStream(t, 50, 1)
	sel := candidates.MaxAvg()
	if _, err := Watch(ev, []float64{0.5, 1}, Config{M: 5}); err == nil {
		t.Error("missing selector should fail")
	}
	if _, err := Watch(ev, []float64{0.5, 1}, Config{Selector: sel}); err == nil {
		t.Error("missing budget should fail")
	}
	if _, err := Watch(ev, []float64{0.5}, Config{Selector: sel, M: 5}); err == nil {
		t.Error("single fraction should fail")
	}
	if _, err := Watch(ev, []float64{0.9, 0.5}, Config{Selector: sel, M: 5}); err == nil {
		t.Error("descending fractions should fail")
	}
}

func TestWatchWindows(t *testing.T) {
	ev := growingStream(t, 120, 2)
	reports, err := Watch(ev, []float64{0.6, 0.8, 1.0}, Config{
		Selector: candidates.MMSD(), M: 15, L: 4, MinDelta: 1, Seed: 3, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, rep := range reports {
		if rep.NewEdges <= 0 {
			t.Fatalf("window [%v,%v] has %d new edges", rep.StartFrac, rep.EndFrac, rep.NewEdges)
		}
		if rep.Budget.Total() > 2*15 {
			t.Fatalf("window overspent: %v", rep.Budget)
		}
		for _, p := range rep.Pairs {
			if p.Delta < 1 {
				t.Fatalf("pair below MinDelta: %v", p)
			}
		}
	}
}

// TestWatchMinDeltaDefault pins the documented default: MinDelta 0 means 2
// (distance drops of 1 are usually noise), so a zero-value config behaves
// exactly like an explicit MinDelta: 2 and never reports Δ=1 pairs.
func TestWatchMinDeltaDefault(t *testing.T) {
	ev := growingStream(t, 200, 8)
	fractions := []float64{0.6, 0.8, 1.0}
	cfg := Config{Selector: candidates.MMSD(), M: 20, L: 4, Seed: 3, Workers: 2}
	defaulted, err := Watch(ev, fractions, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MinDelta = 2
	explicit, err := Watch(ev, fractions, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(defaulted) != len(explicit) {
		t.Fatalf("window counts differ: %d vs %d", len(defaulted), len(explicit))
	}
	for i := range defaulted {
		dp, ep := defaulted[i].Pairs, explicit[i].Pairs
		if len(dp) != len(ep) {
			t.Fatalf("window %d: default MinDelta found %d pairs, explicit 2 found %d", i, len(dp), len(ep))
		}
		for j := range dp {
			if dp[j] != ep[j] {
				t.Fatalf("window %d pair %d: %v vs %v", i, j, dp[j], ep[j])
			}
			if dp[j].Delta < 2 {
				t.Fatalf("window %d reported Δ=%d pair %v under the default threshold", i, dp[j].Delta, dp[j])
			}
		}
	}
}

func TestEvenWindows(t *testing.T) {
	ws := EvenWindows(0.6, 4)
	if len(ws) != 5 || ws[0] != 0.6 || ws[4] != 1 {
		t.Fatalf("EvenWindows = %v", ws)
	}
	if EvenWindows(1.2, 3) != nil || EvenWindows(0.5, 0) != nil {
		t.Fatal("invalid inputs should return nil")
	}
}

func TestLandmarkTrackerMatchesFreshBFS(t *testing.T) {
	ev := growingStream(t, 150, 4)
	start := ev.NumEdges() * 7 / 10
	g1 := ev.SnapshotPrefix(start)
	set, err := landmark.Select(landmark.MaxMin, g1, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewLandmarkTracker(ev, set.Nodes, start)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AdvanceToFraction(1.0); err != nil {
		t.Fatal(err)
	}
	// The tracker's vectors must equal fresh BFS on the full graph.
	g2 := ev.SnapshotFraction(1.0)
	for i, w := range set.Nodes {
		want := sssp.Distances(g2, w)
		got := tr.Distances(i)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("landmark %d: dist[%d] = %d, want %d", w, v, got[v], want[v])
			}
		}
	}
	if tr.Prefix() != ev.NumEdges() {
		t.Fatalf("prefix = %d", tr.Prefix())
	}
	if err := tr.AdvanceTo(0); err == nil {
		t.Fatal("rewind should fail")
	}
}

func TestLandmarkTrackerTopMatchesSumDiff(t *testing.T) {
	ev := growingStream(t, 150, 5)
	start := ev.NumEdges() * 8 / 10
	g1 := ev.SnapshotPrefix(start)
	g2 := ev.SnapshotFraction(1.0)
	set, err := landmark.Select(landmark.MaxMin, g1, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewLandmarkTracker(ev, set.Nodes, start)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AdvanceToFraction(1.0); err != nil {
		t.Fatal(err)
	}
	got := tr.Top(10)

	// Reference: the offline SumDiff ranking over the same landmarks.
	norms, err := landmark.ComputeNorms(landmark.Set{Strategy: set.Strategy, Nodes: set.Nodes},
		graph.SnapshotPair{G1: g1, G2: g2}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := landmark.TopByScore(norms.L1, 10, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("streaming Top = %v, offline SumDiff = %v", got, want)
		}
	}
}

func TestLandmarkTrackerCheckpoint(t *testing.T) {
	ev := growingStream(t, 120, 6)
	half := ev.NumEdges() / 2
	tr, err := NewLandmarkTracker(ev, []int{0, 1}, half)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AdvanceToFraction(0.75); err != nil {
		t.Fatal(err)
	}
	tr.Checkpoint() // new baseline at 75%
	if err := tr.AdvanceToFraction(1.0); err != nil {
		t.Fatal(err)
	}
	top := tr.Top(5)
	if len(top) != 5 {
		t.Fatalf("top = %v", top)
	}
	if saved := tr.SSSPCostSaved(10); saved != 10*2*2-2 {
		t.Fatalf("SSSPCostSaved = %d", saved)
	}
}

// TestLandmarkTrackerMultiEdgeWindows advances through several windows of
// many edges each and checks, after every window, that the batch repair left
// each landmark vector bit-identical to a fresh BFS on that prefix — the
// property the ApplyAll refactor must preserve per window, not just at the
// end of the stream — and that the cumulative repair stats reflect the work.
func TestLandmarkTrackerMultiEdgeWindows(t *testing.T) {
	ev := growingStream(t, 200, 9)
	start := ev.NumEdges() / 2
	landmarks := []int{0, 3, 7}
	tr, err := NewLandmarkTracker(ev, landmarks, start)
	if err != nil {
		t.Fatal(err)
	}
	step := (ev.NumEdges() - start) / 4
	if step < 2 {
		t.Fatalf("stream too short for multi-edge windows: %d edges", ev.NumEdges())
	}
	for prefix := start + step; prefix <= ev.NumEdges(); prefix += step {
		if err := tr.AdvanceTo(prefix); err != nil {
			t.Fatal(err)
		}
		g := ev.SnapshotPrefix(tr.Prefix())
		for i, w := range landmarks {
			want := sssp.Distances(g, w)
			got := tr.Distances(i)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("prefix %d landmark %d: dist[%d] = %d, want %d",
						prefix, w, v, got[v], want[v])
				}
			}
		}
	}
	if err := tr.AdvanceTo(ev.NumEdges()); err != nil {
		t.Fatal(err)
	}
	st := tr.RepairStats()
	if st.Changed == 0 || st.Nodes == 0 || st.FrontierPeak == 0 {
		t.Fatalf("repair stats should be non-zero after multi-edge windows: %+v", st)
	}
}

func TestLandmarkTrackerValidation(t *testing.T) {
	ev := growingStream(t, 50, 7)
	if _, err := NewLandmarkTracker(ev, nil, 10); err == nil {
		t.Fatal("no landmarks should fail")
	}
	if _, err := NewLandmarkTracker(ev, []int{9999}, 10); err == nil {
		t.Fatal("out-of-range landmark should fail")
	}
}

// TestWatchWindowTelemetry: every window of a Watch leaves one
// "watch-window" flight record (the nested TopK adds its own "topk" record)
// and one monitor.window_ns histogram observation carrying the window's
// budget report.
func TestWatchWindowTelemetry(t *testing.T) {
	ev := growingStream(t, 120, 5)
	histBefore := windowNS.Snapshot()
	totalBefore := obs.Flight.Total()
	reports, err := Watch(ev, []float64{0.6, 0.8, 1.0}, Config{
		Selector: candidates.MMSD(), M: 15, L: 4, MinDelta: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := windowNS.Snapshot().Sub(histBefore); d.Count != int64(len(reports)) {
		t.Errorf("window_ns delta count = %d, want %d", d.Count, len(reports))
	}
	appended := obs.Flight.Total() - totalBefore
	if appended != 2*int64(len(reports)) {
		t.Fatalf("watch appended %d flight records, want %d (one watch-window + one topk per window)",
			appended, 2*len(reports))
	}
	recs := obs.Flight.Last(int(appended))
	var windows []obs.RunRecord
	for _, r := range recs {
		if r.Kind == "watch-window" {
			windows = append(windows, r)
		}
	}
	if len(windows) != len(reports) {
		t.Fatalf("%d watch-window records, want %d", len(windows), len(reports))
	}
	for i, rec := range windows {
		rep := reports[i]
		want := obs.BudgetSplit{Limit: rep.Budget.Limit, CandidateGen: rep.Budget.CandidateGen, TopK: rep.Budget.TopK}
		if rec.Budget != want {
			t.Errorf("window %d flight budget %+v != report %+v", i, rec.Budget, want)
		}
		if rec.Outcome != "ok" || rec.Pairs != len(rep.Pairs) {
			t.Errorf("window %d record = outcome %q pairs %d, want ok/%d", i, rec.Outcome, rec.Pairs, len(rep.Pairs))
		}
		if rec.Phases.Total <= 0 {
			t.Errorf("window %d has non-positive total %d", i, rec.Phases.Total)
		}
	}
}
