package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/candidates"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sssp"
)

// TestPhaseHistogramsMatchSpanCounts ties the two latency views together:
// every phase span a traced run emits must land exactly one observation in
// the matching core.phase_ns histogram, so a /metrics scrape and a trace
// file agree on how many times each phase ran.
func TestPhaseHistogramsMatchSpanCounts(t *testing.T) {
	sp := growingPair(t, 120, 33)
	tr := obs.New("telemetry-test")
	before := PhaseLatencies()
	const runs = 3
	for i := 0; i < runs; i++ {
		if _, err := TopK(sp, Options{
			Selector: candidates.MMSD(), M: 15, L: 4, K: 5, Seed: int64(i), Trace: tr,
		}); err != nil {
			t.Fatal(err)
		}
	}
	after := PhaseLatencies()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export: %v", err)
	}
	spanCount := map[string]int64{}
	for _, e := range doc.TraceEvents {
		if e.Phase == "X" {
			spanCount[e.Name]++
		}
	}

	for phase, span := range map[string]string{
		"selection":  "selection",
		"extraction": "extraction",
		"sort-cut":   "sort-cut",
		"total":      "algorithm1",
	} {
		d := after[phase].Sub(before[phase])
		if d.Count != runs {
			t.Errorf("phase %s histogram _count delta = %d, want %d", phase, d.Count, runs)
		}
		if spanCount[span] != d.Count {
			t.Errorf("phase %s: %d spans traced but %d histogram observations", phase, spanCount[span], d.Count)
		}
		if d.Count > 0 && d.Sum <= 0 {
			t.Errorf("phase %s observed %d samples with non-positive total %d ns", phase, d.Count, d.Sum)
		}
	}
}

// TestFlightRecordMatchesBudgetReport: the newest flight record of a run
// must carry the meter's report bit-for-bit, plus the outcome sizes.
func TestFlightRecordMatchesBudgetReport(t *testing.T) {
	sp := growingPair(t, 150, 7)
	meter := budget.NewMeter(20)
	totalBefore := obs.Flight.Total()
	res, err := TopK(sp, Options{
		Selector: candidates.MMSD(), M: 20, L: 5, K: 10, Meter: meter,
	})
	if err != nil {
		t.Fatal(err)
	}
	if obs.Flight.Total() != totalBefore+1 {
		t.Fatalf("run appended %d flight records, want 1", obs.Flight.Total()-totalBefore)
	}
	rec := obs.Flight.Last(1)[0]
	if rec.Kind != "topk" {
		t.Errorf("Kind = %q, want topk", rec.Kind)
	}
	rep := meter.Report()
	want := obs.BudgetSplit{Limit: rep.Limit, CandidateGen: rep.CandidateGen, TopK: rep.TopK}
	if rec.Budget != want {
		t.Errorf("flight budget %+v != meter report %+v", rec.Budget, want)
	}
	if rec.Budget != (obs.BudgetSplit{Limit: res.Budget.Limit, CandidateGen: res.Budget.CandidateGen, TopK: res.Budget.TopK}) {
		t.Errorf("flight budget %+v != result budget %+v", rec.Budget, res.Budget)
	}
	if rec.Candidates != len(res.Candidates) || rec.Pairs != len(res.Pairs) {
		t.Errorf("flight sizes %d/%d, result %d/%d", rec.Candidates, rec.Pairs, len(res.Candidates), len(res.Pairs))
	}
	if rec.Outcome != "ok" {
		t.Errorf("Outcome = %q, want ok", rec.Outcome)
	}
	if !strings.Contains(rec.Fingerprint, "selector=MMSD") || !strings.Contains(rec.Fingerprint, "m=20") {
		t.Errorf("fingerprint %q missing selector/m", rec.Fingerprint)
	}
	if rec.Phases.Total <= 0 {
		t.Errorf("Phases.Total = %d, want > 0", rec.Phases.Total)
	}
	if sum := rec.Phases.Selection + rec.Phases.Extraction + rec.Phases.SortCut; sum > rec.Phases.Total {
		t.Errorf("phase sum %d exceeds total %d", sum, rec.Phases.Total)
	}
	if rec.Kernels.Calls <= 0 || rec.Kernels.Edges <= 0 {
		t.Errorf("kernel delta empty: %+v (MMSD runs BFS)", rec.Kernels)
	}
	if rec.UnixNano == 0 || rec.Seq != totalBefore {
		t.Errorf("record not stamped: seq=%d unixnano=%d", rec.Seq, rec.UnixNano)
	}
}

// TestResultPhasesTotal: a query's Result.Phases.Total is the measurement
// its flight record carries, positive and at least the sum of the other
// three phases, on a cold run and on a warm hit alike.
func TestResultPhasesTotal(t *testing.T) {
	sess, err := NewSession(growingPair(t, 150, 7))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Selector: candidates.MMSD(), M: 20, L: 5, K: 10, Warm: candidates.NewWarm()}
	for _, run := range []string{"cold", "warm"} {
		res, err := sess.TopK(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		ph := res.Phases
		if ph.Total <= 0 || ph.Total < ph.Selection+ph.Extraction+ph.SortCut {
			t.Errorf("%s: Phases = %+v, want a positive Total of at least the other three", run, ph)
		}
		if rec := obs.Flight.Last(1)[0]; rec.Phases != ph {
			t.Errorf("%s: flight record phases %+v, result phases %+v", run, rec.Phases, ph)
		}
	}
}

// TestFlightRecordsFailedRun: a run that dies mid-flight (budget exhaustion
// in extraction) still leaves a record, with the error text as the outcome.
func TestFlightRecordsFailedRun(t *testing.T) {
	sp := growingPair(t, 80, 9)
	totalBefore := obs.Flight.Total()
	_, err := TopK(sp, Options{
		Selector: candidates.Degree(), M: 10, K: 5,
		Meter: budget.NewMeter(1), // too small for extraction's 2-per-candidate charge
	})
	if err == nil {
		t.Fatal("expected budget exhaustion")
	}
	if obs.Flight.Total() != totalBefore+1 {
		t.Fatalf("failed run appended %d records, want 1", obs.Flight.Total()-totalBefore)
	}
	rec := obs.Flight.Last(1)[0]
	if rec.Outcome == "ok" || !strings.Contains(rec.Outcome, "extraction") {
		t.Errorf("Outcome = %q, want the extraction budget error", rec.Outcome)
	}
	if rec.Pairs != 0 || rec.Candidates != 0 {
		t.Errorf("failed run reports sizes %d/%d, want 0/0", rec.Candidates, rec.Pairs)
	}
}

// TestFlightRecordNamesSessionKernel: the fingerprint names the kernel
// family the session's sources run, engine=bfs for a BFS session and
// engine=dijkstra for a Dijkstra one, and the extraction worker count the
// query resolved: a request for 0 (GOMAXPROCS) or for more workers than
// candidates records the count that ran.
func TestFlightRecordNamesSessionKernel(t *testing.T) {
	sp := growingPair(t, 80, 21)
	bfs, err := NewSession(sp)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := NewSessionSources(dist.DijkstraPair(graph.FromUnweighted(sp.G1), graph.FromUnweighted(sp.G2)))
	if err != nil {
		t.Fatal(err)
	}
	for want, sess := range map[string]*Session{"engine=bfs": bfs, "engine=dijkstra": weighted} {
		for _, requested := range []int{0, 8} {
			opts := Options{Selector: candidates.Degree(), M: 5, K: 3, Workers: requested, Meter: budget.NewMeter(5)}
			res, err := sess.TopK(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			fp := obs.Flight.Last(1)[0].Fingerprint
			if !strings.Contains(fp, want) {
				t.Errorf("fingerprint %q, want %s", fp, want)
			}
			workers := fmt.Sprintf(" workers=%d", sssp.ClampWorkers(requested, len(res.Candidates)))
			if !strings.HasSuffix(fp, workers) {
				t.Errorf("requested %d workers for %d candidates: fingerprint %q, want%s",
					requested, len(res.Candidates), fp, workers)
			}
		}
	}
}

// TestFlightRecordShowsBoundedDirection: on a Facebook-shaped graph (one
// small-diameter component, datagen at n=500) a top-K query's bounded t2
// legs run some levels bottom-up, and so does the one 19-lane batch that
// sweeps its MaxMin picks' rows at one worker; its flight record says how
// many, and /metrics exposes both kernels' direction counters. After its
// two seed rows, the query's last 18 t2 rows run as one batched round,
// which the record's pruned_t2_batched shows.
func TestFlightRecordShowsBoundedDirection(t *testing.T) {
	ev, err := datagen.ByName("Facebook", datagen.Config{Seed: 1, Scale: 500.0 / 4700})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ev.Pair(0.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TopK(sp, Options{Selector: candidates.MaxMin(), M: 20, K: 10, Seed: 1, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	rec := obs.Flight.Last(1)[0]
	if rec.PrunedT2Batched != 18 {
		t.Errorf("flight record pruned_t2_batched = %d, want the 18 rows after the two seed rows", rec.PrunedT2Batched)
	}
	k := rec.Kernels
	if k.PrunedBFSCalls == 0 || k.PrunedBFSBottomUpSteps == 0 {
		t.Errorf("flight record prunedbfs_calls = %d, prunedbfs_bottomup_steps = %d, want both > 0",
			k.PrunedBFSCalls, k.PrunedBFSBottomUpSteps)
	}
	if k.BitParallel64BottomUpSteps == 0 {
		t.Errorf("flight record bitparallel64_bottomup_steps = 0, want > 0")
	}
	var buf bytes.Buffer
	if err := obs.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"sssp.prunedbfs_topdown_steps", "sssp.prunedbfs_bottomup_steps", "sssp.prunedbfs_switches",
		"sssp.bitparallel64.topdown_steps", "sssp.bitparallel64.bottomup_steps", "sssp.bitparallel64.switches",
	} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("/metrics is missing %s", name)
		}
	}
}
