package weighted

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/sssp"
)

// TestTraceMatchesBudgetReportWeighted mirrors the core package's trace
// contract on the weighted pipeline: the unified run emits the same phase
// spans, and every Dijkstra the meter charges is attributed to the phase
// executing when it was spent, so traced per-phase totals equal the budget
// report. On top of the unweighted mirror it also cross-checks the kernel
// metrics: each budget unit corresponds to exactly one Dijkstra kernel call,
// so the run's kernel-call delta must equal the report's total.
func TestTraceMatchesBudgetReportWeighted(t *testing.T) {
	sp := unitWeightPair(growingPair(t, 150, 21))
	tr := obs.New("weighted-test")
	before := sssp.SnapshotMetrics()
	res, err := TopK(sp, Options{
		Selector: SelMMSD, M: 20, L: 5, K: 10, Workers: 2, Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	work := sssp.SnapshotMetrics().Sub(before)

	byPhase := tr.SSSPByPhase()
	if got := byPhase["candidate-generation"]; got != res.Budget.CandidateGen {
		t.Errorf("traced candidate-generation = %d, budget report = %d", got, res.Budget.CandidateGen)
	}
	if got := byPhase["top-k-extraction"]; got != res.Budget.TopK {
		t.Errorf("traced top-k-extraction = %d, budget report = %d", got, res.Budget.TopK)
	}
	if res.Budget.Total() == 0 {
		t.Fatal("run spent no budget; the test is vacuous")
	}

	// Kernel attribution: the weighted pipeline computes distances with the
	// Dijkstra kernel only, one call per charged SSSP (landmark sets have
	// unique nodes and extraction rows are charged per cache miss).
	if work.Dijkstra.Calls != int64(res.Budget.Total()) {
		t.Errorf("Dijkstra kernel calls = %d, budget total = %d",
			work.Dijkstra.Calls, res.Budget.Total())
	}
	if work.Dijkstra.Sources != work.Dijkstra.Calls {
		t.Errorf("Dijkstra sources = %d, calls = %d", work.Dijkstra.Sources, work.Dijkstra.Calls)
	}
	if work.Dijkstra.Edges == 0 || work.Dijkstra.Nodes == 0 || work.Dijkstra.FrontierPeak == 0 {
		t.Errorf("Dijkstra kernel counters look dead: %+v", work.Dijkstra)
	}
	// No BFS kernel may run during a weighted-only pipeline. (Other tests
	// run in parallel only across packages, so the process-global counters
	// are stable within this test binary run.)
	if bfs := work.DirectionOpt.Calls + work.BitParallel64.Calls + work.Envelope.Calls; bfs != 0 {
		t.Errorf("weighted run executed %d BFS kernel calls", bfs)
	}

	// The exported Chrome document must parse and contain the same phase
	// spans as the unweighted pipeline — one algorithm, one trace shape.
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
		Metadata struct {
			SSSPByPhase map[string]int `json:"sssp-by-phase"`
		} `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	spans := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Phase == "X" {
			spans[e.Name] = true
		}
	}
	for _, want := range []string{"algorithm1", "selection", "extraction", "sort-cut"} {
		if !spans[want] {
			t.Errorf("Chrome export is missing the %q span (have %v)", want, spans)
		}
	}
	if doc.Metadata.SSSPByPhase["candidate-generation"] != res.Budget.CandidateGen {
		t.Errorf("metadata sssp-by-phase = %v, want candidate-generation=%d",
			doc.Metadata.SSSPByPhase, res.Budget.CandidateGen)
	}
}
