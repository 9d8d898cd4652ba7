package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/candidates"
	"repro/internal/obs"
)

// TestTraceMatchesBudgetReport is the observability layer's core contract:
// every SSSP the meter charges is attributed to the span of the phase that
// spent it, so the trace's per-phase totals and the run's budget report are
// two views of the same spending. The extraction span reports the t1 rows
// its sweep produced.
func TestTraceMatchesBudgetReport(t *testing.T) {
	sp := growingPair(t, 150, 21)
	tr := obs.New("core-test")
	res, err := TopK(sp, Options{
		Selector: candidates.MMSD(), M: 20, L: 5, K: 10, Workers: 2, Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
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
	// MMSD caches rows in (d1, d2) pairs, and an uncached candidate's
	// landmark bound is at least 2, above a top-K query's floor of 1: the
	// sweep makes every charged t1 row, half the extraction charge.
	if got := spanArg(t, tr, "extraction", "t1-swept"); got != res.Budget.TopK/2 {
		t.Errorf("extraction span t1-swept = %d, want half the extraction charge (%d)", got, res.Budget.TopK/2)
	}

	// The exported Chrome document must parse and contain all three phase
	// spans of Algorithm 1 under the run span.
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

// TestTraceWarmHitMatchesBudget: a warm hit charges the stored spending
// one phase at a time and attributes each charge to the trace, so a traced
// hit's per-phase totals equal its budget report, which equals the cold
// run's.
func TestTraceWarmHitMatchesBudget(t *testing.T) {
	sess, err := NewSession(growingPair(t, 150, 21))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Selector: candidates.MMSD(), M: 20, L: 5, K: 10, Workers: 2, Warm: candidates.NewWarm()}
	cold, err := sess.TopK(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New("warm-hit")
	opts.Trace = tr
	hit, err := sess.TopK(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := spanArg(t, tr, "algorithm1", "warm-hit"); got != 1 {
		t.Fatalf("traced repeat was not a warm hit (warm-hit = %d)", got)
	}
	if hit.Budget != cold.Budget || hit.Budget.CandidateGen == 0 || hit.Budget.TopK == 0 {
		t.Fatalf("hit budget %+v, cold budget %+v: want equal, both phases nonzero", hit.Budget, cold.Budget)
	}
	byPhase := tr.SSSPByPhase()
	if byPhase["candidate-generation"] != hit.Budget.CandidateGen || byPhase["top-k-extraction"] != hit.Budget.TopK {
		t.Errorf("traced warm hit SSSPs by phase = %v, budget report = %+v", byPhase, hit.Budget)
	}
}

// TestTopKNilTrace pins that an untraced run takes the zero-overhead path:
// Options.Trace == nil must not panic anywhere in the pipeline.
func TestTopKNilTrace(t *testing.T) {
	sp := growingPair(t, 60, 22)
	res, err := TopK(sp, Options{Selector: candidates.Degree(), M: 10, K: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("expected some pairs")
	}
}
