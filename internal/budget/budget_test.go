package budget

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestMeterBasics(t *testing.T) {
	mt := NewMeter(10) // 20 SSSPs
	if mt.Limit() != 20 {
		t.Fatalf("limit = %d, want 20", mt.Limit())
	}
	if err := mt.Charge(PhaseCandidateGen, 5); err != nil {
		t.Fatal(err)
	}
	if err := mt.Charge(PhaseTopK, 15); err != nil {
		t.Fatal(err)
	}
	if got := mt.Remaining(); got != 0 {
		t.Fatalf("remaining = %d, want 0", got)
	}
	rep := mt.Report()
	if rep.CandidateGen != 5 || rep.TopK != 15 || rep.Total() != 20 {
		t.Fatalf("report = %+v", rep)
	}
	if !strings.Contains(rep.String(), "total=20/20") {
		t.Fatalf("report string = %q", rep.String())
	}
}

func TestMeterExhaustion(t *testing.T) {
	mt := NewMeterSSSP(3)
	if err := mt.Charge(PhaseTopK, 2); err != nil {
		t.Fatal(err)
	}
	err := mt.Charge(PhaseTopK, 2)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	// A failed charge must not consume budget.
	if got := mt.Remaining(); got != 1 {
		t.Fatalf("remaining = %d after failed charge, want 1", got)
	}
	if err := mt.Charge(PhaseCandidateGen, 1); err != nil {
		t.Fatalf("exact fill failed: %v", err)
	}
}

func TestMeterInvalidCharges(t *testing.T) {
	mt := NewMeterSSSP(5)
	if err := mt.Charge(PhaseTopK, -1); err == nil {
		t.Error("negative charge should fail")
	}
	if err := mt.Charge(Phase(99), 1); err == nil {
		t.Error("unknown phase should fail")
	}
}

// TestNilMeterSemantics pins the documented nil-Meter contract in one place:
// unlimited and untracked. Limit and Remaining agree on Unlimited (they used
// to disagree — MaxInt vs 0 — which broke attribution code that compared
// them), and Report is zero.
func TestNilMeterSemantics(t *testing.T) {
	var mt *Meter
	if err := mt.Charge(PhaseTopK, 1_000_000); err != nil {
		t.Fatalf("nil meter charge failed: %v", err)
	}
	if mt.Remaining() != Unlimited {
		t.Fatalf("nil meter Remaining() = %d, want Unlimited", mt.Remaining())
	}
	if mt.Limit() != Unlimited {
		t.Fatalf("nil meter Limit() = %d, want Unlimited", mt.Limit())
	}
	if mt.Limit() != mt.Remaining() {
		t.Fatal("nil meter Limit and Remaining must agree")
	}
	if rep := mt.Report(); rep.Total() != 0 || rep.Limit != 0 {
		t.Fatalf("nil meter report = %+v, want zero (nothing was measured)", rep)
	}
}

func TestMeterConcurrent(t *testing.T) {
	mt := NewMeterSSSP(1000)
	var wg sync.WaitGroup
	var mu sync.Mutex
	succeeded := 0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if mt.Charge(PhaseTopK, 1) == nil {
					mu.Lock()
					succeeded++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if succeeded != 1000 {
		t.Fatalf("succeeded charges = %d, want exactly the limit 1000", succeeded)
	}
	if mt.Remaining() != 0 {
		t.Fatalf("remaining = %d, want 0", mt.Remaining())
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseCandidateGen.String() != "candidate-generation" ||
		PhaseTopK.String() != "top-k-extraction" {
		t.Fatal("phase names changed")
	}
	if !strings.Contains(Phase(42).String(), "42") {
		t.Fatal("unknown phase string should include the value")
	}
}

func TestChargeHistogramObservesSuccessfulChargesOnly(t *testing.T) {
	mt := NewMeter(3) // 6 SSSPs
	cgBefore := chargeHist[PhaseCandidateGen].Snapshot()
	tkBefore := chargeHist[PhaseTopK].Snapshot()
	if err := mt.Charge(PhaseCandidateGen, 2); err != nil {
		t.Fatal(err)
	}
	if err := mt.Charge(PhaseTopK, 4); err != nil {
		t.Fatal(err)
	}
	if err := mt.Charge(PhaseTopK, 100); err == nil {
		t.Fatal("over-limit charge should fail")
	}
	cg := chargeHist[PhaseCandidateGen].Snapshot().Sub(cgBefore)
	tk := chargeHist[PhaseTopK].Snapshot().Sub(tkBefore)
	if cg.Count != 1 || cg.Sum != 2 {
		t.Errorf("candidate-gen charge histogram delta count/sum = %d/%d, want 1/2", cg.Count, cg.Sum)
	}
	if tk.Count != 1 || tk.Sum != 4 {
		t.Errorf("top-k charge histogram delta count/sum = %d/%d, want 1/4 (failed charge must not observe)", tk.Count, tk.Sum)
	}
}
