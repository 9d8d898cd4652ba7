// Package budget accounts for single-source shortest-path (SSSP)
// computations, the paper's unit of computational cost. A budget of m
// candidate endpoints corresponds to 2m SSSP computations split across two
// phases (paper Table 1): candidate generation and top-k pair extraction.
//
// Every SSSP the library performs on behalf of a budgeted run is charged to a
// Meter. The Meter enforces the limit (charging past it fails), and its
// Report reproduces the per-phase allocation of Table 1, which tests assert
// exactly for every selector.
//
// A charge unit is one distance *row produced*, not the traversal work that
// produced it: a t2 row whose traversal the Δ-threshold cut short
// (sssp.PrunedSecondBFS) costs exactly the same one unit as a full BFS. This
// keeps the cost model — and every Table-1 comparison — invariant under
// execution strategy; the machine-level savings show up in the sssp kernel
// metrics (prunedbfs_edges, pruned_cutoffs vs nodes_visited), never in the
// budget.
//
// A Meter knows nothing of tenants. A served query gets its 2m meter from
// Tenant.Admit, which reserves the whole 2m against the tenant's allowance
// before the query runs, and Tenant.Settle charges the tenant what the
// meter spent once the query ends (registry.go).
package budget

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/invariant"
	"repro/internal/obs"
)

// chargeHist records the size distribution of successful charges per phase:
// how many SSSPs each Charge call bought. Totals answer "how much was
// spent"; this answers "in what increments": one extraction charge per
// query versus one charge per dispersion pick or landmark batch.
var chargeHist = [numPhases]*obs.Histogram{
	PhaseCandidateGen: obs.NewHistogram("budget.charge_sssp", obs.L("phase", "candidate-generation")),
	PhaseTopK:         obs.NewHistogram("budget.charge_sssp", obs.L("phase", "top-k-extraction")),
}

// Phase identifies which stage of the generic top-k algorithm an SSSP
// computation belongs to.
type Phase int

const (
	// PhaseCandidateGen covers SSSPs spent selecting candidate endpoints:
	// dispersion picks, landmark rows, classifier feature landmarks.
	PhaseCandidateGen Phase = iota
	// PhaseTopK covers SSSPs from the chosen candidate endpoints on both
	// snapshots, used to extract the converging pairs.
	PhaseTopK
	numPhases
)

// String returns a human-readable phase name.
func (p Phase) String() string {
	switch p {
	case PhaseCandidateGen:
		return "candidate-generation"
	case PhaseTopK:
		return "top-k-extraction"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// ErrExhausted reports an attempt to charge past the SSSP limit.
var ErrExhausted = errors.New("budget: SSSP budget exhausted")

// Unlimited is the limit a nil Meter reports: the largest int, i.e. "no
// budget constraint".
const Unlimited = int(^uint(0) >> 1)

// Meter tracks SSSP charges against a fixed limit. Meter is safe for
// concurrent use (parallel SSSP drivers charge up front, but selectors may
// charge from worker goroutines).
//
// A nil *Meter is valid and means "unlimited, untracked" — convenient for
// ground-truth computations. These are the complete nil semantics, asserted
// by TestNilMeterSemantics: Charge always succeeds and records nothing,
// Limit and Remaining report Unlimited, and Report is the zero Report (zero
// limit, zero spending — a nil meter measured nothing).
type Meter struct {
	mu    sync.Mutex
	limit int
	spent [numPhases]int
}

// NewMeter creates a Meter for the paper's standard budget: m candidate
// endpoints = 2m SSSP computations.
func NewMeter(m int) *Meter { return &Meter{limit: 2 * m} }

// NewMeterSSSP creates a Meter with an explicit SSSP limit.
func NewMeterSSSP(limit int) *Meter { return &Meter{limit: limit} }

// Charge records n SSSP computations in the given phase. It fails without
// recording anything if the charge would exceed the limit, so callers can
// degrade gracefully (e.g. select fewer candidates).
func (mt *Meter) Charge(p Phase, n int) error {
	if mt == nil {
		return nil
	}
	if n < 0 {
		return fmt.Errorf("budget: negative charge %d", n)
	}
	if p < 0 || p >= numPhases {
		return fmt.Errorf("budget: unknown phase %d", int(p))
	}
	mt.mu.Lock()
	total := mt.spent[PhaseCandidateGen] + mt.spent[PhaseTopK]
	if total+n > mt.limit {
		mt.mu.Unlock()
		return fmt.Errorf("%w: %d spent + %d requested > limit %d", ErrExhausted, total, n, mt.limit)
	}
	mt.spent[p] += n
	if invariant.Enabled {
		mt.check()
	}
	mt.mu.Unlock()
	chargeHist[p].Observe(int64(n))
	return nil
}

// check asserts the Meter's accounting invariants with mu held: phase
// spending is non-negative and the total never exceeds the limit. Compiled
// in only under -tags invariants.
func (mt *Meter) check() {
	total := 0
	for p, n := range mt.spent {
		invariant.Checkf(n >= 0, "negative spending %d in phase %v", n, Phase(p))
		total += n
	}
	invariant.Checkf(total <= mt.limit, "spent %d exceeds limit %d", total, mt.limit)
}

// Remaining returns how many SSSP computations are still available
// (Unlimited for a nil Meter).
func (mt *Meter) Remaining() int {
	if mt == nil {
		return Unlimited
	}
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return mt.limit - mt.spent[PhaseCandidateGen] - mt.spent[PhaseTopK]
}

// Limit returns the total SSSP limit (Unlimited for a nil Meter, matching
// Remaining — a nil meter never constrains anything).
func (mt *Meter) Limit() int {
	if mt == nil {
		return Unlimited
	}
	return mt.limit
}

// Report is a snapshot of a Meter's per-phase spending; it reproduces one
// row of the paper's Table 1.
type Report struct {
	Limit        int // total SSSP budget (2m)
	CandidateGen int // SSSPs spent selecting candidates
	TopK         int // SSSPs spent extracting pairs
}

// Total returns the overall SSSPs spent.
func (r Report) Total() int { return r.CandidateGen + r.TopK }

// String formats the report like a Table 1 row.
func (r Report) String() string {
	return fmt.Sprintf("candidate-generation=%d top-k=%d total=%d/%d",
		r.CandidateGen, r.TopK, r.Total(), r.Limit)
}

// Report returns the current spending snapshot. A nil Meter reports zeros.
func (mt *Meter) Report() Report {
	if mt == nil {
		return Report{}
	}
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return Report{
		Limit:        mt.limit,
		CandidateGen: mt.spent[PhaseCandidateGen],
		TopK:         mt.spent[PhaseTopK],
	}
}
