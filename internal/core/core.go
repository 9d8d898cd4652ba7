// Package core implements the paper's Algorithm 1, the generic budgeted
// top-k converging-pairs algorithm: select m candidate endpoints with a
// pluggable selector, compute their single-source shortest paths on both
// snapshots (reusing any rows the selector already paid for), take the
// pairwise distance differences, and return the k pairs that converged the
// most. Every shortest-path computation is charged to a budget meter, so a
// run's total cost is provably at most 2m SSSPs.
//
// The algorithm is metric-agnostic: it runs over any dist.Pair of distance
// sources. TopK wires up BFS sources for unweighted snapshots; TopKSources
// accepts arbitrary sources (Dijkstra over weighted snapshots, or anything
// else satisfying dist.Source), so the unweighted and weighted pipelines
// share one implementation of selection, extraction, and ranking.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/budget"
	"repro/internal/candidates"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/topk"
)

// Options configures one run of the generic top-k algorithm.
type Options struct {
	// Selector generates the candidate endpoints; required.
	Selector candidates.Selector
	// M is the endpoint budget (2M SSSP computations in total); required.
	M int
	// L is the landmark-set size for landmark-using selectors; 0 means the
	// paper's default of 10.
	L int
	// K asks for the K pairs with the largest distance decrease. Exactly one
	// of K and MinDelta must be positive, and neither may be negative.
	K int
	// MinDelta asks for every discovered pair whose distance decreased by at
	// least MinDelta (the paper's δ-threshold formulation).
	MinDelta int32
	// Seed drives random choices; ignored if RNG is set.
	Seed int64
	// RNG overrides the seeded RNG.
	RNG *rand.Rand
	// Workers bounds SSSP parallelism; <=0 means GOMAXPROCS.
	Workers int
	// Deprecated: PairedMode is ignored. Every query computes its G_t2 rows
	// with the one paired kernel (see dist.PairedEngine).
	PairedMode dist.PairedMode
	// Warm, when non-nil, is a per-snapshot-pair memo of finished queries:
	// an exact repeat of a stored query (same selector, M, L, Seed, K and
	// MinDelta) charges the cold run's spending, one charge per nonzero
	// phase (always fitting a 2M meter; on a smaller one, a phase that does
	// not fit fails with ErrExhausted and spends nothing), and returns its
	// pairs and candidates without selecting or traversing anything. The
	// caller must scope one Warm to one snapshot pair — the serve layer
	// keeps one per epoch window. Ignored when RNG is set (an
	// externally-advanced RNG makes the query shape unkeyable).
	Warm *candidates.Warm
	// Meter overrides the default budget meter of 2M SSSPs. Every
	// production caller passes a 2M meter (the serve layer's comes from
	// budget.Tenant.Admit); a smaller one is for tests.
	Meter *budget.Meter
	// Trace, when non-nil, records Algorithm 1's phases (selection,
	// extraction, sort/cut) as spans and attributes the query's SSSPs to
	// the phase span that spent them, so its per-phase totals equal the
	// budget report. Export with Trace.WriteChrome or Trace.WriteTree;
	// tracing off (nil) costs nothing.
	Trace *obs.Trace

	// schedule forces extraction's schedule after its seed round; only
	// this package's tests set it.
	schedule schedule
}

// Result is the outcome of a budgeted top-k run.
type Result struct {
	// Pairs holds the discovered converging pairs in canonical order
	// (Delta descending, then node IDs), cut to K if K was set.
	Pairs []topk.Pair
	// Candidates is the endpoint set M the selector produced.
	Candidates []int
	// Budget reports the SSSP spending split by phase (Table 1).
	Budget budget.Report
	// SelectorName records which algorithm generated the candidates.
	SelectorName string
	// Phases holds the query's wall-clock phase breakdown in nanoseconds —
	// observational only (never part of result comparisons); serve layers
	// re-observe it into per-tenant latency histograms. Total is the same
	// measurement the flight record and core.phase_ns{phase="total"} carry.
	Phases obs.PhaseNanos
	// Pruned reports what the Δ-threshold pruning did. Observational only:
	// Pairs/Candidates/Budget never depend on it. A batched round's skips
	// and cuts read T1, the threshold after the seed round, which repeats
	// exactly at a fixed worker count: it is the kth best Δ among the seed
	// rows' pairs, whatever order they were offered in. The seed round's
	// and a per-candidate rest's read the live threshold, so at more than
	// one worker, where timing changes how early it tightens, they vary
	// run to run. It is zero on a warm hit (Options.Warm), which runs no
	// extraction: its flight record shows the stored spending charged
	// again, no kernel work and workers=0.
	Pruned PruneStats
}

// PruneStats summarizes the pruned extraction of one query. Top-K and
// MinDelta queries both prune: a δ query's threshold is δ throughout.
type PruneStats struct {
	// CandidatesSkipped counts candidates whose landmark upper bound proved
	// no pair of theirs can be returned (Δ below the threshold). Their rows
	// were charged. A skip always saves the t2 row; it saves the t1 row only
	// when the bound was below the threshold's floor or the row was cached,
	// since extraction sweeps every other t1 row before its workers start.
	CandidatesSkipped int
	// Cutoffs counts the query's bounded t2 rows that the Δ-threshold cut
	// stopped early, batched ones included.
	Cutoffs int
	// T2Batched counts the t2 rows the batched round derived in one
	// bounded sweep at T1 (0 when the rest ran per candidate).
	T2Batched int
}

// CandidateSet returns the candidate endpoints as a set, the form the
// coverage metric consumes.
func (r *Result) CandidateSet() map[int32]bool { return topk.NodeSet(r.Candidates) }

// Coverage returns the fraction of truePairs recoverable from this run's
// candidate set — the paper's evaluation metric.
func (r *Result) Coverage(truePairs []topk.Pair) float64 {
	return topk.Coverage(truePairs, r.CandidateSet())
}

// ErrNoSelector reports Options without a selector.
var ErrNoSelector = errors.New("core: no selector configured")

// Validate reports what Session.TopK rejects a query for before doing any
// work: no selector, a negative K or MinDelta, not exactly one of them
// positive, M <= 0, or an M whose 2M SSSP limit overflows int.
func (opts Options) Validate() error {
	if opts.Selector == nil {
		return ErrNoSelector
	}
	if opts.K < 0 || opts.MinDelta < 0 || (opts.K > 0) == (opts.MinDelta > 0) {
		return fmt.Errorf("core: exactly one of K (%d) and MinDelta (%d) must be positive, and neither negative",
			opts.K, opts.MinDelta)
	}
	if opts.M <= 0 {
		return fmt.Errorf("core: non-positive endpoint budget m=%d", opts.M)
	}
	if opts.M > budget.Unlimited/2 {
		return fmt.Errorf("core: endpoint budget m=%d overflows the 2m SSSP limit", opts.M)
	}
	return nil
}

// TopK runs Algorithm 1 on the unweighted snapshot pair with BFS distance
// sources. It is the one-shot form: a throwaway Session per call. Long-lived
// callers (services, monitors) build a Session once and query it repeatedly;
// both paths produce bit-identical results by construction.
func TopK(pair graph.SnapshotPair, opts Options) (*Result, error) {
	s, err := NewSession(pair)
	if err != nil {
		return nil, err
	}
	return s.TopK(context.Background(), opts)
}

// TopKSources runs Algorithm 1 over an arbitrary pair of distance sources —
// the single implementation behind both the unweighted (BFS) and weighted
// (Dijkstra) pipelines. Structural selectors that need raw adjacency (e.g.
// BetDiff, EmbedSum) work only when the sources unwrap to unweighted graphs.
func TopKSources(src dist.Pair, opts Options) (*Result, error) {
	s, err := NewSessionSources(src)
	if err != nil {
		return nil, err
	}
	return s.TopK(context.Background(), opts)
}

// Exact computes the true top-k converging pairs without budget constraints
// (the quadratic baseline the paper compares against). It is a thin wrapper
// over the topk package, exposed here so the public API offers both the
// budgeted algorithm and the exact one.
func Exact(pair graph.SnapshotPair, k int, workers int) ([]topk.Pair, error) {
	gt, err := topk.Compute(pair, topk.Options{Workers: workers, Slack: 1 << 30})
	if err != nil {
		return nil, err
	}
	if k > len(gt.Pairs) {
		k = len(gt.Pairs)
	}
	return gt.Pairs[:k], nil
}

// SortCandidates orders a candidate slice ascending; a display helper.
func SortCandidates(cands []int) { sort.Ints(cands) }
