package core

import (
	"fmt"
	"time"

	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/sssp"
)

// Phase wall-time histograms: one core.phase_ns series per Algorithm 1
// phase, observed at the same points the trace spans end, so a phase's
// _count equals the number of spans of that name and p50/p99 latencies can
// be read straight off /metrics without a trace file.
var (
	selectionNS  = obs.NewHistogram("core.phase_ns", obs.L("phase", "selection"))
	extractionNS = obs.NewHistogram("core.phase_ns", obs.L("phase", "extraction"))
	sortCutNS    = obs.NewHistogram("core.phase_ns", obs.L("phase", "sort-cut"))
	totalNS      = obs.NewHistogram("core.phase_ns", obs.L("phase", "total"))
)

// PhaseLatencies returns point-in-time snapshots of the phase wall-time
// histograms keyed by phase name — the programmatic view of the
// core.phase_ns series. Diff two calls with HistogramSnapshot.Sub to get the
// latency distribution of a region (internal/eval's latency table does).
func PhaseLatencies() map[string]obs.HistogramSnapshot {
	return map[string]obs.HistogramSnapshot{
		"selection":  selectionNS.Snapshot(),
		"extraction": extractionNS.Snapshot(),
		"sort-cut":   sortCutNS.Snapshot(),
		"total":      totalNS.Snapshot(),
	}
}

// fingerprint compacts the options that determine a run's result, plus the
// kernel the session's sources ran and the extraction worker count it
// resolved (0 when the run ended before extraction), into one string: the
// flight record's identity line. Pruned work depends on the worker count,
// so the record names the count that ran, not the one requested.
func fingerprint(opts Options, kernel string, workers int) string {
	name := "none"
	if opts.Selector != nil {
		name = opts.Selector.Name()
	}
	return fmt.Sprintf("selector=%s m=%d k=%d delta=%d seed=%d engine=%s workers=%d",
		name, opts.M, opts.K, opts.MinDelta, opts.Seed, kernel, workers)
}

// recordRun closes out one run's telemetry: the total-phase histogram sample,
// res.Phases.Total when the run succeeded, and a flight-recorder entry
// carrying the options fingerprint, per-phase wall times, the meter's final
// report, the kernel-counter delta and the query's own pruning counts
// (pstats, also those of a failed or cancelled query). The kernel counters
// are process-global, so under concurrent runs the delta attributes
// overlapping traversal work to whichever run reads it — an accepted
// imprecision, same as SnapshotMetrics region attribution. The pruning
// counts are exact for the query.
func recordRun(opts Options, kernel string, workers int, meter *budget.Meter, before sssp.MetricsSnapshot, pstats PruneStats, start time.Time, phases obs.PhaseNanos, res *Result, err error) {
	//convlint:nondet phase latency is observational, not part of results
	phases.Total = time.Since(start).Nanoseconds()
	totalNS.Observe(phases.Total)
	d := sssp.SnapshotMetrics().Sub(before)
	t := d.Total()
	rep := meter.Report()
	rec := obs.RunRecord{
		Kind:        "topk",
		Fingerprint: fingerprint(opts, kernel, workers),
		Phases:      phases,
		Budget:      obs.BudgetSplit{Limit: rep.Limit, CandidateGen: rep.CandidateGen, TopK: rep.TopK},
		Kernels: obs.KernelDelta{
			// Repair-kernel work stays out of the totals (no query runs
			// it), and bounded t2 traversals are broken out below.
			Calls:   t.Calls - d.Repair.Calls - d.PrunedBFS.Calls,
			Sources: t.Sources - d.Repair.Sources - d.PrunedBFS.Sources,
			Nodes:   t.Nodes - d.Repair.Nodes - d.PrunedBFS.Nodes,
			Edges:   t.Edges - d.Repair.Edges - d.PrunedBFS.Edges,
			// The pruned-extraction split: bounded t2 traversals (a
			// batched round's sweep counts one call per batch, its lanes
			// as sources), and how many of the query's rows the
			// Δ-threshold cut stopped.
			PrunedBFSCalls:         d.PrunedBFS.Calls,
			PrunedBFSEdges:         d.PrunedBFS.Edges,
			PrunedBFSBottomUpSteps: d.PrunedBFS.BottomUpSteps,
			PrunedCutoffs:          int64(pstats.Cutoffs),
			// The levels the run's sweep batches pulled bottom-up.
			BitParallel64BottomUpSteps: d.BitParallel64.BottomUpSteps,
		},
		PrunedCandidates: pstats.CandidatesSkipped,
		PrunedT2Batched:  pstats.T2Batched,
		Outcome:          "ok",
	}
	if res != nil {
		res.Phases.Total = phases.Total
		rec.Candidates = len(res.Candidates)
		rec.Pairs = len(res.Pairs)
	}
	if err != nil {
		rec.Outcome = err.Error()
	}
	obs.Flight.Append(rec)
}
