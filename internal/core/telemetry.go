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
// report, and the kernel-counter delta. The
// kernel counters are process-global, so under concurrent runs the delta
// attributes overlapping traversal work to whichever run reads it — an
// accepted imprecision, same as SnapshotMetrics region attribution.
func recordRun(opts Options, kernel string, workers int, meter *budget.Meter, before sssp.MetricsSnapshot, prunedBefore sssp.PrunedWork, start time.Time, phases obs.PhaseNanos, res *Result, err error) {
	//convlint:nondet phase latency is observational, not part of results
	phases.Total = time.Since(start).Nanoseconds()
	totalNS.Observe(phases.Total)
	d := sssp.SnapshotMetrics().Sub(before)
	pd := sssp.SnapshotPrunedWork().Sub(prunedBefore)
	t := d.Total()
	rep := meter.Report()
	rec := obs.RunRecord{
		Kind:        "topk",
		Fingerprint: fingerprint(opts, kernel, workers),
		Phases:      phases,
		Budget:      obs.BudgetSplit{Limit: rep.Limit, CandidateGen: rep.CandidateGen, TopK: rep.TopK},
		Kernels: obs.KernelDelta{
			Calls:       t.Calls - d.Repair.Calls - d.PrunedBFS.Calls,
			Sources:     t.Sources - d.Repair.Sources - d.PrunedBFS.Sources,
			Nodes:       t.Nodes - d.Repair.Nodes - d.PrunedBFS.Nodes,
			Edges:       t.Edges - d.Repair.Edges - d.PrunedBFS.Edges,
			RepairCalls: d.Repair.Calls,
			RepairNodes: d.Repair.Nodes,
			RepairEdges: d.Repair.Edges,
			// The pruned-extraction split: bounded t2 traversals are broken
			// out like repairs, plus the work the Δ-threshold cuts avoided.
			PrunedBFSCalls:         d.PrunedBFS.Calls,
			PrunedBFSEdges:         d.PrunedBFS.Edges,
			PrunedBFSBottomUpSteps: d.PrunedBFS.BottomUpSteps,
			PrunedCutoffs:          pd.Cutoffs,
			PrunedSkippedNodes:     pd.Nodes,
			PrunedSkippedEdges:     pd.Edges,
		},
		Outcome: "ok",
	}
	if res != nil {
		res.Phases.Total = phases.Total
		rec.Candidates = len(res.Candidates)
		rec.Pairs = len(res.Pairs)
		rec.PrunedCandidates = res.Pruned.CandidatesSkipped
	}
	if err != nil {
		rec.Outcome = err.Error()
	}
	obs.Flight.Append(rec)
}
