package sssp

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Kernel metrics: every BFS/Dijkstra kernel accumulates plain-int counters
// in registers during the traversal and flushes them with a handful of
// atomic adds when the call returns — one flush per source (or per 64-source
// batch), never per edge, so instrumentation stays invisible next to the
// traversal itself and the //convlint:hotpath kernels remain allocation-free
// (backed by TestBFSWithZeroAllocs).
//
// Counters are attributed per kernel so a run shows where its SSSPs really
// executed: a sweep lands on diropt or bitparallel64 depending on its
// worker share, and the paper's cost model (1 SSSP = 1 unit) can be compared
// against the machine-level work (edges scanned) each kernel actually did.

// kernelIndex identifies one instrumented kernel.
type kernelIndex int

const (
	kDirOpt kernelIndex = iota
	kBitParallel
	kDijkstra
	kRepair    // dynsssp decrease-only batch repair (monitor trackers, DynamicBFS)
	kPrunedBFS // Δ-threshold bounded second-snapshot BFS (pruned extraction)
	kNearest   // MaxMin chain step: Voronoi-cell BFS lowering nearest-pick distances
	numKernels
)

// kernelCounters is the live atomic counter block of one kernel.
type kernelCounters struct {
	calls        atomic.Int64
	sources      atomic.Int64
	nodes        atomic.Int64
	edges        atomic.Int64
	tdSteps      atomic.Int64
	buSteps      atomic.Int64
	switches     atomic.Int64
	frontierPeak atomic.Int64
}

var kernelMetrics [numKernels]kernelCounters

// kernelHists are the counters' distribution siblings: where the atomic
// totals say how much work all sweeps did, these histograms say how it was
// spread — per-sweep wall time and per-source nodes/edges visited. The
// per-source distributions are exactly the evidence the Δ-threshold pruning
// roadmap item needs (Borassi/Bergamini justify cutoffs with per-source
// visit-count distributions), which plain totals aggregate away.
type kernelHists struct {
	sweepNS        *obs.Histogram
	nodesPerSource *obs.Histogram
	edgesPerSource *obs.Histogram
}

var kernelHist [numKernels]kernelHists

// observeSweep records one kernel call's distribution samples. Called once
// per call at the existing counter-flush points — the hot traversal loops
// stay untouched and Observe itself is lock- and allocation-free.
//
//convlint:hotpath
func observeSweep(i kernelIndex, start time.Time, sources, nodes, edges int64) {
	h := &kernelHist[i]
	//convlint:nondet sweep latency is observational, not part of results
	h.sweepNS.Observe(time.Since(start).Nanoseconds())
	if sources > 0 {
		h.nodesPerSource.Observe(nodes / sources)
		h.edgesPerSource.Observe(edges / sources)
	}
}

// peakMax raises a high-water-mark counter to v if v is larger.
func peakMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// KernelCounters is a point-in-time copy of one kernel's counters.
type KernelCounters struct {
	// Calls counts kernel invocations (for BitParallel64, batches).
	Calls int64
	// Sources counts BFS sources served; equals Calls except for batched
	// kernels, where Sources/Calls is the average batch occupancy.
	Sources int64
	// Nodes and Edges count node visits and edge examinations.
	Nodes int64
	Edges int64
	// TopDownSteps and BottomUpSteps count the direction-optimizing levels
	// (DirectionOpt and PrunedBFS) executed in each mode; Switches counts
	// direction changes.
	TopDownSteps  int64
	BottomUpSteps int64
	Switches      int64
	// FrontierPeak is the largest single-level frontier ever seen (a
	// high-water mark, not a rate).
	FrontierPeak int64
}

// BatchFill is the average MS-BFS lane occupancy in [0, 1]: how full the
// kernel's 64-lane batches ran. Meaningful for BitParallel64 only.
func (k KernelCounters) BatchFill() float64 {
	if k.Calls == 0 {
		return 0
	}
	return float64(k.Sources) / float64(k.Calls*msBatchBits)
}

// sub subtracts a previous snapshot counter-wise; high-water marks keep the
// current value (they are not rates and cannot be diffed).
func (k KernelCounters) sub(prev KernelCounters) KernelCounters {
	return KernelCounters{
		Calls:         k.Calls - prev.Calls,
		Sources:       k.Sources - prev.Sources,
		Nodes:         k.Nodes - prev.Nodes,
		Edges:         k.Edges - prev.Edges,
		TopDownSteps:  k.TopDownSteps - prev.TopDownSteps,
		BottomUpSteps: k.BottomUpSteps - prev.BottomUpSteps,
		Switches:      k.Switches - prev.Switches,
		FrontierPeak:  k.FrontierPeak,
	}
}

// add accumulates counters; high-water marks take the max.
func (k KernelCounters) add(o KernelCounters) KernelCounters {
	peak := k.FrontierPeak
	if o.FrontierPeak > peak {
		peak = o.FrontierPeak
	}
	return KernelCounters{
		Calls:         k.Calls + o.Calls,
		Sources:       k.Sources + o.Sources,
		Nodes:         k.Nodes + o.Nodes,
		Edges:         k.Edges + o.Edges,
		TopDownSteps:  k.TopDownSteps + o.TopDownSteps,
		BottomUpSteps: k.BottomUpSteps + o.BottomUpSteps,
		Switches:      k.Switches + o.Switches,
		FrontierPeak:  peak,
	}
}

// MetricsSnapshot is a consistent-enough copy of every kernel's counters
// (each field is read atomically; a snapshot taken mid-sweep may split one
// call's flush). Diff two snapshots with Sub to attribute work to a region
// of a run.
type MetricsSnapshot struct {
	DirectionOpt  KernelCounters
	BitParallel64 KernelCounters
	Dijkstra      KernelCounters
	// Repair counts the dynsssp batch-repair kernel: the decrease-only wave
	// that brings a distance vector up to date over inserted edges (the
	// streaming monitor's landmark trackers, DynamicBFS). Nodes/Edges here
	// are traversal the repair performed instead of a full BFS.
	Repair KernelCounters
	// PrunedBFS counts the Δ-threshold bounded second-snapshot traversals of
	// pruned extraction: Nodes/Edges are work actually done before the cut.
	// The companion PrunedWork counters say what the cut avoided.
	PrunedBFS KernelCounters
	// Nearest counts the MaxMin chain's LowerNearest calls: each lowers the
	// nearest-pick distances inside one pick's Voronoi cell and produces no
	// row, so Sources stays 0; the picks' full rows are counted where a
	// sweep computes them.
	Nearest KernelCounters
}

// PrunedWork aggregates what the Δ-threshold cutoffs skipped, alongside the
// PrunedBFS kernel counters that say what still ran. All three are exact:
// abandoned nodes and their adjacency are counted when the traversal stops.
type PrunedWork struct {
	Cutoffs int64
	Nodes   int64
	Edges   int64
}

// Sub diffs two PrunedWork readings.
func (p PrunedWork) Sub(prev PrunedWork) PrunedWork {
	return PrunedWork{
		Cutoffs: p.Cutoffs - prev.Cutoffs,
		Nodes:   p.Nodes - prev.Nodes,
		Edges:   p.Edges - prev.Edges,
	}
}

var prunedWork struct {
	cutoffs atomic.Int64
	nodes   atomic.Int64
	edges   atomic.Int64
}

// SnapshotPrunedWork reads the cumulative skipped-work counters.
func SnapshotPrunedWork() PrunedWork {
	return PrunedWork{
		Cutoffs: prunedWork.cutoffs.Load(),
		Nodes:   prunedWork.nodes.Load(),
		Edges:   prunedWork.edges.Load(),
	}
}

// SnapshotMetrics reads the live kernel counters.
func SnapshotMetrics() MetricsSnapshot {
	read := func(i kernelIndex) KernelCounters {
		c := &kernelMetrics[i]
		return KernelCounters{
			Calls:         c.calls.Load(),
			Sources:       c.sources.Load(),
			Nodes:         c.nodes.Load(),
			Edges:         c.edges.Load(),
			TopDownSteps:  c.tdSteps.Load(),
			BottomUpSteps: c.buSteps.Load(),
			Switches:      c.switches.Load(),
			FrontierPeak:  c.frontierPeak.Load(),
		}
	}
	return MetricsSnapshot{
		DirectionOpt:  read(kDirOpt),
		BitParallel64: read(kBitParallel),
		Dijkstra:      read(kDijkstra),
		Repair:        read(kRepair),
		PrunedBFS:     read(kPrunedBFS),
		Nearest:       read(kNearest),
	}
}

// Sub returns the per-kernel work done between prev and s. FrontierPeak
// fields keep s's high-water marks.
func (s MetricsSnapshot) Sub(prev MetricsSnapshot) MetricsSnapshot {
	return MetricsSnapshot{
		DirectionOpt:  s.DirectionOpt.sub(prev.DirectionOpt),
		BitParallel64: s.BitParallel64.sub(prev.BitParallel64),
		Dijkstra:      s.Dijkstra.sub(prev.Dijkstra),
		Repair:        s.Repair.sub(prev.Repair),
		PrunedBFS:     s.PrunedBFS.sub(prev.PrunedBFS),
		Nearest:       s.Nearest.sub(prev.Nearest),
	}
}

// Total sums the kernels (FrontierPeak takes the max across kernels).
func (s MetricsSnapshot) Total() KernelCounters {
	return s.DirectionOpt.add(s.BitParallel64).add(s.Dijkstra).
		add(s.Repair).add(s.PrunedBFS).add(s.Nearest)
}

// RecordRepair flushes one dynsssp batch-repair run into the repair kernel
// counters: one call, one source (each repair re-derives a single source's
// distance vector), the nodes/edges the wave touched, and its largest
// single-level frontier. start is when the repair began, so the repair
// kernel's latency histogram fills alongside the BFS kernels'. Called once
// per ApplyAll/ApplyBatch, never per edge, to keep the repair kernel
// allocation- and contention-free.
func RecordRepair(nodes, edges, frontierPeak int64, start time.Time) {
	c := &kernelMetrics[kRepair]
	c.calls.Add(1)
	c.sources.Add(1)
	c.nodes.Add(nodes)
	c.edges.Add(edges)
	peakMax(&c.frontierPeak, frontierPeak)
	observeSweep(kRepair, start, 1, nodes, edges)
}

// flush adds one dirOptBFS call's work to kernel i's counters and
// histograms: one call from one source, started at start. Called once per
// call, never per edge.
func (w *bfsWork) flush(i kernelIndex, start time.Time) {
	c := &kernelMetrics[i]
	c.calls.Add(1)
	c.sources.Add(1)
	c.nodes.Add(w.nodes)
	c.edges.Add(w.edges)
	c.tdSteps.Add(w.tdSteps)
	c.buSteps.Add(w.buSteps)
	c.switches.Add(w.switches)
	peakMax(&c.frontierPeak, w.peak)
	observeSweep(i, start, 1, w.nodes, w.edges)
}

// recordCut adds what one fired Δ-threshold cut avoided: skippedNodes and
// skippedEdges count the abandoned undiscovered nodes and their adjacency
// exactly.
func recordCut(skippedNodes, skippedEdges int64) {
	prunedWork.cutoffs.Add(1)
	prunedWork.nodes.Add(skippedNodes)
	prunedWork.edges.Add(skippedEdges)
}

// init publishes the kernel counters to the obs metrics registry so
// `convpairs -metricsaddr` (and anything else serving obs.WriteMetrics)
// exposes them without further wiring.
func init() {
	names := [numKernels]string{
		kDirOpt:      "diropt",
		kBitParallel: "bitparallel64",
		kDijkstra:    "dijkstra",
		kRepair:      "repair",
		kPrunedBFS:   "prunedbfs",
		kNearest:     "nearest",
	}
	for i := kernelIndex(0); i < numKernels; i++ {
		kernelHist[i] = kernelHists{
			sweepNS:        obs.NewHistogram("sssp.sweep_ns", obs.L("kernel", names[i])),
			nodesPerSource: obs.NewHistogram("sssp.nodes_per_source", obs.L("kernel", names[i])),
			edgesPerSource: obs.NewHistogram("sssp.edges_per_source", obs.L("kernel", names[i])),
		}
		if i == kRepair || i == kPrunedBFS {
			continue // counters registered under flat repair_*/pruned_* names below
		}
		c := &kernelMetrics[i]
		prefix := "sssp." + names[i] + "."
		obs.RegisterMetric(prefix+"calls", c.calls.Load)
		obs.RegisterMetric(prefix+"sources", c.sources.Load)
		obs.RegisterMetric(prefix+"nodes_visited", c.nodes.Load)
		obs.RegisterMetric(prefix+"edges_scanned", c.edges.Load)
		obs.RegisterMetric(prefix+"frontier_peak", c.frontierPeak.Load)
	}
	dir := &kernelMetrics[kDirOpt]
	obs.RegisterMetric("sssp.diropt.topdown_steps", dir.tdSteps.Load)
	obs.RegisterMetric("sssp.diropt.bottomup_steps", dir.buSteps.Load)
	obs.RegisterMetric("sssp.diropt.switches", dir.switches.Load)
	rep := &kernelMetrics[kRepair]
	obs.RegisterMetric("sssp.repair_calls", rep.calls.Load)
	obs.RegisterMetric("sssp.repair_nodes", rep.nodes.Load)
	obs.RegisterMetric("sssp.repair_edges", rep.edges.Load)
	obs.RegisterMetric("sssp.repair_frontier_peak", rep.frontierPeak.Load)
	pb := &kernelMetrics[kPrunedBFS]
	obs.RegisterMetric("sssp.prunedbfs_calls", pb.calls.Load)
	obs.RegisterMetric("sssp.prunedbfs_nodes", pb.nodes.Load)
	obs.RegisterMetric("sssp.prunedbfs_edges", pb.edges.Load)
	obs.RegisterMetric("sssp.prunedbfs_topdown_steps", pb.tdSteps.Load)
	obs.RegisterMetric("sssp.prunedbfs_bottomup_steps", pb.buSteps.Load)
	obs.RegisterMetric("sssp.prunedbfs_switches", pb.switches.Load)
	obs.RegisterMetric("sssp.pruned_cutoffs", prunedWork.cutoffs.Load)
	obs.RegisterMetric("sssp.pruned_nodes", prunedWork.nodes.Load)
	obs.RegisterMetric("sssp.pruned_edges", prunedWork.edges.Load)
}
