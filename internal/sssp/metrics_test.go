package sssp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// path5 builds the path 0-1-2-3-4.
func path5(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
}

// sweep16 is a sweep of msShareThreshold sources over path5, with
// repeats: the smallest source set a one-worker sweep runs through the
// batch kernel.
var sweep16 = []int{0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0}

func TestKernelMetricsAttributePerEngine(t *testing.T) {
	g := path5(t)
	dist := make([]int32, 5)
	before := SnapshotMetrics()
	BFSWith(g, 0, dist, nil)
	AllSourcesFunc(g, sweep16, 1, func(int, []int32) {})
	d := SnapshotMetrics().Sub(before)
	if d.DirectionOpt.Calls != 1 || d.DirectionOpt.Nodes != 5 || d.DirectionOpt.Edges != 8 {
		// Every directed edge of the path is examined once: 2*4 = 8.
		t.Errorf("diropt calls/nodes/edges = %d/%d/%d, want 1/5/8",
			d.DirectionOpt.Calls, d.DirectionOpt.Nodes, d.DirectionOpt.Edges)
	}
	if d.BitParallel64.Calls != 1 || d.BitParallel64.Sources != int64(len(sweep16)) {
		t.Errorf("bitparallel calls/sources = %d/%d, want 1/%d",
			d.BitParallel64.Calls, d.BitParallel64.Sources, len(sweep16))
	}
	if tot := d.Total(); tot.Calls != 2 {
		t.Errorf("total calls = %d, want 2", tot.Calls)
	}
}

// A wheel (a star plus a ring over its leaves) traversed from its center
// sends the leaf level bottom-up: its frontier holds every other node and
// its 3(n−1) outgoing edges outnumber both the unexplored edges / alpha and
// the n nodes a bottom-up sweep visits, so the direction-switch counter
// must move. A bare star's leaf level passes every other test but has only
// n−1 frontier edges, so the entry test keeps it top-down: either
// direction examines n−1 edges there.
func TestDirectionOptSwitchCounter(t *testing.T) {
	const n = 512
	star := make([]graph.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		star = append(star, graph.Edge{U: 0, V: v})
	}
	wheel := append([]graph.Edge{}, star...)
	for v := 1; v < n; v++ {
		wheel = append(wheel, graph.Edge{U: v, V: v%(n-1) + 1})
	}
	dist := make([]int32, n)
	before := SnapshotMetrics()
	BFSWith(graph.FromEdges(n, wheel), 0, dist, nil)
	d := SnapshotMetrics().Sub(before)
	if d.DirectionOpt.Switches < 1 {
		t.Fatalf("diropt switches = %d, want >= 1 on a wheel from its center", d.DirectionOpt.Switches)
	}
	if d.DirectionOpt.BottomUpSteps < 1 {
		t.Fatalf("diropt bottom-up steps = %d, want >= 1", d.DirectionOpt.BottomUpSteps)
	}
	if d.DirectionOpt.Nodes != n {
		t.Fatalf("diropt nodes = %d, want %d", d.DirectionOpt.Nodes, n)
	}
	before = SnapshotMetrics()
	BFSWith(graph.FromEdges(n, star), 0, dist, nil)
	if d := SnapshotMetrics().Sub(before).DirectionOpt; d.BottomUpSteps != 0 {
		t.Fatalf("diropt bottom-up steps = %d on a star from its center, want 0 (entry test)", d.BottomUpSteps)
	}
}

func TestBatchFillMetric(t *testing.T) {
	g := path5(t)
	before := SnapshotMetrics()
	AllSourcesFunc(g, sweep16, 1, func(src int, dist []int32) {})
	d := SnapshotMetrics().Sub(before)
	if d.BitParallel64.Calls != 1 || d.BitParallel64.Sources != 16 {
		t.Fatalf("batch calls/sources = %d/%d, want 1/16", d.BitParallel64.Calls, d.BitParallel64.Sources)
	}
	want := 16.0 / 64.0
	if fill := d.BitParallel64.BatchFill(); fill != want {
		t.Fatalf("batch fill = %v, want %v", fill, want)
	}
	// Every (source, node) pair on a connected graph is one visit.
	if d.BitParallel64.Nodes != 80 {
		t.Fatalf("batch visits = %d, want 80", d.BitParallel64.Nodes)
	}
}

func TestDijkstraMetrics(t *testing.T) {
	g, err := graph.NewWeighted(3, []graph.WeightedEdge{
		{U: 0, V: 1, Weight: 2}, {U: 1, V: 2, Weight: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	dist := make([]int32, 3)
	before := SnapshotMetrics()
	Dijkstra(g, 0, dist)
	d := SnapshotMetrics().Sub(before)
	if d.Dijkstra.Calls != 1 || d.Dijkstra.Nodes != 3 {
		t.Fatalf("dijkstra calls/nodes = %d/%d, want 1/3", d.Dijkstra.Calls, d.Dijkstra.Nodes)
	}
}

// The kernels register their counters with the obs registry at init; the
// exposition must include them after any BFS ran.
func TestMetricsExposedThroughObs(t *testing.T) {
	g := path5(t)
	dist := make([]int32, 5)
	BFSWith(g, 0, dist, nil)
	var buf bytes.Buffer
	if err := obs.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"sssp.diropt.calls", "sssp.diropt.switches", "sssp.bitparallel64.sources",
		"sssp.dijkstra.edges_scanned", "sssp.dijkstra.calls",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("obs exposition missing %q", want)
		}
	}
}

func TestSweepHistogramsObservePerKernel(t *testing.T) {
	g := path5(t)
	dist := make([]int32, 5)
	h := &kernelHist[kDirOpt]
	before := h.sweepNS.Snapshot()
	nodesBefore := h.nodesPerSource.Snapshot()
	edgesBefore := h.edgesPerSource.Snapshot()
	BFSWith(g, 0, dist, nil)
	BFSWith(g, 4, dist, nil)
	if d := h.sweepNS.Snapshot().Sub(before); d.Count != 2 {
		t.Errorf("sweep_ns delta count = %d, want 2", d.Count)
	}
	d := h.nodesPerSource.Snapshot().Sub(nodesBefore)
	if d.Count != 2 || d.Sum != 10 {
		t.Errorf("nodes_per_source delta count/sum = %d/%d, want 2/10 (5 nodes per sweep)", d.Count, d.Sum)
	}
	if d := h.edgesPerSource.Snapshot().Sub(edgesBefore); d.Count != 2 || d.Sum != 16 {
		t.Errorf("edges_per_source delta count/sum = %d/%d, want 2/16", d.Count, d.Sum)
	}
}

func TestSweepHistogramsExposed(t *testing.T) {
	g := path5(t)
	dist := make([]int32, 5)
	BFSWith(g, 0, dist, nil)
	var buf bytes.Buffer
	if err := obs.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE sssp.sweep_ns histogram",
		`sssp.sweep_ns_count{kernel="diropt"}`,
		`sssp.nodes_per_source_count{kernel="diropt"}`,
		`sssp.edges_per_source_count{kernel="diropt"}`,
		`sssp.sweep_ns_count{kernel="repair"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
