package graph

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// randomStream builds a duplicate-free timed edge stream over n nodes.
func randomStream(t testing.TB, n, edges int, seed int64) []TimedEdge {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[Edge]struct{})
	var stream []TimedEdge
	for time := int64(0); len(stream) < edges; time++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		c := Edge{u, v}.Canon()
		if _, dup := seen[c]; dup {
			continue
		}
		seen[c] = struct{}{}
		stream = append(stream, TimedEdge{U: u, V: v, Time: time})
	}
	return stream
}

// TestIngesterSealMatchesSnapshotPrefix pins the generalization claim: an
// ingester fed an Evolving stream prefix-by-prefix seals epochs structurally
// identical to Evolving.SnapshotPrefix over the same universe.
func TestIngesterSealMatchesSnapshotPrefix(t *testing.T) {
	stream := randomStream(t, 40, 120, 1)
	ev, err := NewEvolving(stream)
	if err != nil {
		t.Fatal(err)
	}
	in := NewIngester(IngesterOptions{Universe: ev.NumNodes()})
	cuts := []int{30, 60, 120}
	prev := 0
	for _, cut := range cuts {
		if added, err := in.IngestBatch(stream[prev:cut]); err != nil || added != cut-prev {
			t.Fatalf("ingest [%d:%d): added %d err %v", prev, cut, added, err)
		}
		prev = cut
		e := in.Seal()
		want := ev.SnapshotPrefix(cut)
		got := e.Graph()
		if got.NumNodes() != want.NumNodes() || !reflect.DeepEqual(got.Edges(), want.Edges()) {
			t.Fatalf("epoch %d differs from SnapshotPrefix(%d)", e.Seq, cut)
		}
		if e.EdgeCount != cut {
			t.Fatalf("epoch %d EdgeCount = %d, want %d", e.Seq, e.EdgeCount, cut)
		}
	}
	if got := in.Store().Len(); got != len(cuts) {
		t.Fatalf("store holds %d epochs, want %d", got, len(cuts))
	}
}

// TestIngesterSkipsDuplicatesAndSelfLoops pins the service-boundary
// tolerance: the wire may repeat edges and send self-loops; only first
// insertions count.
func TestIngesterSkipsDuplicatesAndSelfLoops(t *testing.T) {
	in := NewIngester(IngesterOptions{})
	batch := []TimedEdge{
		{U: 0, V: 1, Time: 1},
		{U: 1, V: 0, Time: 2}, // duplicate, reversed orientation
		{U: 2, V: 2, Time: 3}, // self-loop
		{U: 1, V: 2, Time: 4},
	}
	added, err := in.IngestBatch(batch)
	if err != nil || added != 2 {
		t.Fatalf("added %d err %v, want 2 nil", added, err)
	}
	if _, err := in.Ingest(TimedEdge{U: -1, V: 3}); err == nil {
		t.Fatalf("negative node ID accepted")
	}
	e := in.Seal()
	if e.EdgeCount != 2 || e.Graph().NumNodes() != 3 {
		t.Fatalf("sealed %d edges over %d nodes, want 2 over 3", e.EdgeCount, e.Graph().NumNodes())
	}
}

// TestIngestBatchAllOrNothing pins batch atomicity and the node-ID range: a
// batch holding one invalid edge (negative, or above math.MaxInt32, which
// the int32 CSR would wrap) is rejected whole with ErrNodeRange, and the
// ingester, its edge count and the next sealed epoch are exactly as before.
func TestIngestBatchAllOrNothing(t *testing.T) {
	in := NewIngester(IngesterOptions{})
	if _, err := in.IngestBatch([]TimedEdge{{U: 0, V: 1}, {U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []TimedEdge{{U: 3, V: -1}, {U: math.MaxInt32 + 1, V: 0}, {U: 2, V: math.MaxInt64}} {
		batch := []TimedEdge{{U: 2, V: 3}, {U: 3, V: 4}, bad, {U: 4, V: 5}}
		added, err := in.IngestBatch(batch)
		if !errors.Is(err, ErrNodeRange) || added != 0 {
			t.Fatalf("batch with %v: added %d err %v, want 0 and ErrNodeRange", bad, added, err)
		}
		if ok, err := in.Ingest(bad); ok || !errors.Is(err, ErrNodeRange) {
			t.Fatalf("Ingest(%v) = %v, %v, want ErrNodeRange", bad, ok, err)
		}
	}
	if in.EdgeCount() != 2 || in.NumNodes() != 3 {
		t.Fatalf("rejected batches changed the ingester: %d edges over %d nodes, want 2 over 3",
			in.EdgeCount(), in.NumNodes())
	}
	if e := in.Seal(); e.EdgeCount != 2 || e.Graph().NumNodes() != 3 {
		t.Fatalf("sealed %d edges over %d nodes, want 2 over 3", e.EdgeCount, e.Graph().NumNodes())
	}
	// The largest representable ID is still accepted by the check.
	if err := NewBuilder(0).AddEdge(0, math.MaxInt32); err != nil {
		t.Fatalf("AddEdge(0, MaxInt32): %v", err)
	}
	if err := NewBuilder(0).AddEdge(math.MaxInt32+1, 0); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("AddEdge(MaxInt32+1, 0) = %v, want ErrNodeRange", err)
	}
	if _, err := NewEvolving([]TimedEdge{{U: 0, V: math.MaxInt32 + 1}}); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("NewEvolving with an ID above MaxInt32 = %v, want ErrNodeRange", err)
	}
}

// TestStoreWindow pins window semantics: pinned epochs, padded earlier
// universe, validated supergraph invariant, and error cases.
func TestStoreWindow(t *testing.T) {
	in := NewIngester(IngesterOptions{})
	in.IngestBatch([]TimedEdge{{U: 0, V: 1}, {U: 1, V: 2}})
	in.Seal()
	// Second epoch grows the universe: node 5 appears.
	in.IngestBatch([]TimedEdge{{U: 2, V: 5}})
	in.Seal()

	st := in.Store()
	w, err := st.Window(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Pair.G1.NumNodes() != w.Pair.G2.NumNodes() {
		t.Fatalf("window universes differ: %d vs %d", w.Pair.G1.NumNodes(), w.Pair.G2.NumNodes())
	}
	if err := w.Pair.Validate(); err != nil {
		t.Fatalf("window pair invalid: %v", err)
	}
	if !w.E1.Pinned() || !w.E2.Pinned() {
		t.Fatalf("window did not pin its epochs")
	}
	w.Close()
	w.Close() // idempotent
	if w.E1.Pinned() || w.E2.Pinned() {
		t.Fatalf("close did not release pins")
	}

	for _, bad := range [][2]int{{2, 1}, {1, 1}, {1, 9}, {0, 2}} {
		if _, err := st.Window(bad[0], bad[1]); err == nil {
			t.Fatalf("window(%d, %d) succeeded, want error", bad[0], bad[1])
		}
	}
}

// TestPadUniverse pins the padding contract: old nodes keep their adjacency
// (shared storage), new nodes are isolated, and no-op padding returns the
// same graph.
func TestPadUniverse(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 2}})
	if PadUniverse(g, 2) != g || PadUniverse(g, 3) != g {
		t.Fatalf("no-op padding did not return the original graph")
	}
	p := PadUniverse(g, 6)
	if p.NumNodes() != 6 || p.NumEdges() != g.NumEdges() {
		t.Fatalf("padded to %d nodes %d edges, want 6 and %d", p.NumNodes(), p.NumEdges(), g.NumEdges())
	}
	for u := 0; u < 3; u++ {
		if !reflect.DeepEqual(p.Neighbors(u), g.Neighbors(u)) {
			t.Fatalf("padding changed adjacency of node %d", u)
		}
	}
	for u := 3; u < 6; u++ {
		if p.Degree(u) != 0 {
			t.Fatalf("padded node %d is not isolated", u)
		}
	}
	if !p.IsSupergraphOf(g) {
		t.Fatalf("padded graph is not a supergraph of the original")
	}
}

// TestStoreRetention pins pruning: the store keeps at most retain epochs,
// always keeps the latest, never prunes a pinned epoch (or anything newer
// than it), and At keeps resolving surviving sequence numbers.
func TestStoreRetention(t *testing.T) {
	in := NewIngester(IngesterOptions{Retain: 2})
	in.Ingest(TimedEdge{U: 0, V: 1})
	e1 := in.Seal()
	release := e1.Pin()
	in.Ingest(TimedEdge{U: 1, V: 2})
	in.Seal()
	in.Ingest(TimedEdge{U: 2, V: 3})
	in.Seal()

	st := in.Store()
	// e1 is pinned: nothing could be pruned (pruning only removes a prefix).
	if st.Len() != 3 {
		t.Fatalf("pinned store pruned to %d epochs, want 3", st.Len())
	}
	release()
	in.Ingest(TimedEdge{U: 3, V: 4})
	e4 := in.Seal()
	if st.Len() != 2 {
		t.Fatalf("store holds %d epochs after prune, want 2", st.Len())
	}
	if _, ok := st.At(1); ok {
		t.Fatalf("pruned epoch 1 still resolves")
	}
	if got, ok := st.At(4); !ok || got != e4 {
		t.Fatalf("epoch 4 does not resolve after prune")
	}
	if latest, ok := st.Latest(); !ok || latest.Seq != 4 {
		t.Fatalf("latest is not epoch 4")
	}
}

// TestStoreConcurrentReaders races seals against lock-free readers under the
// race detector: readers must always observe a consistent, monotonic list.
func TestStoreConcurrentReaders(t *testing.T) {
	stream := randomStream(t, 30, 200, 3)
	in := NewIngester(IngesterOptions{Universe: 30})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				if e, ok := in.Store().Latest(); ok {
					if e.Seq < last {
						t.Error("latest epoch went backwards")
						return
					}
					last = e.Seq
					_ = e.Graph().NumEdges()
				}
			}
		}()
	}
	for i := 0; i < len(stream); i += 20 {
		in.IngestBatch(stream[i : i+20])
		in.Seal()
	}
	close(stop)
	wg.Wait()
}

// TestDeltaIdenticalSnapshots pins the epoch-store edge case of sealing with
// no new edges: the delta between structurally identical snapshots is empty.
func TestDeltaIdenticalSnapshots(t *testing.T) {
	in := NewIngester(IngesterOptions{})
	in.IngestBatch([]TimedEdge{{U: 0, V: 1}, {U: 1, V: 2}})
	e1 := in.Seal()
	e2 := in.Seal() // nothing new
	d := NewDelta(e1.Graph(), e2.Graph())
	if d.NumEdges() != 0 {
		t.Fatalf("identical snapshots produced %d delta edges", d.NumEdges())
	}
	if d2 := NewDelta(e1.Graph(), e1.Graph()); d2.NumEdges() != 0 {
		t.Fatalf("self-delta produced %d edges", d2.NumEdges())
	}
}

// TestDeltaUniverseGrowth pins NewDelta across epochs whose node universes
// differ: nodes beyond the earlier universe contribute all their edges, and
// padding the earlier snapshot first gives the same answer.
func TestDeltaUniverseGrowth(t *testing.T) {
	g1 := FromEdges(3, []Edge{{0, 1}, {1, 2}})
	g2 := FromEdges(6, []Edge{{0, 1}, {1, 2}, {2, 4}, {4, 5}, {0, 3}})
	want := []Edge{{0, 3}, {2, 4}, {4, 5}}
	d := NewDelta(g1, g2)
	if !reflect.DeepEqual(d.Edges, want) {
		t.Fatalf("growth delta = %v, want %v", d.Edges, want)
	}
	padded := NewDelta(PadUniverse(g1, 6), g2)
	if !reflect.DeepEqual(padded.Edges, want) {
		t.Fatalf("padded growth delta = %v, want %v", padded.Edges, want)
	}
}
