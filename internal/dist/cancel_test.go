package dist

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/sssp"
)

// slowSource wraps a Source so each row blocks until released, letting the
// cancellation tests park a sweep mid-flight deterministically. It is not a
// *BFS on purpose: the session-pool paths are what the drain contract
// protects.
type slowSource struct {
	inner   Source
	started atomic.Int64
	release chan struct{}
}

func newSlowSource(inner Source) *slowSource {
	return &slowSource{inner: inner, release: make(chan struct{})}
}

func (s *slowSource) NumNodes() int             { return s.inner.NumNodes() }
func (s *slowSource) NumEdges() int             { return s.inner.NumEdges() }
func (s *slowSource) Degree(u int) int          { return s.inner.Degree(u) }
func (s *slowSource) NeighborIDs(u int) []int32 { return s.inner.NeighborIDs(u) }
func (s *slowSource) NewSession() Session       { return s }

func (s *slowSource) DistancesInto(src int, dst []int32) {
	s.started.Add(1)
	<-s.release
	s.inner.DistancesInto(src, dst)
}

// TestSweepCtxCancellation pins the drain contract on the generic sweep pool:
// once ctx dies, queued sources are skipped without traversing, the call
// returns ctx's error promptly, and rows delivered before the cut are whole
// and correct.
func TestSweepCtxCancellation(t *testing.T) {
	g := randomGraph(t, 60, 21)
	slow := newSlowSource(NewBFS(g, sssp.Auto))
	sources := make([]int, 20)
	for i := range sources {
		sources[i] = i
	}

	ctx, cancel := context.WithCancel(context.Background())
	var delivered atomic.Int64
	errc := make(chan error, 1)
	go func() {
		errc <- SweepCtx(ctx, slow, sources, 2, func(src int, dst []int32) {
			delivered.Add(1)
		})
	}()

	// Let the two workers park on their first rows, then cut the context and
	// release them: the workers finish those rows whole, then drain the other
	// 18 queued sources without traversing.
	for slow.started.Load() < 2 {
		runtime.Gosched()
	}
	cancel()
	close(slow.release)

	err := <-errc
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := delivered.Load(); got > 4 {
		t.Fatalf("sweep kept traversing after cancel: %d rows delivered", got)
	}
	if started := slow.started.Load(); started >= int64(len(sources)) {
		t.Fatalf("queued sources were traversed after cancel: %d started", started)
	}
}

// TestPairedSweepCtxCancellation is the same contract on the paired generic
// pool.
func TestPairedSweepCtxCancellation(t *testing.T) {
	g1, g2 := evolvedPair(t, 60, 23)
	slow1 := newSlowSource(NewBFS(g1, sssp.Auto))
	p := Pair{S1: slow1, S2: NewBFS(g2, sssp.Auto)}
	sources := make([]int, 20)
	for i := range sources {
		sources[i] = i
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- PairedSweepCtx(ctx, p, sources, 2, func(src int, d1, d2 []int32) {})
	}()
	for slow1.started.Load() < 2 {
		runtime.Gosched()
	}
	cancel()
	close(slow1.release)
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if started := slow1.started.Load(); started >= int64(len(sources)) {
		t.Fatalf("queued sources were traversed after cancel: %d started", started)
	}
}

// TestSweepCtxCancelBFSKernels pins that the BFS-backed kernel drivers (the
// wide bit-parallel path included) honor cancellation: a pre-canceled context
// sweeps nothing and returns its error, for every engine.
func TestSweepCtxCancelBFSKernels(t *testing.T) {
	g := randomGraph(t, 80, 25)
	sources := make([]int, 70) // > 64 forces the wide path to chunk
	for i := range sources {
		sources[i] = i
	}
	for _, e := range []sssp.Engine{sssp.TopDown, sssp.BitParallel64} {
		src := NewBFS(g, e)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		swept := 0
		err := SweepCtx(ctx, src, sources, 2, func(int, []int32) { swept++ })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("engine %v: got %v, want context.Canceled", e, err)
		}
		if swept != 0 {
			t.Fatalf("engine %v: pre-canceled sweep delivered %d rows", e, swept)
		}
	}
}

// TestSweepReusableAfterCancel pins the "scratch stays reusable" half of the
// contract: a source whose sweep was canceled must produce correct rows on
// the next, uncanceled sweep.
func TestSweepReusableAfterCancel(t *testing.T) {
	g := randomGraph(t, 80, 27)
	src := NewBFS(g, sssp.BitParallel64)
	sources := make([]int, 70)
	for i := range sources {
		sources[i] = i
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = SweepCtx(ctx, src, sources, 2, func(int, []int32) {})

	want := DistanceMatrix(NewBFS(g, sssp.TopDown), sources, 1)
	got := DistanceMatrix(src, sources, 2)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("post-cancel sweep rows differ")
	}
}
