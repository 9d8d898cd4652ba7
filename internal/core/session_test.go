package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/budget"
	"repro/internal/candidates"
	"repro/internal/dist"
	"repro/internal/graph"
)

// resultsEqual compares everything a served query promises to keep
// bit-identical to a one-shot run: pairs, candidates, budget report, and
// selector name. Phases are wall-clock and deliberately excluded.
func resultsEqual(a, b *Result) bool {
	return reflect.DeepEqual(a.Pairs, b.Pairs) &&
		reflect.DeepEqual(a.Candidates, b.Candidates) &&
		a.Budget == b.Budget &&
		a.SelectorName == b.SelectorName
}

// TestSessionMatchesOneShot pins the session invariant across selectors:
// N queries on one Session return exactly what N one-shot TopK calls
// return.
func TestSessionMatchesOneShot(t *testing.T) {
	sp := growingPair(t, 120, 3)
	sess, err := NewSession(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []candidates.Selector{
		candidates.Degree(), candidates.Random(), candidates.MaxMin(), candidates.SumDiff(),
	} {
		opts := Options{Selector: sel, M: 15, L: 5, K: 5, Seed: 42}
		want, err := TopK(sp, opts)
		if err != nil {
			t.Fatalf("%s one-shot: %v", sel.Name(), err)
		}
		// Two session queries back to back: the second exercises reused
		// sources and pooled scratch.
		for rep := 0; rep < 2; rep++ {
			got, err := sess.TopK(context.Background(), opts)
			if err != nil {
				t.Fatalf("%s session rep %d: %v", sel.Name(), rep, err)
			}
			if !resultsEqual(want, got) {
				t.Fatalf("%s rep %d: session result diverged from one-shot", sel.Name(), rep)
			}
		}
	}
}

// TestSessionConcurrentQueries runs queries with different seeds and budgets
// concurrently on one Session and checks each against its own one-shot run —
// the serve layer's exact usage pattern.
func TestSessionConcurrentQueries(t *testing.T) {
	sp := growingPair(t, 100, 7)
	sess, err := NewSession(sp)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := Options{Selector: candidates.Random(), M: 4 + i, K: 4, Seed: int64(100 + i)}
			want, err := TopK(sp, opts)
			if err != nil {
				t.Error(err)
				return
			}
			got, err := sess.TopK(context.Background(), opts)
			if err != nil {
				t.Error(err)
				return
			}
			if !resultsEqual(want, got) {
				t.Errorf("query %d diverged under concurrency", i)
			}
		}()
	}
	wg.Wait()
}

// TestSessionCancellation pins ctx semantics: a pre-canceled context fails
// before spending budget, and the session stays fully usable afterwards.
func TestSessionCancellation(t *testing.T) {
	sp := growingPair(t, 80, 9)
	sess, err := NewSession(sp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	meter := budget.NewMeter(6)
	opts := Options{Selector: candidates.Degree(), M: 6, K: 4, Meter: meter}
	if _, err := sess.TopK(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if spent := meter.Report().Total(); spent != 0 {
		t.Fatalf("canceled query spent %d SSSPs", spent)
	}
	got, err := sess.TopK(context.Background(), Options{Selector: candidates.Degree(), M: 6, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := TopK(sp, Options{Selector: candidates.Degree(), M: 6, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(want, got) {
		t.Fatalf("session diverged after a canceled query")
	}
}

// TestSessionSourcesMatchesOneShot pins the serve wiring at the core layer:
// a session built by NewSessionSources over a BFS pair, as serve builds one
// per epoch window, returns bit-identical results to the one-shot run.
func TestSessionSourcesMatchesOneShot(t *testing.T) {
	sp := growingPair(t, 100, 11)
	sess, err := NewSessionSources(dist.BFSPair(sp))
	if err != nil {
		t.Fatal(err)
	}
	// MaxMin exercises selector-side rows (dispersion picks), not just
	// extraction.
	opts := Options{Selector: candidates.MaxMin(), M: 6, K: 5, Seed: 13}
	want, err := TopK(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.TopK(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(want, got) {
		t.Fatal("sources session diverged from one-shot")
	}
}

// TestSessionValidation pins constructor and per-query validation errors.
func TestSessionValidation(t *testing.T) {
	bad := graph.SnapshotPair{G1: graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}), G2: graph.FromEdges(2, nil)}
	if _, err := NewSession(bad); err == nil {
		t.Fatal("invalid pair accepted")
	}
	if _, err := NewSessionSources(dist.Pair{}); err == nil {
		t.Fatal("nil sources accepted")
	}
	sp := growingPair(t, 30, 15)
	sess, err := NewSession(sp)
	if err != nil {
		t.Fatal(err)
	}
	if sess.NumNodes() != sp.G1.NumNodes() {
		t.Fatalf("session universe %d, want %d", sess.NumNodes(), sp.G1.NumNodes())
	}
	if _, err := sess.TopK(context.Background(), Options{M: 5, K: 3}); err != ErrNoSelector {
		t.Fatalf("err = %v, want ErrNoSelector", err)
	}
	if _, err := sess.TopK(context.Background(), Options{Selector: candidates.Degree(), M: 0, K: 3}); err == nil {
		t.Fatal("m=0 accepted")
	}
	// nil ctx means background, matching the one-shot wrappers.
	if _, err := sess.TopK(nil, Options{Selector: candidates.Degree(), M: 4, K: 3}); err != nil { //nolint:staticcheck
		t.Fatalf("nil ctx: %v", err)
	}
}
