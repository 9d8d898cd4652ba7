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
	"repro/internal/obs"
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

// TestSessionConcurrentQueries runs queries with different selectors, seeds
// and budgets concurrently on one Session and checks each against its own
// one-shot run — the serve layer's exact usage pattern. MMSD and MaxMin
// queries sweep landmarks and pick dispersed nodes, so concurrent queries
// share sssp's pooled scratch as well as the session's paired engine. The
// second half runs one extraction worker, where a query's skips and cuts
// are deterministic: they must equal the one-shot run's, and every flight
// record of the query must carry its own cut count, which a delta of the
// global counters would mix with the overlapping queries' cuts.
func TestSessionConcurrentQueries(t *testing.T) {
	sp := growingPair(t, 100, 7)
	sess, err := NewSession(sp)
	if err != nil {
		t.Fatal(err)
	}
	selectors := []candidates.Selector{candidates.Random(), candidates.MMSD(), candidates.MaxMin()}
	const queries = 9
	queryOpts := func(i int) Options {
		opts := Options{Selector: selectors[i%3], M: 12 + i%queries, L: 4, K: 4, Seed: int64(100 + i%queries)}
		if i >= queries {
			opts.Workers = 1
		}
		return opts
	}
	firstRecord := obs.Flight.Total()
	results := make([]*Result, 2*queries)
	var wg sync.WaitGroup
	for i := 0; i < 2*queries; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := queryOpts(i)
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
			if opts.Workers == 1 && got.Pruned != want.Pruned {
				t.Errorf("one-worker query %d: pruned %+v, one-shot %+v", i, got.Pruned, want.Pruned)
			}
			results[i] = got
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	recs := obs.Flight.Last(int(obs.Flight.Total() - firstRecord))
	cuts := 0
	for i := queries; i < 2*queries; i++ {
		fp, want := fingerprint(queryOpts(i), sess.kernel, 1), int64(results[i].Pruned.Cutoffs)
		cuts += results[i].Pruned.Cutoffs
		seen := 0
		for _, rec := range recs {
			if rec.Fingerprint != fp {
				continue
			}
			seen++
			if rec.Kernels.PrunedCutoffs != want {
				t.Errorf("query %d: flight record pruned_cutoffs = %d, Result.Pruned.Cutoffs = %d",
					i, rec.Kernels.PrunedCutoffs, want)
			}
		}
		if seen < 2 {
			t.Errorf("query %d: %d flight records with fingerprint %q, want its one-shot and session runs", i, seen, fp)
		}
	}
	if cuts == 0 {
		t.Error("no one-worker query cut a bounded row: the per-query cut count went untested")
	}
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
