package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/candidates"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/prune"
	"repro/internal/sssp"
	"repro/internal/topk"
)

// Session is the reusable form of Algorithm 1 over one snapshot pair:
// distance sources and the paired engine are prepared once, and
// extraction's distance rows are pooled, across queries, so a service
// answering many queries over the same epoch window pays setup cost once
// instead of per call. Results are bit-identical to the one-shot
// TopK path — the session caches machine state (visible in kernel metrics
// and allocation profiles), never anything that feeds the algorithm's
// output.
//
// A Session is safe for concurrent TopK calls: queries share the paired
// engine, which holds no traversal state, and each borrows its own rows
// from the pool; traversal scratch comes from sssp's pools.
type Session struct {
	src  dist.Pair
	pair graph.SnapshotPair // structural view; zero for metric-only sources
	// kernel names the traversal kernel family the sources run (bfs or
	// dijkstra) for the flight record's fingerprint.
	kernel string
	// paired is built once in newSession and called by every extraction
	// worker of any query.
	paired *dist.PairedEngine
	// rows recycles extraction's distance rows (*[]int32 of NumNodes): a
	// query's swept t1 rows and its workers' t2 rows, none of them ever
	// cached. They are pooled one by one, not as one block: a lone pooled
	// block sits in the private slot of the P that put it back, out of
	// reach of the next query when that runs on another P, while rows
	// beyond the first land in the pool's shared lists, which any P can
	// take from (EXPERIMENTS.md, "Why extraction sweeps its t1 rows").
	rows sync.Pool
}

// SessionConfig remains only for callers written against the deleted
// kernel-selection knob; NewSession ignores it.
//
// Deprecated: a session has no machine-level knobs left to configure.
type SessionConfig struct{}

// NewSession prepares a reusable session over an unweighted snapshot pair
// with BFS distance sources. The SessionConfig arguments are ignored.
func NewSession(pair graph.SnapshotPair, _ ...SessionConfig) (*Session, error) {
	if err := pair.Validate(); err != nil {
		return nil, err
	}
	return newSession(dist.BFSPair(pair), pair), nil
}

// NewSessionSources prepares a session over arbitrary distance sources: the
// weighted pipeline's Dijkstra pair, or the serve layer's BFS pair over an
// epoch window. It checks only that the universes match; the caller vouches
// for the growing-snapshot invariant. Structural selectors work when both
// sources are BFS-backed.
func NewSessionSources(src dist.Pair) (*Session, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	var pair graph.SnapshotPair
	if g1, ok := dist.UnweightedGraph(src.S1); ok {
		if g2, ok := dist.UnweightedGraph(src.S2); ok {
			pair = graph.SnapshotPair{G1: g1, G2: g2}
		}
	}
	return newSession(src, pair), nil
}

func newSession(src dist.Pair, pair graph.SnapshotPair) *Session {
	kernel := fmt.Sprintf("%T", src.S1)
	switch src.S1.(type) {
	case *dist.BFS:
		kernel = "bfs"
	case *dist.Dijkstra:
		kernel = "dijkstra"
	}
	return &Session{src: src, pair: pair, kernel: kernel, paired: dist.NewPairedEngine(src, dist.PairedFull)}
}

// Sources returns the session's distance-source pair.
func (s *Session) Sources() dist.Pair { return s.src }

// NumNodes returns the shared node-universe size.
func (s *Session) NumNodes() int { return s.src.NumNodes() }

// borrowRows takes count distance rows from the pool, allocating the ones
// it lacks. Give them back with returnRows.
func (s *Session) borrowRows(count int) []*[]int32 {
	rows := make([]*[]int32, count)
	for j := range rows {
		r, _ := s.rows.Get().(*[]int32)
		if r == nil {
			r = new([]int32)
			*r = make([]int32, s.src.NumNodes())
		}
		rows[j] = r
	}
	return rows
}

// returnRows puts borrowed rows back in the pool.
func (s *Session) returnRows(rows []*[]int32) {
	for _, r := range rows {
		s.rows.Put(r)
	}
}

// TopK runs one query of Algorithm 1 on the session. It is the former
// package-level run body, with two session-era additions: prepared state is
// reused across calls, and ctx cancels the query between phases, after
// extraction's t1 sweep and between extraction candidates (rows in flight
// finish whole; pooled scratch stays reusable). Every SSSP is charged to
// opts.Meter (or a fresh 2M meter when nil) before the traversal runs.
func (s *Session) TopK(ctx context.Context, opts Options) (result *Result, err error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	meter := opts.Meter
	if meter == nil {
		meter = budget.NewMeter(opts.M)
	}
	// Telemetry brackets the whole query (every path from here records one
	// flight entry and one total-phase histogram sample).
	//convlint:nondet phase latency is observational, not part of results
	runStart := time.Now()
	kernelsBefore := sssp.SnapshotMetrics()
	var phases obs.PhaseNanos
	var pstats PruneStats
	workers := 0 // extraction workers, resolved once the candidates are known
	defer func() {
		recordRun(opts, s.kernel, workers, meter, kernelsBefore, pstats, runStart, phases, result, err)
	}()
	tr := opts.Trace
	key := warmCacheKey(opts)
	// A caller's meter may arrive partly spent: the trace and the memo read
	// this query's spending against start.
	start := meter.Report()
	run := tr.StartSpan("algorithm1",
		obs.Str("selector", opts.Selector.Name()),
		obs.Int("m", opts.M), obs.Int("k", opts.K),
		obs.Int("nodes", s.src.NumNodes()))
	defer run.End()
	if key != "" {
		if pairs, cands, spent, ok := opts.Warm.Lookup(key); ok {
			// Charge the cold run's spending, one charge per phase, so the
			// meter (and the trace's per-phase attribution) report the
			// identical spending.
			if err := chargeWarm(meter, tr, budget.PhaseCandidateGen, spent.CandidateGen); err != nil {
				return nil, fmt.Errorf("core: candidate generation (%s): %w", opts.Selector.Name(), err)
			}
			if err := chargeWarm(meter, tr, budget.PhaseTopK, spent.TopK); err != nil {
				return nil, fmt.Errorf("core: extraction phase: %w", err)
			}
			run.Set(obs.Int("warm-hit", 1))
			return &Result{Pairs: pairs, Candidates: cands, Budget: meter.Report(), SelectorName: opts.Selector.Name()}, nil
		}
	}
	rng := opts.RNG
	if rng == nil {
		rng = rand.New(rand.NewSource(opts.Seed))
	}
	cctx := &candidates.Context{
		Pair:    s.pair,
		S1:      s.src.S1,
		S2:      s.src.S2,
		M:       opts.M,
		L:       opts.L,
		RNG:     rng,
		Meter:   meter,
		Workers: opts.Workers,
		Ctx:     ctx,
	}
	//convlint:nondet phase latency is observational, not part of results
	selStart := time.Now()
	selSpan := tr.StartSpan("selection", obs.Str("selector", opts.Selector.Name()))
	cands, selErr := opts.Selector.Select(cctx)
	if n := meter.Report().CandidateGen - start.CandidateGen; n > 0 {
		tr.AddSSSP(budget.PhaseCandidateGen.String(), n)
	}
	selSpan.Set(obs.Int("candidates", len(cands)),
		obs.Int("d1-rows-cached", len(cctx.D1Rows)), obs.Int("d2-rows-cached", len(cctx.D2Rows)))
	selSpan.End()
	//convlint:nondet phase latency is observational, not part of results
	phases.Selection = time.Since(selStart).Nanoseconds()
	selectionNS.Observe(phases.Selection)
	if selErr != nil {
		return nil, fmt.Errorf("core: candidate generation (%s): %w", opts.Selector.Name(), selErr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(cands) > opts.M {
		return nil, fmt.Errorf("core: selector %s returned %d candidates for budget m=%d",
			opts.Selector.Name(), len(cands), opts.M)
	}
	// Defensive dedupe: a duplicated candidate would double-charge the
	// budget and double-count its pairs. The membership it builds is the one
	// extraction reads for every node of every candidate row.
	inM := make([]bool, s.src.NumNodes())
	uniq := cands[:0]
	for _, u := range cands {
		if u < 0 || u >= len(inM) {
			return nil, fmt.Errorf("core: selector %s returned out-of-range candidate %d",
				opts.Selector.Name(), u)
		}
		if !inM[u] {
			inM[u] = true
			uniq = append(uniq, u)
		}
	}
	cands = uniq
	workers = sssp.ClampWorkers(opts.Workers, len(cands))
	var pairs []topk.Pair
	pairs, pstats, err = s.extractPairs(ctx, cctx, cands, inM, workers, opts, meter, &phases)
	if err != nil {
		return nil, err
	}
	rep := meter.Report()
	if key != "" {
		opts.Warm.Store(key, pairs, cands, budget.Report{
			CandidateGen: rep.CandidateGen - start.CandidateGen,
			TopK:         rep.TopK - start.TopK,
		})
	}
	return &Result{
		Pairs:        pairs,
		Candidates:   cands,
		Budget:       rep,
		SelectorName: opts.Selector.Name(),
		Phases:       phases,
		Pruned:       pstats,
	}, nil
}

// chargeWarm charges n SSSPs of a warm hit's stored spending in phase p and
// attributes them to the trace. A phase that spent nothing makes no charge.
func chargeWarm(meter *budget.Meter, tr *obs.Trace, p budget.Phase, n int) error {
	if n == 0 {
		return nil
	}
	if err := meter.Charge(p, n); err != nil {
		return err
	}
	tr.AddSSSP(p.String(), n)
	return nil
}

// warmCacheKey is the query's result-determining shape, the key of its
// memo entry: selector, m, l, seed, k and δ. It is empty when the memo is
// off or the shape is unkeyable (an external RNG).
func warmCacheKey(opts Options) string {
	if opts.Warm == nil || opts.RNG != nil {
		return ""
	}
	return fmt.Sprintf("%s|m%d|l%d|s%d|k%d|d%d", opts.Selector.Name(), opts.M, opts.L, opts.Seed, opts.K, opts.MinDelta)
}

// extractPairs implements lines 2-5 of Algorithm 1: compute D1 and D2 rows
// for the candidate set (reusing rows the selector cached), form the
// pairwise deltas, and keep the top pairs. inM marks the candidates, indexed
// by node; workers is the resolved extraction worker count.
//
// Every query runs Δ-threshold pruned extraction: a shared monotone
// threshold T starts at its floor (δ for a MinDelta query, 1 for a top-K
// query), tracks the kth-best Δ offered so far on a top-K query and never
// rises on a δ query, and three cuts act on it. Second-snapshot traversals
// stop once no undiscovered node can still yield delta >= T
// (sssp.PrunedSecondBFS); candidates whose landmark upper bound proves
// every one of their pairs is strictly below T are skipped whole; and a
// pair whose delta is strictly below T is never emitted, so sort-cut sorts
// only pairs that could still be returned. All three are output-invariant:
// only pairs with delta strictly below T are ever dropped, and T never
// exceeds the final kth Δ of a top-K query or the δ of a δ query. Budget
// charges are identical — the charge above counts rows produced, and a
// skipped candidate's rows were still charged.
//
// The G_t1 rows selection did not cache are computed before the workers
// start, by one dist.RowsInto sweep into pooled rows, for every
// candidate whose landmark bound reaches the threshold's floor (one below
// it is skipped at dequeue whatever T does). The workers then derive each
// candidate's bounded t2 row and emit its pairs. A query cancelled once
// the workers started still returns its skips and cuts.
func (s *Session) extractPairs(ctx context.Context, cctx *candidates.Context, cands []int, inM []bool, workers int, opts Options, meter *budget.Meter, phases *obs.PhaseNanos) ([]topk.Pair, PruneStats, error) {
	if len(cands) == 0 {
		return nil, PruneStats{}, nil
	}
	n := s.src.NumNodes()
	tr := opts.Trace

	// Charge exactly the SSSP computations the caches cannot cover.
	toCharge := 0
	for _, u := range cands {
		if _, ok := cctx.D1Rows[u]; !ok {
			toCharge++
		}
		if _, ok := cctx.D2Rows[u]; !ok {
			toCharge++
		}
	}
	//convlint:nondet phase latency is observational, not part of results
	extStart := time.Now()
	extSpan := tr.StartSpan("extraction",
		obs.Int("candidates", len(cands)), obs.Int("cache-misses", toCharge))
	if err := meter.Charge(budget.PhaseTopK, toCharge); err != nil {
		extSpan.End()
		//convlint:nondet phase latency is observational, not part of results
		phases.Extraction = time.Since(extStart).Nanoseconds()
		extractionNS.Observe(phases.Extraction)
		return nil, PruneStats{}, fmt.Errorf("core: extraction phase: %w", err)
	}
	tr.AddSSSP(budget.PhaseTopK.String(), toCharge)

	th := prune.NewThreshold(opts.K, opts.MinDelta)
	ubounds := landmarkBounds(cctx, cands)
	// d1s[i] is cands[i]'s t1 row: the selector's cached row, a row of the
	// sweep below, or nil for a candidate the floor already skips.
	floor := th.Load()
	d1s := make([][]int32, len(cands))
	var swept, sweptAt []int
	for i, u := range cands {
		if row, ok := cctx.D1Rows[u]; ok {
			d1s[i] = row
		} else if ubounds == nil || ubounds[i] >= floor {
			swept = append(swept, u)
			sweptAt = append(sweptAt, i)
		}
	}
	// The pooled rows are the swept t1 rows, then one t2 row per worker.
	pooled := s.borrowRows(len(swept) + workers)
	defer s.returnRows(pooled)
	t1 := make([][]int32, len(swept))
	for j, i := range sweptAt {
		t1[j] = *pooled[j]
		d1s[i] = t1[j]
	}
	dist.RowsInto(s.src.S1, swept, t1, workers)

	//convlint:shared lock-free skip and cut tallies; workers only Add, read after Wait
	var skipped, cutoffs atomic.Int64
	// Processing order: largest upper bound first, so the candidates most
	// likely to hold top pairs tighten the threshold before the hopeless tail
	// is even dequeued. The order permutation leaves cands itself untouched —
	// Result.Candidates must stay in selector order.
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	if ubounds != nil {
		sort.SliceStable(order, func(a, b int) bool { return ubounds[order[a]] > ubounds[order[b]] })
	}

	var mu sync.Mutex
	var all []topk.Pair
	next := make(chan int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		d2buf := *pooled[len(swept)+w]
		wg.Add(1)
		// The pprof label splits CPU/goroutine profiles by subsystem, so an
		// extraction-heavy run shows up as such in /debug/pprof.
		go pprof.Do(context.Background(), pprof.Labels("subsystem", "core-extract"),
			func(context.Context) {
				defer wg.Done()
				var local []topk.Pair
				for i := range next {
					// A query cancelled during the sweep or since then
					// drains without traversing.
					if ctx.Err() != nil {
						continue
					}
					// Whole-candidate skip: the landmark bound caps every
					// pair involving this candidate (including pairs it
					// would have found for larger candidates), so a bound
					// strictly below T proves none can be returned. Ties at
					// T are kept.
					if ubounds != nil && ubounds[i] < th.Load() {
						skipped.Add(1)
						continue
					}
					u := cands[i]
					d1, d2 := d1s[i], cctx.D2Rows[u]
					// Selectors cache a d2 row only beside its d1 row
					// (Context.CacheRows); every other candidate derives
					// its t2 row from d1 here.
					if d2 == nil {
						if s.paired.DeriveInto(u, d1, d2buf, th.Load) {
							cutoffs.Add(1)
						}
						d2 = d2buf
					}
					// Emission cut: lo = T, re-read at the row start and
					// after every offer. A pair strictly below lo cannot be
					// returned, and Offer would ignore it (it drops any
					// delta <= T), so skipping it leaves the threshold's
					// evolution unchanged. Ties at lo are kept.
					lo := th.Load()
					for v := 0; v < n; v++ {
						if v == u || (inM[v] && v < u) {
							continue // the pair is found from the smaller candidate
						}
						// d2 < 0 with d1 > 0 marks a node a cut abandoned:
						// its Δ is below the max(1, T) the cut read, and lo,
						// read since from a threshold that only rises and is
						// at least 1, is no smaller. An uncut row reaches
						// every node with d1 > 0.
						if d1[v] <= 0 || d2[v] < 0 {
							continue
						}
						delta := d1[v] - d2[v]
						if delta < lo {
							continue
						}
						th.Offer(delta)
						lo = th.Load()
						p := topk.Pair{U: int32(u), V: int32(v), D1: d1[v], D2: d2[v], Delta: delta}
						if p.U > p.V {
							p.U, p.V = p.V, p.U
						}
						local = append(local, p)
					}
				}
				mu.Lock()
				all = append(all, local...) //convlint:shared per-worker batches merged under mu
				mu.Unlock()
			})
	}
	for _, i := range order {
		next <- i
	}
	close(next)
	wg.Wait()
	pstats := PruneStats{CandidatesSkipped: int(skipped.Load()), Cutoffs: int(cutoffs.Load())}
	prune.SkipCandidates(pstats.CandidatesSkipped)
	extSpan.Set(obs.Int("t1-swept", len(swept)), obs.Int("emitted-pairs", len(all)),
		obs.Int("pruned-skipped", pstats.CandidatesSkipped))
	extSpan.End()
	//convlint:nondet phase latency is observational, not part of results
	phases.Extraction = time.Since(extStart).Nanoseconds()
	extractionNS.Observe(phases.Extraction)
	if err := ctx.Err(); err != nil {
		return nil, pstats, err
	}

	//convlint:nondet phase latency is observational, not part of results
	cutStart := time.Now()
	cutSpan := tr.StartSpan("sort-cut", obs.Int("pairs", len(all)))
	all = topk.TopPairs(all, opts.K)
	cutSpan.Set(obs.Int("kept", len(all)))
	cutSpan.End()
	//convlint:nondet phase latency is observational, not part of results
	phases.SortCut = time.Since(cutStart).Nanoseconds()
	sortCutNS.Observe(phases.SortCut)
	return all, pstats, nil
}

// landmarkBounds computes, per candidate, a cheap upper bound on the Δ of
// any pair involving it, from the landmark rows a landmark-using selector
// left in the context. For a landmark w and nodes u, v all reachable from w
// in G1 (G1 ⊆ G2 keeps them reachable in G2):
//
//	d1(u,v) <= ld1[w][u] + ld1[w][v]        (triangle in G1)
//	d2(u,v) >= ld2[w][v] - ld2[w][u]        (triangle in G2)
//	Δ(u,v)  <= (ld1[w][u] + ld2[w][u]) + (ld1[w][v] - ld2[w][v])
//	        <= (ld1[w][u] + ld2[w][u]) + maxΛ(w)
//
// where maxΛ(w) = max over reachable v of (ld1[w][v] - ld2[w][v]) — computed
// once per landmark, O(l·n) total, then O(l) per candidate. Pairs whose far
// endpoint is unreachable from w in G1 are either d1-infinite (never emitted)
// or in a component not containing w, in which case u is also unreachable
// from w and w contributes no bound (MaxInt32 = never skip). Returns nil when
// no landmark has both rows cached (non-landmark selectors).
func landmarkBounds(cctx *candidates.Context, cands []int) []int32 {
	if len(cctx.LandmarkNodes) == 0 {
		return nil
	}
	type lmBound struct {
		d1, d2 []int32
		maxL   int32
	}
	var lms []lmBound
	for _, w := range cctx.LandmarkNodes {
		ld1, ld2 := cctx.D1Rows[w], cctx.D2Rows[w]
		if ld1 == nil || ld2 == nil {
			continue
		}
		var maxL int32 // >= 0: v == w contributes 0 - 0
		for v := range ld1 {
			if ld1[v] >= 0 && ld2[v] >= 0 {
				if d := ld1[v] - ld2[v]; d > maxL {
					maxL = d
				}
			}
		}
		lms = append(lms, lmBound{d1: ld1, d2: ld2, maxL: maxL})
	}
	if len(lms) == 0 {
		return nil
	}
	bounds := make([]int32, len(cands))
	for i, u := range cands {
		b := int32(math.MaxInt32)
		for _, lm := range lms {
			if lm.d1[u] < 0 || lm.d2[u] < 0 {
				continue
			}
			if v := lm.d1[u] + lm.d2[u] + lm.maxL; v < b {
				b = v
			}
		}
		bounds[i] = b
	}
	return bounds
}
