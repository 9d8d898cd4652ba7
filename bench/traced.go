package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"repro/internal/budget"
	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/export"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sssp"
)

// tracedRun is what the traced pass measured: per-query path times, graph
// layer timings, and work counts summed over the traced queries.
type tracedRun struct {
	checked
	perQuery                        []pathTimes
	pairedBuildMS, windowUS, sealMS []float64
	ingestNS, ingestEdges           float64
	// Exact work: budget and kernel counters of the one-shot reference run
	// (cold, one extraction worker), split by the direct selector call.
	budgetSel, budgetExt                    float64
	selEdges, selNodes, extEdges, extNodes  float64
	repairEdges, skipped, cutoffs, extNanos float64
}

// pathTimes is one traced query's wall time on each entry point, in
// milliseconds, NaN where that path's answer was wrong. Keeping them per
// query lets the report take paired differences, which cancel the
// query-to-query (and graph-to-graph) variation all paths share.
type pathTimes struct {
	dep, idx                               int // deployment and query index
	http, query, topk, unbatched, selectMS float64
	sel, ext, cut                          float64 // batched session's Result.Phases
	uSel, uExt                             float64 // unbatched session's
}

// windowSession is a query session over one epoch window with its own warm
// cache, the way serve keeps one per cached window.
type windowSession struct {
	win  *graph.Window
	sess *core.Session
	warm *candidates.Warm
}

// sessionPath is one library entry point's session cache. Each path starts
// empty, so warm-cache hits follow the same pattern as in the timed run.
type sessionPath struct {
	name     string
	build    func(*graph.Window) (*core.Session, error)
	sessions map[[2]int]*windowSession
}

func (p *sessionPath) get(store *graph.Store, t1, t2 int) (*windowSession, error) {
	key := [2]int{t1, t2}
	if ws, ok := p.sessions[key]; ok {
		return ws, nil
	}
	win, err := store.Window(t1, t2)
	if err != nil {
		return nil, err
	}
	sess, err := p.build(win)
	if err != nil {
		win.Close()
		return nil, err
	}
	ws := &windowSession{win: win, sess: sess, warm: candidates.NewWarm()}
	p.sessions[key] = ws
	return ws, nil
}

func (p *sessionPath) close() {
	for _, ws := range p.sessions {
		ws.win.Close()
	}
}

// servedSession builds a session exactly as serve does for a window: each
// snapshot's BFS engine wrapped in a dist.Batcher with the default window.
func servedSession(win *graph.Window) (*core.Session, error) {
	return core.NewSessionSources(dist.Pair{
		S1: dist.NewBatcher(dist.NewBFSPar(win.Pair.G1, sssp.Auto, 0), dist.BatcherOptions{}),
		S2: dist.NewBatcher(dist.NewBFSPar(win.Pair.G2, sssp.Auto, 0), dist.BatcherOptions{}),
	})
}

func unbatchedSession(win *graph.Window) (*core.Session, error) {
	return core.NewSession(win.Pair, core.SessionConfig{})
}

// queryOptions mirrors the core.Options serve.Server.Query builds.
func queryOptions(q serve.QueryRequest, warm *candidates.Warm) (core.Options, error) {
	sel, err := candidates.ByName(q.Selector)
	if err != nil {
		return core.Options{}, err
	}
	mode, err := dist.ParsePairedMode(q.Paired)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Selector: sel, M: q.M, L: q.L, K: q.K, Seed: q.Seed,
		PairedMode: mode, Warm: warm, Meter: budget.NewMeter(q.M),
	}, nil
}

func reportJSON(rep export.Report) []byte {
	b, err := json.Marshal(rep)
	if err != nil {
		panic(err) // a Report holds only ints and strings
	}
	return b
}

func resultJSON(q serve.QueryRequest, res *core.Result) []byte {
	return reportJSON(export.NewReport(res.SelectorName, q.M, res.Budget.Total(), res.Budget.Limit, res.Candidates, res.Pairs))
}

// tracer holds the traced pass's per-path state. Every path starts from
// fresh server, session and warm state.
type tracer struct {
	dep   int // deployment index
	cl    *http.Client
	trace *obs.Trace
	run   *tracedRun

	ing                *graph.Ingester // the graph-layer replay; its epochs serve the library paths
	httpSrv            *liveServer
	direct             *serve.Server
	batched, unbatched *sessionPath
}

// span times fn inside a trace span tagged with the query it belongs to
// (-1 for set-up work).
func (t *tracer) span(name string, query int, fn func() error) (time.Duration, error) {
	s := t.trace.StartSpan(name, obs.Int("query", query))
	defer s.End()
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// replay ingests and seals one batch on the graph-layer ingester, timing
// both calls.
func (t *tracer) replay(batch []graph.TimedEdge, query int) error {
	d, err := t.span("graph.Ingester.IngestBatch", query, func() error {
		_, err := t.ing.IngestBatch(batch)
		return err
	})
	if err != nil {
		return err
	}
	t.run.ingestNS += float64(d.Nanoseconds())
	t.run.ingestEdges += float64(len(batch))
	d, _ = t.span("graph.Ingester.Seal", query, func() error { t.ing.Seal(); return nil })
	t.run.sealMS = append(t.run.sealMS, ms(d))
	return nil
}

func (t *tracer) close() {
	if t.httpSrv != nil {
		t.httpSrv.close()
	}
	t.direct.Close()
	t.batched.close()
	t.unbatched.close()
}

// runTraced replays each deployment's first queries with one client
// through every entry point in turn — HTTP, serve.Server.Query,
// core.Session.TopK on a served (Batcher-wrapped) session, the same on an
// unbatched session, and candidates.Selector.Select — after a one-shot
// core.TopK that is both the reference every answer must equal byte for
// byte and the exact work count. The graph layer is timed by replaying the
// set-up batches against a fresh graph.Ingester, whose epochs serve the
// library paths.
func runTraced(w workload, sc scale, seed int64, cl *http.Client) (*tracedRun, *obs.Trace, error) {
	run := &tracedRun{}
	trace := obs.New("bench " + w.name)
	for d := 0; d < w.deployments; d++ {
		in, err := makeInputs(w, seed, d, sc.queries)
		if err != nil {
			return nil, nil, err
		}
		if err := traceDeployment(w, d, in, sc, cl, trace, run); err != nil {
			return nil, nil, fmt.Errorf("deployment %d: %w", d, err)
		}
	}
	return run, trace, nil
}

func traceDeployment(w workload, d int, in *inputs, sc scale, cl *http.Client, trace *obs.Trace, run *tracedRun) error {
	t := &tracer{
		dep: d, cl: cl, trace: trace, run: run,
		ing:       graph.NewIngester(graph.IngesterOptions{}),
		direct:    serve.New(serve.Config{}),
		batched:   &sessionPath{name: "core.Session.TopK (batched)", build: servedSession, sessions: map[[2]int]*windowSession{}},
		unbatched: &sessionPath{name: "core.Session.TopK (unbatched)", build: unbatchedSession, sessions: map[[2]int]*windowSession{}},
	}
	defer t.close()
	for _, b := range in.setup {
		if err := t.replay(b, -1); err != nil {
			return err
		}
		if _, err := t.direct.Ingester().IngestBatch(b); err != nil {
			return err
		}
		t.direct.Ingester().Seal()
	}
	var err error
	if t.httpSrv, _, err = setUp(w, in, cl); err != nil {
		return err
	}
	for j := 0; j < min(perDeployment(sc.traced, w), len(in.queries)); j++ {
		q := in.queries[j]
		id := len(run.perQuery)
		root := trace.StartSpan("query", obs.Int("query", id), obs.Str("selector", q.Selector),
			obs.Int("m", q.M), obs.Int("k", q.K), obs.Str("paired", q.Paired))
		err := t.step(j, id, q)
		root.End()
		if err != nil {
			return fmt.Errorf("traced query %d: %w", j, err)
		}
	}
	return nil
}

// step runs the deployment's query j (trace id id) through every path.
// Errors that leave the pass meaningless are returned; a path whose answer
// is wrong is counted failed.
func (t *tracer) step(j, id int, q serve.QueryRequest) error {
	tr := t.run
	store := t.ing.Store()
	t1, t2 := q.T1, q.T2
	if t1 == 0 && t2 == 0 {
		latest, _ := store.Latest()
		t1, t2 = latest.Seq-1, latest.Seq
	}
	// A window costs microseconds to a few milliseconds; five samples per
	// query steady its median.
	for r := 0; r < 5; r++ {
		d, err := t.span("graph.Store.Window", id, func() error {
			win, err := store.Window(t1, t2)
			if err == nil {
				win.Close()
			}
			return err
		})
		if err != nil {
			return err
		}
		tr.windowUS = append(tr.windowUS, float64(d.Nanoseconds())/1e3)
	}
	win, err := store.Window(t1, t2)
	if err != nil {
		return err
	}
	defer win.Close()
	d, _ := t.span("dist.NewPairedEngine", id, func() error {
		dist.NewPairedEngine(dist.BFSPair(win.Pair, sssp.Auto), dist.PairedIncremental)
		return nil
	})
	tr.pairedBuildMS = append(tr.pairedBuildMS, ms(d))

	// The reference runs one-shot, cold, with one extraction worker, so the
	// kernel counters it moves are exact.
	opts, err := queryOptions(q, nil)
	if err != nil {
		return err
	}
	opts.Workers = 1
	var ref *core.Result
	kBefore, pBefore := sssp.SnapshotMetrics(), sssp.SnapshotPrunedWork()
	if _, err := t.span("core.TopK (one-shot)", id, func() error {
		ref, err = core.TopK(win.Pair, opts)
		return err
	}); err != nil {
		return err
	}
	work := sssp.SnapshotMetrics().Sub(kBefore)
	tr.cutoffs += float64(sssp.SnapshotPrunedWork().Sub(pBefore).Cutoffs)
	tr.budgetSel += float64(ref.Budget.CandidateGen)
	tr.budgetExt += float64(ref.Budget.TopK)
	tr.repairEdges += float64(work.Repair.Edges)
	tr.skipped += float64(ref.Pruned.CandidatesSkipped)
	tr.extNanos += float64(ref.Phases.Extraction)
	want := resultJSON(q, ref)
	same := func(path string, got []byte) error {
		if !bytes.Equal(got, want) {
			return fmt.Errorf("query %d (%s seed %d): %s answer differs from one-shot core.TopK", id, q.Selector, q.Seed, path)
		}
		return nil
	}

	nan := math.NaN()
	pt := pathTimes{dep: t.dep, idx: j, http: nan, query: nan, topk: nan, unbatched: nan, selectMS: nan,
		sel: nan, ext: nan, cut: nan, uSel: nan, uExt: nan}
	var resp *serve.QueryResponse
	d, err = t.span("HTTP /query", id, func() error {
		resp, err = postQuery(t.cl, t.httpSrv.url, "traced", q)
		return err
	})
	if err == nil {
		if err = same("HTTP", reportJSON(resp.Report)); err == nil {
			pt.http = ms(d)
		}
	}
	tr.record(err)

	req := q
	req.Tenant = "traced"
	d, err = t.span("serve.Server.Query", id, func() error {
		resp, _, err = t.direct.Query(nil, &req)
		return err
	})
	if err == nil {
		if err = same("serve.Server.Query", reportJSON(resp.Report)); err == nil {
			pt.query = ms(d)
		}
	}
	tr.record(err)

	bres, bd, err := t.sessionTopK(t.batched, store, t1, t2, id, q, same)
	if err != nil {
		return err
	}
	if bres != nil {
		pt.topk = ms(bd)
		pt.sel, pt.ext, pt.cut = nsMS(bres.Phases.Selection), nsMS(bres.Phases.Extraction), nsMS(bres.Phases.SortCut)
	}
	ures, ud, err := t.sessionTopK(t.unbatched, store, t1, t2, id, q, same)
	if err != nil {
		return err
	}
	if ures != nil {
		pt.unbatched = ms(ud)
		pt.uSel, pt.uExt = nsMS(ures.Phases.Selection), nsMS(ures.Phases.Extraction)
	}

	sel, err := candidates.ByName(q.Selector)
	if err != nil {
		return err
	}
	src := dist.BFSPair(win.Pair, sssp.Auto)
	cctx := &candidates.Context{
		Pair: win.Pair, S1: src.S1, S2: src.S2, M: q.M, L: q.L,
		RNG: rand.New(rand.NewSource(q.Seed)), Meter: budget.NewMeter(q.M), Ctx: context.Background(),
	}
	var cands []int
	kBefore = sssp.SnapshotMetrics()
	d, err = t.span("candidates.Selector.Select", id, func() error {
		cands, err = sel.Select(cctx)
		return err
	})
	selWork := sssp.SnapshotMetrics().Sub(kBefore).Total()
	if err == nil && !sameSet(cands, ref.Candidates) {
		err = fmt.Errorf("query %d (%s seed %d): Selector.Select candidates differ from one-shot core.TopK", id, q.Selector, q.Seed)
	}
	if err == nil {
		pt.selectMS = ms(d)
	}
	tr.record(err)
	tr.perQuery = append(tr.perQuery, pt)
	// The one-shot reference did this same selection work cold, so the rest
	// of its traversal is extraction.
	total := work.Total()
	tr.selEdges += float64(selWork.Edges)
	tr.selNodes += float64(selWork.Nodes)
	tr.extEdges += float64(total.Edges - selWork.Edges)
	tr.extNodes += float64(total.Nodes - selWork.Nodes)
	return nil
}

// sessionTopK runs q on the path's session for the window and checks the
// answer. It returns a nil result when the answer was wrong.
func (t *tracer) sessionTopK(p *sessionPath, store *graph.Store, t1, t2, id int, q serve.QueryRequest,
	same func(string, []byte) error) (*core.Result, time.Duration, error) {
	ws, err := p.get(store, t1, t2)
	if err != nil {
		return nil, 0, err
	}
	opts, err := queryOptions(q, ws.warm)
	if err != nil {
		return nil, 0, err
	}
	var res *core.Result
	d, err := t.span(p.name, id, func() error {
		res, err = ws.sess.TopK(context.Background(), opts)
		return err
	})
	if err == nil {
		err = same(p.name, resultJSON(q, res))
	}
	t.run.record(err)
	if err != nil {
		return nil, d, nil
	}
	return res, d, nil
}

// sameSet reports whether a and b hold the same distinct values.
func sameSet(a, b []int) bool {
	set := func(xs []int) []int {
		s := append([]int(nil), xs...)
		sort.Ints(s)
		out := s[:0]
		for i, x := range s {
			if i == 0 || x != s[i-1] {
				out = append(out, x)
			}
		}
		return out
	}
	sa, sb := set(a), set(b)
	if len(sa) != len(sb) {
		return false
	}
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}
