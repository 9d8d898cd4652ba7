// Package serve is the session-oriented service layer behind cmd/convserve:
// a long-running HTTP/JSON surface over the library's streaming substrate.
// Edges arrive on /ingest and are sealed into immutable epochs (/seal); top-k
// converging-pairs queries run over arbitrary (t1, t2) epoch windows through
// cached core.Sessions, one per window, shared by concurrent queries. No
// traversal is shared between queries. A query runs only once its tenant
// (budget.Registry) has reserved its whole 2m budget, and it charges the
// plain 2m meter that admission hands out, so operators get per-tenant
// limits and per-tenant charge/latency series while each query's budget
// report stays bit-identical to a one-shot convpairs run — the package
// invariant, pinned by TestQueryMatchesOneShot.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/budget"
	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/export"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Per-tenant query latency: one serve.phase_ns series per algorithm phase per
// tenant, observed from each query's Result.Phases. The core.phase_ns series
// stay tenant-blind; these add the tenancy split the operator dashboards cut
// by.
var phaseNames = [...]string{"selection", "extraction", "sort-cut", "total"}

// Config tunes a Server. The zero value serves with library defaults:
// unlimited retention and unlimited auto-created tenants.
type Config struct {
	// Universe fixes the minimum node-universe size of every epoch (see
	// graph.IngesterOptions.Universe). 0 grows with the ingested edges.
	Universe int
	// Retain bounds epoch retention (<= 0 for unlimited).
	Retain int
	// TenantLimit is the SSSP allowance given to tenants created implicitly
	// by their first query (<= 0 means unlimited). Tenants declared via
	// POST /tenants carry their declared limit instead.
	TenantLimit int
	// MaxSessions bounds the cached window sessions (default 8). Evicted
	// sessions release their epoch pins.
	MaxSessions int
}

// Server holds the daemon's state: the edge ingester with its epoch store,
// the tenant registry, and the cache of per-window query sessions.
type Server struct {
	cfg Config
	ing *graph.Ingester
	reg *budget.Registry

	mu       sync.Mutex
	sessions map[winKey]*winSession
	order    []winKey // LRU, least recent first
	phaseNS  map[string]*[4]*obs.Histogram
}

// winKey identifies one (t1, t2) epoch window.
type winKey struct{ T1, T2 int }

// winSession is a cached query session over one epoch window. The window's
// epoch pins are held for the cache lifetime of the entry (released on
// eviction), so retention can never prune an epoch a cached session reads.
type winSession struct {
	win  *graph.Window
	sess *core.Session
	// warm is the window's memo of finished queries, scoped to this
	// (t1, t2) pair: an exact repeat charges the stored spending and
	// returns the stored answer without traversing. Evicting the session
	// drops the memo with it, so warm state can never leak across windows.
	warm *candidates.Warm
}

// New creates a Server.
func New(cfg Config) *Server {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 8
	}
	return &Server{
		cfg:      cfg,
		ing:      graph.NewIngester(graph.IngesterOptions{Universe: cfg.Universe, Retain: cfg.Retain}),
		reg:      budget.NewRegistry(),
		sessions: make(map[winKey]*winSession),
		phaseNS:  make(map[string]*[4]*obs.Histogram),
	}
}

// Ingester exposes the edge ingester (tests seal epochs directly).
func (s *Server) Ingester() *graph.Ingester { return s.ing }

// Registry exposes the tenant registry.
func (s *Server) Registry() *budget.Registry { return s.reg }

// Close releases every cached session's epoch pins.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ws := range s.sessions {
		ws.win.Close()
	}
	s.sessions = make(map[winKey]*winSession)
	s.order = nil
}

// session returns the cached query session for the window, building (and
// caching) it on first use over the window's BFS pair.
func (s *Server) session(t1, t2 int) (*winSession, error) {
	key := winKey{t1, t2}
	s.mu.Lock()
	if ws, ok := s.sessions[key]; ok {
		s.touchLocked(key)
		s.mu.Unlock()
		return ws, nil
	}
	s.mu.Unlock()

	// Build outside the lock (window validation is cheap, but no reason to
	// serialize queries on it); a racing builder of the same key loses below.
	win, err := s.ing.Store().Window(t1, t2)
	if err != nil {
		return nil, err
	}
	sess, err := core.NewSessionSources(dist.BFSPair(win.Pair))
	if err != nil {
		win.Close()
		return nil, err
	}
	ws := &winSession{win: win, sess: sess, warm: candidates.NewWarm()}

	s.mu.Lock()
	defer s.mu.Unlock()
	if cached, ok := s.sessions[key]; ok {
		win.Close() // lost the race; the cached one keeps its pins
		return cached, nil
	}
	s.sessions[key] = ws
	s.order = append(s.order, key)
	for len(s.order) > s.cfg.MaxSessions {
		old := s.order[0]
		s.order = s.order[1:]
		s.sessions[old].win.Close()
		delete(s.sessions, old)
	}
	return ws, nil
}

// touchLocked moves key to the most-recent end of the LRU order.
func (s *Server) touchLocked(key winKey) {
	for i, k := range s.order {
		if k == key {
			s.order = append(append(s.order[:i:i], s.order[i+1:]...), key)
			return
		}
	}
}

// tenantPhaseNS returns (building on first use) the tenant's serve.phase_ns
// histograms. The obs registry is last-wins, so a restarted server re-owning
// a tenant's series is safe.
func (s *Server) tenantPhaseNS(tenant string) *[4]*obs.Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.phaseNS[tenant]; ok {
		return h
	}
	var h [4]*obs.Histogram
	for i, phase := range phaseNames {
		h[i] = obs.NewHistogram("serve.phase_ns", obs.L("phase", phase), obs.L("tenant", tenant))
	}
	s.phaseNS[tenant] = &h
	return &h
}

// Handler returns the daemon's full HTTP surface: the query/ingest API plus
// the obs endpoints (/metrics, /debug/events, /debug/pprof).
func (s *Server) Handler() http.Handler {
	mux := obs.NewServeMux()
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/seal", s.handleSeal)
	mux.HandleFunc("/epochs", s.handleEpochs)
	mux.HandleFunc("/tenants", s.handleTenants)
	mux.HandleFunc("/query", s.handleQuery)
	return mux
}

// IngestResponse reports one /ingest call.
type IngestResponse struct {
	// Accepted is the number of edge lines parsed.
	Accepted int `json:"accepted"`
	// Added is how many were new (duplicates and self-loops are skipped).
	Added int `json:"added"`
	// Edges is the distinct-edge total ingested so far (across all calls).
	Edges int `json:"edges"`
}

// handleIngest consumes a plain-text "u v t" edge stream (the gendata /
// cmd/convpairs wire format; a missing t defaults to 0) and feeds it to the
// ingester. Duplicate edges and self-loops are skipped, not errors — the
// wire repeats itself. A body with a malformed line or an out-of-range node
// ID is a 400 that applies none of its edges.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("serve: POST an edge stream"))
		return
	}
	edges, err := parseEdgeStream(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	added, err := s.ing.IngestBatch(edges)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, IngestResponse{Accepted: len(edges), Added: added, Edges: s.ing.EdgeCount()})
}

// parseEdgeStream reads "u v [t]" lines ('#' comments and blanks skipped).
func parseEdgeStream(r io.Reader) ([]graph.TimedEdge, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var edges []graph.TimedEdge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 && len(f) != 3 {
			return nil, fmt.Errorf("serve: line %d: %d fields, want \"u v [t]\"", lineNo, len(f))
		}
		u, err1 := strconv.Atoi(f[0])
		v, err2 := strconv.Atoi(f[1])
		var t int64
		var err3 error
		if len(f) == 3 {
			t, err3 = strconv.ParseInt(f[2], 10, 64)
		}
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("serve: line %d: malformed edge %q", lineNo, line)
		}
		edges = append(edges, graph.TimedEdge{U: u, V: v, Time: t})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return edges, nil
}

// EpochInfo describes one sealed epoch.
type EpochInfo struct {
	Seq   int   `json:"seq"`
	Edges int   `json:"edges"`
	Nodes int   `json:"nodes"`
	Time  int64 `json:"time,omitempty"`
}

func epochInfo(e *graph.Epoch) EpochInfo {
	return EpochInfo{Seq: e.Seq, Edges: e.EdgeCount, Nodes: e.Graph().NumNodes(), Time: e.Time}
}

// handleSeal freezes the edges ingested so far into a new epoch.
func (s *Server) handleSeal(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("serve: POST to seal"))
		return
	}
	writeJSON(w, epochInfo(s.ing.Seal()))
}

// handleEpochs lists the retained epochs, oldest first.
func (s *Server) handleEpochs(w http.ResponseWriter, r *http.Request) {
	epochs := s.ing.Store().Epochs()
	out := make([]EpochInfo, len(epochs))
	for i, e := range epochs {
		out[i] = epochInfo(e)
	}
	writeJSON(w, out)
}

// TenantRequest declares a tenant with an SSSP allowance (<= 0 = unlimited).
type TenantRequest struct {
	Name  string `json:"name"`
	Limit int    `json:"limit"`
}

// TenantReport is one tenant's cumulative admission state.
type TenantReport struct {
	Limit        int `json:"limit"`
	CandidateGen int `json:"candidate_gen"`
	TopK         int `json:"topk"`
	Total        int `json:"total"`
}

func tenantReport(rep budget.Report) TenantReport {
	return TenantReport{Limit: rep.Limit, CandidateGen: rep.CandidateGen, TopK: rep.TopK, Total: rep.Total()}
}

// handleTenants declares a tenant (POST) or lists every tenant's cumulative
// spending (GET). Declaring an existing tenant is a no-op (first limit wins),
// matching budget.Registry semantics.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req TenantRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if req.Name == "" {
			httpError(w, http.StatusBadRequest, errors.New("serve: tenant name required"))
			return
		}
		t := s.reg.Tenant(req.Name, req.Limit)
		writeJSON(w, map[string]TenantReport{t.Name(): tenantReport(t.Report())})
	case http.MethodGet:
		reports := s.reg.Reports()
		out := make(map[string]TenantReport, len(reports))
		for name, rep := range reports {
			out[name] = tenantReport(rep)
		}
		writeJSON(w, out)
	default:
		httpError(w, http.StatusMethodNotAllowed, errors.New("serve: GET or POST"))
	}
}

// QueryRequest is one top-k converging-pairs query over an epoch window.
// T1 and T2 are epoch sequence numbers; both 0 means the latest window
// (T1 = latest-1, T2 = latest). Parallelism is not a request field: every
// query runs its traversals at GOMAXPROCS, and a "workers" field from an
// older client is ignored like any unknown field.
type QueryRequest struct {
	Tenant   string `json:"tenant"`
	Selector string `json:"selector"`
	M        int    `json:"m"`
	L        int    `json:"l,omitempty"`
	K        int    `json:"k,omitempty"`
	MinDelta int32  `json:"delta,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	T1       int    `json:"t1,omitempty"`
	T2       int    `json:"t2,omitempty"`
	Paired   string `json:"paired,omitempty"`
}

// QueryResponse embeds the canonical run report — byte-identical to the JSON
// a one-shot `convpairs -json` run writes for the same snapshots — plus the
// window and tenancy context the service adds.
type QueryResponse struct {
	Tenant string        `json:"tenant"`
	T1     int           `json:"t1"`
	T2     int           `json:"t2"`
	Report export.Report `json:"report"`
	// TenantSpent is the tenant's cumulative SSSP total after this query.
	TenantSpent int `json:"tenant_spent"`
}

// handleQuery runs one budgeted query. Its tenant reserves the paper's 2m
// SSSPs before it runs; a tenant whose free allowance is below 2m gets 429
// and spends nothing.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("serve: POST a query"))
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	resp, status, err := s.Query(r, &req)
	if err != nil {
		httpError(w, status, err)
		return
	}
	writeJSON(w, resp)
}

// Query executes a parsed query request (r carries the cancellation context;
// it may be nil for direct callers). It returns the response or an error with
// the HTTP status it maps to.
func (s *Server) Query(r *http.Request, req *QueryRequest) (*QueryResponse, int, error) {
	if req.Tenant == "" {
		return nil, http.StatusBadRequest, errors.New("serve: tenant required")
	}
	if req.Selector == "" {
		return nil, http.StatusBadRequest, errors.New("serve: selector required")
	}
	sel, err := candidates.ByName(req.Selector)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	// paired is validated for old clients but selects nothing: every
	// spelling runs the one paired kernel.
	if _, err := dist.ParsePairedMode(req.Paired); err != nil {
		return nil, http.StatusBadRequest, err
	}
	opts := core.Options{
		Selector: sel,
		M:        req.M,
		L:        req.L,
		K:        req.K,
		MinDelta: req.MinDelta,
		Seed:     req.Seed,
	}
	// Reject a malformed query before the registry can register its tenant.
	if err := opts.Validate(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	t1, t2 := req.T1, req.T2
	if t1 == 0 && t2 == 0 {
		latest, ok := s.ing.Store().Latest()
		if !ok || latest.Seq < 2 {
			return nil, http.StatusConflict, errors.New("serve: need at least 2 sealed epochs (POST /seal)")
		}
		t1, t2 = latest.Seq-1, latest.Seq
	}
	ws, err := s.session(t1, t2)
	if err != nil {
		if errors.Is(err, graph.ErrNoEpoch) {
			return nil, http.StatusNotFound, err
		}
		return nil, http.StatusBadRequest, err
	}
	tenant := s.reg.Tenant(req.Tenant, s.cfg.TenantLimit)
	meter, err := tenant.Admit(req.M)
	if err != nil {
		return nil, http.StatusTooManyRequests, err
	}
	opts.Warm = ws.warm
	opts.Meter = meter
	ctx := context.Background()
	if r != nil {
		ctx = r.Context()
	}
	res, err := func() (*core.Result, error) {
		// Settle on every way out of TopK, a panic included: the tenant is
		// charged what the query spent (a cancelled query keeps its spend)
		// and the rest of the reservation goes back.
		defer tenant.Settle(meter)
		return ws.sess.TopK(ctx, opts)
	}()
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, statusClientClosedRequest, err
		}
		return nil, http.StatusBadRequest, err
	}
	h := s.tenantPhaseNS(tenant.Name())
	h[0].Observe(res.Phases.Selection)
	h[1].Observe(res.Phases.Extraction)
	h[2].Observe(res.Phases.SortCut)
	h[3].Observe(res.Phases.Total)
	return &QueryResponse{
		Tenant:      tenant.Name(),
		T1:          t1,
		T2:          t2,
		Report:      export.NewReport(res.SelectorName, req.M, res.Budget.Total(), res.Budget.Limit, res.Candidates, res.Pairs),
		TenantSpent: tenant.Report().Total(),
	}, http.StatusOK, nil
}

// statusClientClosedRequest is nginx's conventional code for a request whose
// client went away; net/http has no name for it.
const statusClientClosedRequest = 499

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
