package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/graph"
)

// mustSelector resolves a registry selector or fails the test.
func mustSelector(t *testing.T, name string) candidates.Selector {
	t.Helper()
	sel, err := candidates.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// genStream builds a random timestamped insertion stream over n nodes: a
// connecting backbone first (so snapshots are mostly one component), then
// random extra edges. Deterministic in seed.
func genStream(n, extra int, seed int64) []graph.TimedEdge {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[graph.Edge]bool)
	var stream []graph.TimedEdge
	add := func(u, v int) {
		if u == v {
			return
		}
		c := graph.Edge{U: u, V: v}.Canon()
		if seen[c] {
			return
		}
		seen[c] = true
		stream = append(stream, graph.TimedEdge{U: c.U, V: c.V, Time: int64(len(stream))})
	}
	for v := 1; v < n; v++ {
		add(rng.Intn(v), v)
	}
	for len(stream) < n-1+extra {
		add(rng.Intn(n), rng.Intn(n))
	}
	return stream
}

// streamText renders a stream in the "u v t" wire format /ingest consumes.
func streamText(stream []graph.TimedEdge) string {
	var b bytes.Buffer
	for _, te := range stream {
		fmt.Fprintf(&b, "%d %d %d\n", te.U, te.V, te.Time)
	}
	return b.String()
}

// postJSON posts v and decodes the response into out, returning the status.
func postJSON(t *testing.T, url string, v, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// loadServer ingests the stream's 80% prefix as epoch 1 and the rest as
// epoch 2 through the HTTP surface.
func loadServer(t *testing.T, url string, stream []graph.TimedEdge) {
	t.Helper()
	cut := int(0.8 * float64(len(stream)))
	for _, part := range [][]graph.TimedEdge{stream[:cut], stream[cut:]} {
		resp, err := http.Post(url+"/ingest", "text/plain", bytes.NewBufferString(streamText(part)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: status %d", resp.StatusCode)
		}
		if code := postJSON(t, url+"/seal", struct{}{}, nil); code != http.StatusOK {
			t.Fatalf("seal: status %d", code)
		}
	}
}

// TestQueryMatchesOneShot is the tentpole's differential test: a served query
// is bit-identical (pairs, candidates, budget report) to a one-shot TopK run
// over the same snapshots, at every accepted spelling of the no-op "paired"
// field; any other spelling is a 400. The served path runs through epoch
// padding and session caching; neither may leak into results.
func TestQueryMatchesOneShot(t *testing.T) {
	stream := genStream(120, 260, 7)
	ev, err := graph.NewEvolving(stream)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := ev.Pair(0.8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	loadServer(t, ts.URL, stream)
	want, err := core.TopK(pair, core.Options{
		Selector: mustSelector(t, "MMSD"), M: 15, L: 5, K: 10, Seed: 42,
	})
	if err != nil {
		t.Fatalf("one-shot: %v", err)
	}
	wantRep := export.NewReport(want.SelectorName, 15,
		want.Budget.Total(), want.Budget.Limit, want.Candidates, want.Pairs)
	query := func(paired string, out any) int {
		return postJSON(t, ts.URL+"/query", QueryRequest{
			Tenant: "t", Selector: "MMSD", M: 15, L: 5, K: 10,
			Seed: 42, T1: 1, T2: 2, Paired: paired,
		}, out)
	}
	for _, paired := range []string{"", "full", "incremental"} {
		var got QueryResponse
		if code := query(paired, &got); code != http.StatusOK {
			t.Fatalf("paired %q: query status %d", paired, code)
		}
		if !reflect.DeepEqual(got.Report, wantRep) {
			t.Fatalf("paired %q: served report diverged from one-shot\n got: %+v\nwant: %+v",
				paired, got.Report, wantRep)
		}
	}
	if code := query("bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("paired \"bogus\" status %d, want 400", code)
	}
}

// TestQueryHugeKMatchesOneShot: k comes straight from the client, so a k
// far beyond any pair count (1<<47) must not size an allocation. The query
// returns 200 with the one-shot report at the same k — every discovered
// pair — instead of failing after its tenant was charged.
func TestQueryHugeKMatchesOneShot(t *testing.T) {
	const k = 1 << 47
	stream := genStream(100, 220, 5)
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	loadServer(t, ts.URL, stream)
	var got QueryResponse
	code := postJSON(t, ts.URL+"/query", QueryRequest{
		Tenant: "t", Selector: "MMSD", M: 12, L: 4, K: k, Seed: 3, T1: 1, T2: 2,
	}, &got)
	if code != http.StatusOK {
		t.Fatalf("k=1<<47 query status %d, want 200", code)
	}
	ev, err := graph.NewEvolving(stream)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := ev.Pair(0.8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.TopK(pair, core.Options{Selector: mustSelector(t, "MMSD"), M: 12, L: 4, K: k, Seed: 3})
	if err != nil {
		t.Fatalf("one-shot: %v", err)
	}
	if len(want.Pairs) == 0 {
		t.Fatal("one-shot found no pairs: the comparison below would be vacuous")
	}
	wantRep := export.NewReport(want.SelectorName, 12,
		want.Budget.Total(), want.Budget.Limit, want.Candidates, want.Pairs)
	if !reflect.DeepEqual(got.Report, wantRep) {
		t.Fatalf("served report diverged from one-shot\n got: %+v\nwant: %+v", got.Report, wantRep)
	}
}

// TestConcurrentTenantsShareSweeps pins the tenancy invariant: concurrent
// queries from different tenants on one cached window session each return
// the lone run's report, and each tenant's meter is charged exactly what
// its queries would pay run alone.
func TestConcurrentTenantsShareSweeps(t *testing.T) {
	stream := genStream(150, 320, 11)
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	loadServer(t, ts.URL, stream)

	const m, queries = 12, 3
	tenants := []string{"alice", "bob"}
	for _, tn := range tenants {
		if code := postJSON(t, ts.URL+"/tenants", TenantRequest{Name: tn, Limit: 2 * m * queries}, nil); code != http.StatusOK {
			t.Fatalf("declare %s: status %d", tn, code)
		}
	}
	// Random selection spends nothing, so every SSSP is an extraction row;
	// distinct seeds give each query a distinct candidate set.
	ev, err := graph.NewEvolving(stream)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := ev.Pair(0.8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	seed := func(ti, q int) int64 { return int64(100*ti + q) }
	wantRep := make(map[int64]export.Report)
	wantSpent := make(map[string]int)
	for ti, tn := range tenants {
		for q := 0; q < queries; q++ {
			res, err := core.TopK(pair, core.Options{
				Selector: mustSelector(t, "Random"), M: m, K: 5, Seed: seed(ti, q),
			})
			if err != nil {
				t.Fatal(err)
			}
			wantRep[seed(ti, q)] = export.NewReport(res.SelectorName, m,
				res.Budget.Total(), res.Budget.Limit, res.Candidates, res.Pairs)
			wantSpent[tn] += res.Budget.Total()
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, len(tenants)*queries)
	for ti, tn := range tenants {
		for q := 0; q < queries; q++ {
			ti, tn, q := ti, tn, q
			wg.Add(1)
			go func() {
				defer wg.Done()
				var got QueryResponse
				code := postJSON(t, ts.URL+"/query", QueryRequest{
					Tenant: tn, Selector: "Random", M: m, K: 5, Seed: seed(ti, q),
				}, &got)
				if code != http.StatusOK {
					errs <- fmt.Sprintf("%s/%d: status %d", tn, q, code)
					return
				}
				if !reflect.DeepEqual(got.Report, wantRep[seed(ti, q)]) {
					errs <- fmt.Sprintf("%s/%d: concurrent report diverged from lone run", tn, q)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// Per-tenant admission: each tenant paid exactly what its queries would
	// have cost run alone, despite running concurrently.
	var reports map[string]TenantReport
	resp, err := http.Get(ts.URL + "/tenants")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&reports); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, tn := range tenants {
		if got, want := reports[tn].Total, wantSpent[tn]; got != want {
			t.Errorf("tenant %s charged %d SSSPs, want %d (concurrency must not share cost)", tn, got, want)
		}
	}
}

// TestTenantAdmission pins admission over HTTP: a tenant whose free
// allowance cannot cover the next query's 2m is refused with 429 before the
// query selects anything, so the refused query spends nothing, whatever
// its selector charges before extraction.
func TestTenantAdmission(t *testing.T) {
	stream := genStream(80, 160, 13)
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	loadServer(t, ts.URL, stream)

	const m = 10
	for _, sel := range []string{"Degree", "DegDiff", "MaxMin", "MaxAvg", "MMSD", "SumDiff"} {
		name := "capped-" + sel
		// Allowance covers one query (2m) but not two.
		if code := postJSON(t, ts.URL+"/tenants", TenantRequest{Name: name, Limit: 3 * m}, nil); code != http.StatusOK {
			t.Fatalf("%s: declare: status %d", sel, code)
		}
		req := QueryRequest{Tenant: name, Selector: sel, M: m, L: 3, K: 5}
		var first QueryResponse
		if code := postJSON(t, ts.URL+"/query", req, &first); code != http.StatusOK {
			t.Fatalf("%s: first query: status %d", sel, code)
		}
		if first.TenantSpent != 2*m {
			t.Fatalf("%s: first query spent %d, want %d", sel, first.TenantSpent, 2*m)
		}
		if code := postJSON(t, ts.URL+"/query", req, nil); code != http.StatusTooManyRequests {
			t.Fatalf("%s: second query: status %d, want 429", sel, code)
		}
		tenant, ok := srv.Registry().Get(name)
		if !ok {
			t.Fatalf("%s: tenant vanished", sel)
		}
		if got := tenant.Report().Total(); got != 2*m {
			t.Errorf("%s: rejected query changed tenant spend: %d, want %d", sel, got, 2*m)
		}
	}
}

// TestConcurrentAdmission: eight concurrent MaxMin queries (m = 10) from a
// tenant allowed 60 SSSPs, enough for three whole queries. Admission
// reserves each query's 2m before it runs, so exactly three are answered,
// the other five get 429, and the tenant is charged exactly what the three
// answered queries spent.
func TestConcurrentAdmission(t *testing.T) {
	stream := genStream(80, 160, 13)
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	loadServer(t, ts.URL, stream)

	const m, queries = 10, 8
	if code := postJSON(t, ts.URL+"/tenants", TenantRequest{Name: "burst", Limit: 6 * m}, nil); code != http.StatusOK {
		t.Fatalf("declare: status %d", code)
	}
	codes := make([]int, queries)
	spent := make([]int, queries)
	var wg sync.WaitGroup
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			var got QueryResponse
			codes[q] = postJSON(t, ts.URL+"/query", QueryRequest{
				Tenant: "burst", Selector: "MaxMin", M: m, K: 5, Seed: int64(q),
			}, &got)
			spent[q] = got.Report.SSSPSpent
		}(q)
	}
	wg.Wait()
	answered, total := 0, 0
	for q, code := range codes {
		switch code {
		case http.StatusOK:
			answered++
			total += spent[q]
		case http.StatusTooManyRequests:
		default:
			t.Errorf("query %d: status %d, want 200 or 429", q, code)
		}
	}
	if answered != 3 {
		t.Errorf("%d of %d queries answered, want 3", answered, queries)
	}
	tenant, _ := srv.Registry().Get("burst")
	if got := tenant.Report().Total(); got != total {
		t.Errorf("tenant charged %d SSSPs, its answered queries spent %d", got, total)
	}
}

// TestFailedQueryReleasesReservation: a query cancelled before it starts
// (499) and one that fails after admission (400: SumDiff needs m > l) each
// release their reservation, so a query of the tenant's whole allowance is
// admitted after each; neither spent anything.
func TestFailedQueryReleasesReservation(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	loadServer(t, ts.URL, genStream(60, 120, 3))

	const m = 10
	tenant := srv.Registry().Tenant("once", 2*m)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled := httptest.NewRequest(http.MethodPost, "/query", nil).WithContext(ctx)
	for _, c := range []struct {
		r    *http.Request
		req  QueryRequest
		code int
	}{
		{cancelled, QueryRequest{Tenant: "once", Selector: "MMSD", M: m, L: 3, K: 5}, statusClientClosedRequest},
		{nil, QueryRequest{Tenant: "once", Selector: "SumDiff", M: m, L: m, K: 5}, http.StatusBadRequest},
	} {
		if _, code, err := srv.Query(c.r, &c.req); code != c.code {
			t.Fatalf("%s: status %d (%v), want %d", c.req.Selector, code, err, c.code)
		}
		meter, err := tenant.Admit(m)
		if err != nil {
			t.Fatalf("after the %d: the whole allowance was not free: %v", c.code, err)
		}
		tenant.Settle(meter)
		if got := tenant.Report().Total(); got != 0 {
			t.Fatalf("after the %d: tenant spent %d, want 0", c.code, got)
		}
	}
}

// TestRejectedQueryRegistersNoTenant pins that a query core would reject
// (m = 0, neither k nor delta, a negative k or delta beside a positive
// other, or an m whose 2m limit overflows int) is a 400 that leaves the
// tenant registry untouched: no new tenant with an unlimited allowance, no
// charge series.
func TestRejectedQueryRegistersNoTenant(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	loadServer(t, ts.URL, genStream(40, 60, 5))

	bad := []QueryRequest{
		{Tenant: "zero-m", Selector: "Degree", M: 0, K: 5},
		{Tenant: "no-k-no-delta", Selector: "Degree", M: 5},
		{Tenant: "overflow-m", Selector: "Degree", M: 1 << 62, K: 5},
		{Tenant: "negative-k", Selector: "MMSD", M: 5, K: -5, MinDelta: 2},
		{Tenant: "negative-delta", Selector: "MMSD", M: 5, K: 5, MinDelta: -1},
	}
	for _, req := range bad {
		if code := postJSON(t, ts.URL+"/query", req, nil); code != http.StatusBadRequest {
			t.Fatalf("tenant %s: status %d, want 400", req.Tenant, code)
		}
	}
	resp, err := http.Get(ts.URL + "/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tenants map[string]TenantReport
	if err := json.NewDecoder(resp.Body).Decode(&tenants); err != nil {
		t.Fatal(err)
	}
	for _, req := range bad {
		if _, ok := tenants[req.Tenant]; ok {
			t.Errorf("rejected query registered tenant %s: %+v", req.Tenant, tenants)
		}
	}
}

// TestServeEndpoints covers the ingest/seal/epochs plumbing and the error
// mapping of /query.
func TestServeEndpoints(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	// No epochs yet: defaulted window is a 409, explicit window a 404.
	if code := postJSON(t, ts.URL+"/query", QueryRequest{Tenant: "t", Selector: "Degree", M: 4, K: 2}, nil); code != http.StatusConflict {
		t.Fatalf("query with no epochs: status %d, want 409", code)
	}

	// Duplicate edges and self-loops are tolerated and skipped.
	body := "0 1 0\n1 2 1\n1 2 5\n3 3 6\n2 0 7\n"
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	var ing IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ing.Accepted != 5 || ing.Added != 3 || ing.Edges != 3 {
		t.Fatalf("ingest = %+v, want accepted 5, added 3, edges 3", ing)
	}

	var ep EpochInfo
	if code := postJSON(t, ts.URL+"/seal", struct{}{}, &ep); code != http.StatusOK || ep.Seq != 1 {
		t.Fatalf("seal: code %d, epoch %+v", code, ep)
	}
	resp, err = http.Post(ts.URL+"/ingest", "text/plain", bytes.NewBufferString("0 3 8\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	postJSON(t, ts.URL+"/seal", struct{}{}, nil)

	var epochs []EpochInfo
	resp, err = http.Get(ts.URL + "/epochs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&epochs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(epochs) != 2 || epochs[0].Seq != 1 || epochs[1].Seq != 2 || epochs[1].Edges != 4 {
		t.Fatalf("epochs = %+v", epochs)
	}

	if code := postJSON(t, ts.URL+"/query", QueryRequest{Tenant: "t", Selector: "Degree", M: 2, K: 2, T1: 1, T2: 9}, nil); code != http.StatusNotFound {
		t.Fatalf("missing epoch: status %d, want 404", code)
	}
	if code := postJSON(t, ts.URL+"/query", QueryRequest{Tenant: "t", Selector: "NoSuch", M: 2, K: 2}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown selector: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/query", QueryRequest{Selector: "Degree", M: 2, K: 2}, nil); code != http.StatusBadRequest {
		t.Fatalf("missing tenant: status %d, want 400", code)
	}

	// A defaulted window (T1 = T2 = 0) resolves to the latest pair.
	var got QueryResponse
	if code := postJSON(t, ts.URL+"/query", QueryRequest{Tenant: "t", Selector: "Degree", M: 2, K: 2}, &got); code != http.StatusOK {
		t.Fatalf("defaulted window: status %d", code)
	}
	if got.T1 != 1 || got.T2 != 2 {
		t.Fatalf("defaulted window = (%d, %d), want (1, 2)", got.T1, got.T2)
	}
}

// TestIngestRejectsWholeBody pins the all-or-nothing /ingest contract: a
// body whose later line names an invalid node (negative, or above the int32
// ID range) is a 400 that applies none of its edges, so the next /ingest
// reports the unchanged edge count.
func TestIngestRejectsWholeBody(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	ingest := func(body string) (int, IngestResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/ingest", "text/plain", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ing IngestResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, ing
	}
	if code, ing := ingest("0 1 0\n1 2 1\n"); code != http.StatusOK || ing.Edges != 2 {
		t.Fatalf("first ingest: status %d, %+v", code, ing)
	}
	for _, bad := range []string{"-1 5 4", "4 2147483648 4"} {
		if code, _ := ingest("2 3 2\n3 4 3\n" + bad + "\n4 5 5\n"); code != http.StatusBadRequest {
			t.Fatalf("body ending in %q: status %d, want 400", bad, code)
		}
	}
	if code, ing := ingest(""); code != http.StatusOK || ing.Edges != 2 {
		t.Fatalf("after rejected bodies: status %d, %+v, want 2 edges", code, ing)
	}
}

// TestSessionCacheEviction pins the pinning contract: cached window sessions
// pin their epochs; eviction (and Close) releases them.
func TestSessionCacheEviction(t *testing.T) {
	stream := genStream(60, 120, 17)
	srv := New(Config{MaxSessions: 1})
	ing := srv.Ingester()
	cut := int(0.8 * float64(len(stream)))
	if _, err := ing.IngestBatch(stream[:cut]); err != nil {
		t.Fatal(err)
	}
	ing.Seal()
	if _, err := ing.IngestBatch(stream[cut:]); err != nil {
		t.Fatal(err)
	}
	ing.Seal()
	ing.Seal() // epoch 3, same graph

	if _, err := srv.session(1, 2); err != nil {
		t.Fatal(err)
	}
	e1, _ := ing.Store().At(1)
	if !e1.Pinned() {
		t.Fatal("cached session left its epochs unpinned")
	}
	if _, err := srv.session(2, 3); err != nil {
		t.Fatal(err)
	}
	if e1.Pinned() {
		t.Fatal("evicted session kept its pins")
	}
	srv.Close()
	e2, _ := ing.Store().At(2)
	if e2.Pinned() {
		t.Fatal("Close left epochs pinned")
	}
}
