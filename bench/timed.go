package main

import (
	"bufio"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// scale sizes one run. The command line always runs at production scale;
// the tests shrink it, and the workloads' node counts, so every workload
// runs in a second or two.
type scale struct {
	seconds time.Duration // length of the timed query phase, over all deployments
	setups  int           // fresh set-ups timed for setup_s, over all deployments
	exact   int           // exact-prefix queries, over all deployments
	traced  int           // traced queries, over all deployments (at most exact)
	queries int           // length of each deployment's query list
}

// perDeployment splits a run-wide count evenly over w's deployments, at
// least one each.
func perDeployment(total int, w workload) int {
	return max(1, (total+w.deployments-1)/w.deployments)
}

// checked is a count of attempted operations and the ones that failed, with
// the first few failure messages.
type checked struct {
	attempted, failed int
	failures          []string
}

func (c *checked) record(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.failures) < 5 {
			c.failures = append(c.failures, err.Error())
		}
	}
}

// timedRun is what the untraced run measured, over all deployments.
type timedRun struct {
	checked
	nodes   int
	setup   []time.Duration
	latency []time.Duration // every completed query
	// prefix holds each deployment's first queries, which every run
	// completes whatever its speed; the exact metrics are computed over them.
	// prefix[d][j] is deployment d's query j.
	prefix [][]prefixResult
	wall   time.Duration // summed query-phase wall time
	// heapMB is the live heap each deployment's server added: the heap after
	// its exact prefix minus the heap before its set-ups.
	heapMB []float64
	// Deltas of the servers' /metrics counters over the query phases.
	sweepSources, sweeps, coalesced float64
}

type prefixResult struct {
	done    bool
	latency time.Duration
	spent   int
	kth     int32 // Δ of the last returned pair
	pairs   int
}

// checkResponse verifies the invariants every served answer must hold: at
// most k pairs, in Δ-descending order, within the 2m SSSP budget.
func checkResponse(q serve.QueryRequest, r *serve.QueryResponse) error {
	p := r.Report.Pairs
	if len(p) > q.K {
		return fmt.Errorf("query %s seed %d: %d pairs for k=%d", q.Selector, q.Seed, len(p), q.K)
	}
	for i := 1; i < len(p); i++ {
		if p[i].Delta > p[i-1].Delta {
			return fmt.Errorf("query %s seed %d: pairs not in Δ-descending order at %d", q.Selector, q.Seed, i)
		}
	}
	if r.Report.SSSPSpent > 2*q.M {
		return fmt.Errorf("query %s seed %d: spent %d SSSPs, budget %d", q.Selector, q.Seed, r.Report.SSSPSpent, 2*q.M)
	}
	return nil
}

// runTimed serves each of the workload's deployments in turn: it times
// fresh set-ups, then runs the query phase against the last one for the
// deployment's share of sc.seconds.
func runTimed(w workload, sc scale, seed int64, cl *http.Client) (*timedRun, error) {
	tr := &timedRun{}
	for d := 0; d < w.deployments; d++ {
		in, err := makeInputs(w, seed, d, sc.queries)
		if err != nil {
			return nil, err
		}
		tr.nodes = in.nodes
		// Each deployment gets an equal share of the time the earlier ones
		// left, so a phase that overran (its last query finishing past the
		// deadline) does not lengthen the run.
		share := max(0, (sc.seconds-tr.wall)/time.Duration(w.deployments-d))
		if err := tr.deploy(w, in, sc, cl, share); err != nil {
			return nil, fmt.Errorf("deployment %d: %w", d, err)
		}
	}
	for d, prefix := range tr.prefix {
		for j, pr := range prefix {
			if !pr.done {
				tr.record(fmt.Errorf("deployment %d: query %d of the exact-metric prefix did not complete", d, j))
			}
		}
	}
	return tr, nil
}

// deploy times one deployment's set-ups, then runs its exact prefix and its
// query phase for the given time against the last set-up's server.
func (tr *timedRun) deploy(w workload, in *inputs, sc scale, cl *http.Client, seconds time.Duration) error {
	// The heap baseline holds this deployment's inputs, so the client's own
	// streams and query list are not counted as server memory.
	base := liveHeapMB()
	var ls *liveServer
	for i := 0; i < perDeployment(sc.setups, w); i++ {
		if ls != nil {
			if err := ls.close(); err != nil {
				return err
			}
		}
		var took time.Duration
		var err error
		if ls, took, err = setUp(w, in, cl); err != nil {
			return err
		}
		tr.setup = append(tr.setup, took)
	}
	defer ls.close()

	before, err := scrapeBatching(cl, ls.url)
	if err != nil {
		return err
	}
	exact := perDeployment(sc.exact, w)
	prefix := make([]prefixResult, exact)
	var mu sync.Mutex // guards tr and prefix while the clients run
	var next atomic.Int64
	// claim hands out the next query index unless done says the phase is
	// over, so no index is skipped between the two phases below.
	claim := func(done func(int) bool) (int, bool) {
		for {
			i := next.Load()
			if int(i) >= len(in.queries) || done(int(i)) {
				return 0, false
			}
			if next.CompareAndSwap(i, i+1) {
				return int(i), true
			}
		}
	}
	drive := func(done func(int) bool) {
		var clients sync.WaitGroup
		for c := 0; c < w.clients; c++ {
			tenant := fmt.Sprintf("client%d", c)
			clients.Add(1)
			go func() {
				defer clients.Done()
				for {
					i, ok := claim(done)
					if !ok {
						return
					}
					q := in.queries[i]
					t0 := time.Now()
					resp, err := postQuery(cl, ls.url, tenant, q)
					d := time.Since(t0)
					if err == nil {
						err = checkResponse(q, resp)
					}
					mu.Lock()
					tr.record(err)
					if err == nil {
						tr.latency = append(tr.latency, d)
					}
					if err == nil && i < exact {
						pr := prefixResult{done: true, latency: d, spent: resp.Report.SSSPSpent, pairs: len(resp.Report.Pairs)}
						if n := len(resp.Report.Pairs); n > 0 {
							pr.kth = resp.Report.Pairs[n-1].Delta
						}
						prefix[i] = pr
					}
					mu.Unlock()
				}
			}()
		}
		clients.Wait()
	}

	// The exact prefix runs first and always completes. The live heap is
	// read right after it, when the server holds the same queries' state on
	// every run, so it does not grow with throughput.
	start := time.Now()
	deadline := start.Add(seconds)
	drive(func(i int) bool { return i >= exact })
	tr.heapMB = append(tr.heapMB, liveHeapMB()-base)
	drive(func(int) bool { return time.Now().After(deadline) })
	tr.wall += time.Since(start)
	tr.prefix = append(tr.prefix, prefix)

	after, err := scrapeBatching(cl, ls.url)
	if err != nil {
		return err
	}
	tr.sweepSources += after["dist.sources_per_sweep_sum"] - before["dist.sources_per_sweep_sum"]
	tr.sweeps += after["dist.sources_per_sweep_count"] - before["dist.sources_per_sweep_count"]
	tr.coalesced += after["dist.coalesced_requests"] - before["dist.coalesced_requests"]
	return nil
}

// liveHeapMB is the process's live heap right after two collections: the
// first moves sync.Pool caches to their victim lists and the second frees
// them, so pooled scratch, whose amount depends on timing, is not counted.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / (1 << 20)
}

// scrapeBatching reads the Batcher's sweep counters from the server's
// /metrics exposition.
func scrapeBatching(cl *http.Client, url string) (map[string]float64, error) {
	resp, err := cl.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || !strings.HasPrefix(f[0], "dist.") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", sc.Text(), err)
		}
		out[f[0]] = v
	}
	return out, sc.Err()
}
