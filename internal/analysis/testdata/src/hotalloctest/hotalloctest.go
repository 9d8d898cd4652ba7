// Package hotalloctest exercises the hotalloc analyzer: functions marked
// //convlint:hotpath must not allocate.
package hotalloctest

import "fmt"

type config struct{ a, b int }

// hot is the flagged case: every allocating construct trips a diagnostic.
//
//convlint:hotpath
func hot(dst, src []int32, n int) []int32 {
	buf := make([]int32, n)          // want `make in hot path hot allocates`
	p := new(config)                 // want `new in hot path hot allocates`
	c := config{1, 2}                // want `composite literal in hot path hot allocates`
	f := func() {}                   // want `closure in hot path hot allocates`
	fresh := append(buf[:0], src...) // want `append result assigned to a different slice`
	f()
	_, _, _ = p, c, fresh
	if n < 0 {
		// Error paths may format and allocate freely.
		panic(fmt.Sprintf("bad n %d", n))
	}
	dst = append(dst, 1) // self-append: amortized by the caller's scratch
	return dst
}

// hotExpr uses append in expression position, which always hands the grown
// backing array to someone the scratch can't track.
//
//convlint:hotpath
func hotExpr(q []int32) int {
	return consume(append(q, 7)) // want `append in expression position`
}

func consume(q []int32) int { return len(q) }

type repairScratch struct {
	seeds []int64
	cur   []int32
}

// hotRepair mirrors the dynsssp repair-kernel idiom: encoded-seed
// self-appends and frontier reuse are scratch-amortized and allowed; handing
// a seed slice's grown backing array to a different variable is not.
//
//convlint:hotpath
func hotRepair(s *repairScratch, dist []int32, u, v int32) []int64 {
	s.seeds = s.seeds[:0]
	if du := dist[u]; du >= 0 && dist[v] > du+1 {
		dist[v] = du + 1
		s.seeds = append(s.seeds, int64(du+1)<<32|int64(v)) // self-append on a field
	}
	s.cur = append(s.cur, v)  // self-append on a sibling field
	out := append(s.seeds, 9) // want `append result assigned to a different slice`
	return out
}

// cold is identical to hot but unannotated: no diagnostics.
func cold(dst, src []int32, n int) []int32 {
	buf := make([]int32, n)
	fresh := append(buf[:0], src...)
	_ = fresh
	return append(dst, 1)
}

type parWorker struct {
	queue []int32
	edges int64
}

type parState struct {
	workers []parWorker
	cursor  int
}

// hotWorker mirrors the parallel-BFS worker idiom: a worker materializes a
// local view of its queue (`local := ws.queue[:0]`), self-appends
// discoveries into it, and stores the header back — all scratch-amortized
// and allowed. Allocating fresh per-level state is not.
//
//convlint:hotpath
func hotWorker(r *parState, slot int, found []int32) {
	ws := &r.workers[slot]
	local := ws.queue[:0]
	for _, v := range found {
		local = append(local, v) // self-append on the local view
		ws.edges++
	}
	ws.queue = local
	spill := make([]int32, len(local)) // want `make in hot path hotWorker allocates`
	copy(spill, local)
}

// hotMerge mirrors the coordinator's per-level merge: spread-appending each
// worker's queue into the shared frontier is a self-append (the frontier
// header absorbs its own growth); spawning a goroutine per level is flagged
// as a closure.
//
//convlint:hotpath
func hotMerge(r *parState, q []int32) []int32 {
	for i := range r.workers {
		q = append(q, r.workers[i].queue...) // self-append: spread merge
	}
	go func() { r.cursor++ }() // want `closure in hot path hotMerge allocates`
	return q
}
