package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The flight recorder is a bounded ring of structured run records — one per
// TopK call or watch window — that answers "what did the last N queries look
// like?" without any external collector. Appends copy the record by value
// into a preallocated slot (no allocation in steady state, backed by
// TestFlightAppendZeroAllocs); export is JSONL via WriteJSONL, the
// /debug/events endpoint, or the CLI helper's -events flag.

// PhaseNanos carries one run's per-phase wall time in nanoseconds. Zero
// fields mean the phase did not occur (a watch-window record has only Total).
type PhaseNanos struct {
	Selection  int64 `json:"selection_ns,omitempty"`
	Extraction int64 `json:"extraction_ns,omitempty"`
	SortCut    int64 `json:"sort_cut_ns,omitempty"`
	Total      int64 `json:"total_ns"`
}

// BudgetSplit mirrors budget.Report without importing the budget package
// (obs sits below it in the import graph).
type BudgetSplit struct {
	Limit        int `json:"limit"`
	CandidateGen int `json:"candidate_gen"`
	TopK         int `json:"top_k"`
}

// KernelDelta is the traversal work a run performed, diffed from the sssp
// kernel counters around the run.
type KernelDelta struct {
	Calls   int64 `json:"calls"`
	Sources int64 `json:"sources"`
	Nodes   int64 `json:"nodes"`
	Edges   int64 `json:"edges"`
	// The pruned-extraction split: how many bounded second-snapshot
	// traversals ran (the edges they still scanned, and how many of their
	// levels ran bottom-up), and how many of the run's own the Δ-threshold
	// cut short.
	PrunedBFSCalls         int64 `json:"prunedbfs_calls,omitempty"`
	PrunedBFSEdges         int64 `json:"prunedbfs_edges,omitempty"`
	PrunedBFSBottomUpSteps int64 `json:"prunedbfs_bottomup_steps,omitempty"`
	PrunedCutoffs          int64 `json:"pruned_cutoffs,omitempty"`
	// BitParallel64BottomUpSteps counts the levels the run's bit-parallel
	// sweep batches pulled bottom-up.
	BitParallel64BottomUpSteps int64 `json:"bitparallel64_bottomup_steps,omitempty"`
}

// RunRecord is one flight-recorder entry.
type RunRecord struct {
	// Seq is the record's global sequence number, assigned by Append.
	Seq int64 `json:"seq"`
	// UnixNano is the wall-clock append time.
	UnixNano int64 `json:"unix_nano"`
	// Kind distinguishes record sources: "topk", "watch-window".
	Kind string `json:"kind"`
	// Fingerprint identifies the run's options compactly, e.g.
	// "selector=MMSD m=100 k=20 delta=0 seed=1 engine=bfs workers=2", where
	// engine is the traversal kernel family and workers the extraction
	// worker count the run resolved.
	Fingerprint string `json:"fingerprint"`
	// Phases is the per-phase wall time.
	Phases PhaseNanos `json:"phases"`
	// Budget is the run's SSSP spending split (mirrors budget.Report).
	Budget BudgetSplit `json:"budget"`
	// Kernels is the traversal work delta attributed to the run.
	Kernels KernelDelta `json:"kernels"`
	// Candidates and Pairs summarize the outcome size.
	Candidates int `json:"candidates"`
	Pairs      int `json:"pairs"`
	// PrunedCandidates counts candidates skipped whole by the landmark
	// upper bound. A skip always saves the charged t2 row; it saves the t1
	// row only when the bound was below the threshold's floor or the row
	// was cached.
	PrunedCandidates int `json:"pruned_candidates,omitempty"`
	// PrunedT2Batched counts the t2 rows that one bounded sweep derived
	// for the batched round (0: every t2 row ran one by one).
	PrunedT2Batched int `json:"pruned_t2_batched,omitempty"`
	// Outcome is "ok" or the error text of a failed run.
	Outcome string `json:"outcome"`
}

// FlightRecorder is a fixed-capacity ring of RunRecords, safe for concurrent
// append and read.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []RunRecord
	total int64 // records ever appended; buf[(total-1) % cap] is the newest
}

// NewFlightRecorder creates a recorder holding the last capacity records
// (minimum 1).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &FlightRecorder{buf: make([]RunRecord, capacity)}
}

// Flight is the process-wide default recorder, sized for "the last few
// hundred queries" — what a daemon postmortem actually wants.
var Flight = NewFlightRecorder(256)

// Append stamps the record (Seq, UnixNano) and stores it, overwriting the
// oldest entry once the ring is full. The record is copied by value into a
// preallocated slot: no allocation in steady state.
func (f *FlightRecorder) Append(r RunRecord) {
	//convlint:nondet record timestamps are observational, not part of results
	now := time.Now().UnixNano()
	f.mu.Lock()
	r.Seq = f.total
	r.UnixNano = now
	f.buf[f.total%int64(len(f.buf))] = r
	f.total++
	f.mu.Unlock()
}

// Total returns how many records were ever appended (>= Len).
func (f *FlightRecorder) Total() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// Len returns how many records are currently held.
func (f *FlightRecorder) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lenLocked()
}

func (f *FlightRecorder) lenLocked() int {
	if f.total < int64(len(f.buf)) {
		return int(f.total)
	}
	return len(f.buf)
}

// Last returns copies of the newest n records, oldest first. n <= 0 or
// n > Len returns everything held.
func (f *FlightRecorder) Last(n int) []RunRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	held := f.lenLocked()
	if n <= 0 || n > held {
		n = held
	}
	out := make([]RunRecord, n)
	for i := 0; i < n; i++ {
		seq := f.total - int64(n) + int64(i)
		out[i] = f.buf[seq%int64(len(f.buf))]
	}
	return out
}

// WriteJSONL writes the newest n records (oldest first) as one JSON object
// per line. n <= 0 writes everything held.
func (f *FlightRecorder) WriteJSONL(w io.Writer, n int) error {
	enc := json.NewEncoder(w)
	for _, r := range f.Last(n) {
		if err := enc.Encode(&r); err != nil {
			return err
		}
	}
	return nil
}

// EventsHandler serves the default flight recorder as JSONL; ?n=K limits the
// dump to the newest K records.
func EventsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				http.Error(w, fmt.Sprintf("bad n=%q", q), http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = Flight.WriteJSONL(w, n)
	})
}
