// Package obs is the library's zero-dependency observability layer: span
// tracing for the phases of Algorithm 1 (selection, extraction, sort/cut)
// and monitoring windows, an expvar-style metrics exposition fed by the BFS
// kernels' atomic counters, and an HTTP surface combining both with pprof.
//
// Everything is nil-safe: a nil *Trace and the nil *Span it hands out are
// valid no-op receivers, so instrumented code pays a single pointer test
// when tracing is off. Traces are safe for concurrent use — selectors and
// extraction workers charge budget (and thereby annotate spans) from worker
// goroutines.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// KV is one key/value annotation on a span or instant event. Values must be
// JSON-encodable; ints, floats, strings and bools cover the library's use.
type KV struct {
	Key string
	Val any
}

// Int builds an integer annotation.
func Int(key string, v int) KV { return KV{key, v} }

// Int64 builds a 64-bit integer annotation.
func Int64(key string, v int64) KV { return KV{key, v} }

// Float builds a float annotation.
func Float(key string, v float64) KV { return KV{key, v} }

// Str builds a string annotation.
func Str(key, v string) KV { return KV{key, v} }

// Span is one timed region of a trace. Spans started while another span is
// open nest under it (the library's phases are sequential on the goroutine
// that drives the algorithm; worker goroutines annotate, they do not open
// spans). All methods are nil-safe.
type Span struct {
	tr     *Trace
	id     int
	parent int // span id, -1 for roots
	name   string
	start  time.Duration // offset from the trace epoch
	dur    time.Duration
	ended  bool
	args   []KV
	sssp   map[string]int // per-budget-phase SSSP charges attributed here
}

// instant is a point event (a budget charge, a kernel note).
type instant struct {
	name string
	ts   time.Duration
	args []KV
}

// Trace collects spans and instant events for one run. Create one with New,
// thread it through Options/Config fields, then export with WriteChrome
// (chrome://tracing / Perfetto) or WriteTree (human-readable).
type Trace struct {
	mu    sync.Mutex
	name  string
	epoch time.Time

	spans    []*Span
	stack    []int // ids of open spans, innermost last
	instants []instant
	sssp     map[string]int // per-phase totals across the whole trace
}

// New starts an empty trace. The name labels the process row in Chrome's
// viewer.
func New(name string) *Trace {
	//convlint:nondet trace timestamps are observational, not part of results
	return &Trace{name: name, epoch: time.Now(), sssp: map[string]int{}}
}

// now returns the current offset from the trace epoch.
//
//convlint:nondet span timing is observational, not part of results
func (t *Trace) now() time.Duration { return time.Since(t.epoch) }

// StartSpan opens a span nested under the innermost currently open span.
// End it with Span.End. On a nil trace it returns a nil span.
func (t *Trace) StartSpan(name string, kvs ...KV) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{
		tr:     t,
		id:     len(t.spans),
		parent: -1,
		name:   name,
		start:  t.now(),
		args:   kvs,
	}
	if len(t.stack) > 0 {
		s.parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, s.id)
	return s
}

// End closes the span. Ending a span also closes any still-open spans nested
// inside it, so a forgotten inner End cannot corrupt the tree.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ended {
		return
	}
	now := t.now()
	// Pop the stack down to (and including) this span; anything above it is
	// an unclosed child and inherits this span's end time.
	for i := len(t.stack) - 1; i >= 0; i-- {
		sp := t.spans[t.stack[i]]
		t.stack = t.stack[:i]
		if !sp.ended {
			sp.ended = true
			sp.dur = now - sp.start
		}
		//convlint:nondet span identity within one trace is the semantics
		if sp == s {
			return
		}
	}
	// s was not on the stack (already popped by an ancestor's End); close it
	// directly.
	s.ended = true
	s.dur = now - s.start
}

// Set appends annotations to the span (visible in both exports).
func (s *Span) Set(kvs ...KV) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.args = append(s.args, kvs...)
}

// AddSSSP attributes n SSSP computations in the named budget phase to the
// innermost open span and to the trace totals. The core algorithm calls it
// at its phase boundaries with what each phase charged its meter, so every
// charge lands on the span of the phase that spent it.
func (t *Trace) AddSSSP(phase string, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sssp[phase] += n
	if len(t.stack) > 0 {
		s := t.spans[t.stack[len(t.stack)-1]]
		if s.sssp == nil {
			s.sssp = map[string]int{}
		}
		s.sssp[phase] += n
	}
}

// Instant records a point event (rendered as a marker in Chrome's viewer).
func (t *Trace) Instant(name string, kvs ...KV) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.instants = append(t.instants, instant{name: name, ts: t.now(), args: kvs})
}

// SSSPByPhase returns the total SSSP charges observed per budget phase. For
// a traced budgeted run these equal the run's budget.Report split — the
// property cmd/convpairs verifies after every traced run.
func (t *Trace) SSSPByPhase() map[string]int {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int, len(t.sssp))
	for k, v := range t.sssp {
		out[k] = v
	}
	return out
}

// snapshot returns consistent copies of the trace state for export.
func (t *Trace) snapshot() (spans []Span, instants []instant, totals map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	spans = make([]Span, len(t.spans))
	for i, s := range t.spans {
		spans[i] = *s
		if !s.ended {
			spans[i].dur = now - s.start // open spans export as running-until-now
		}
	}
	instants = append([]instant(nil), t.instants...)
	totals = make(map[string]int, len(t.sssp))
	for k, v := range t.sssp {
		totals[k] = v
	}
	return spans, instants, totals
}

// argsMap flattens annotations (plus any per-phase SSSP counts) into the
// args object both exporters show.
func argsMap(kvs []KV, sssp map[string]int) map[string]any {
	if len(kvs) == 0 && len(sssp) == 0 {
		return nil
	}
	m := make(map[string]any, len(kvs)+len(sssp))
	for _, kv := range kvs {
		m[kv.Key] = kv.Val
	}
	for phase, n := range sssp {
		m["sssp."+phase] = n
	}
	return m
}

// chromeEvent is one entry of the Chrome trace_event format (the JSON Array
// Format wrapped in an object, as Perfetto and chrome://tracing load it).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"` // microseconds
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChrome exports the trace in Chrome trace_event JSON. Load the file at
// chrome://tracing or https://ui.perfetto.dev. Open spans are exported with
// their duration so far.
func (t *Trace) WriteChrome(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: nil trace")
	}
	spans, instants, totals := t.snapshot()
	events := make([]chromeEvent, 0, len(spans)+len(instants)+2)
	events = append(events, chromeEvent{
		Name: "process_name", Phase: "M", PID: 1, TID: 1,
		Args: map[string]any{"name": t.name},
	})
	events = append(events, chromeEvent{
		Name: "thread_name", Phase: "M", PID: 1, TID: 1,
		Args: map[string]any{"name": "algorithm"},
	})
	for i := range spans {
		s := &spans[i]
		events = append(events, chromeEvent{
			Name: s.name, Cat: "phase", Phase: "X",
			TS: s.start.Microseconds(), Dur: max64(s.dur.Microseconds(), 1),
			PID: 1, TID: 1,
			Args: argsMap(s.args, s.sssp),
		})
	}
	for _, in := range instants {
		events = append(events, chromeEvent{
			Name: in.name, Cat: "event", Phase: "i", Scope: "t",
			TS: in.ts.Microseconds(), PID: 1, TID: 1,
			Args: argsMap(in.args, nil),
		})
	}
	doc := struct {
		TraceEvents     []chromeEvent  `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		Metadata        map[string]any `json:"metadata,omitempty"`
	}{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		Metadata:        map[string]any{"trace-name": t.name, "sssp-by-phase": totals},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// WriteChromeFile is WriteChrome into a newly created file.
func (t *Trace) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteTree renders the span tree with durations, annotations and per-span
// SSSP counts — the terminal-friendly view of the same data WriteChrome
// exports.
func (t *Trace) WriteTree(w io.Writer) error {
	if t == nil {
		return nil
	}
	spans, _, totals := t.snapshot()
	if _, err := fmt.Fprintf(w, "trace %s\n", t.name); err != nil {
		return err
	}
	children := make(map[int][]int)
	var roots []int
	for i := range spans {
		if spans[i].parent < 0 {
			roots = append(roots, i)
		} else {
			children[spans[i].parent] = append(children[spans[i].parent], i)
		}
	}
	var walk func(id, depth int) error
	walk = func(id, depth int) error {
		s := &spans[id]
		line := fmt.Sprintf("%s%-*s %10s", strings.Repeat("  ", depth+1), 24-2*depth, s.name,
			s.dur.Round(time.Microsecond))
		if extra := describeArgs(s.args, s.sssp); extra != "" {
			line += "  " + extra
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
		for _, c := range children[id] {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := walk(r, 0); err != nil {
			return err
		}
	}
	if len(totals) > 0 {
		keys := make([]string, 0, len(totals))
		for k := range totals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%d", k, totals[k])
		}
		if _, err := fmt.Fprintf(w, "  sssp: %s\n", strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	return nil
}

// describeArgs formats annotations and SSSP counts for the tree view.
func describeArgs(kvs []KV, sssp map[string]int) string {
	parts := make([]string, 0, len(kvs)+len(sssp))
	for _, kv := range kvs {
		parts = append(parts, fmt.Sprintf("%s=%v", kv.Key, kv.Val))
	}
	keys := make([]string, 0, len(sssp))
	for k := range sssp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("sssp[%s]=%d", k, sssp[k]))
	}
	return strings.Join(parts, " ")
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
