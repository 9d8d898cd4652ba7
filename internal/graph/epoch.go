package graph

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// This file is the session-oriented face of the package: a streaming edge
// ingester that seals immutable CSR epochs into an RCU-style Store, so a
// long-running service can answer (t1, t2) window queries while edges keep
// arriving. It generalizes the ingestion loop that monitor.Watch and the
// streaming-watch example used to own privately.
//
// Concurrency model: epochs are immutable once sealed; the Store publishes
// the epoch list through an atomic pointer, so readers never lock. Writers
// (seal, prune) serialize on a mutex and swap a fresh copy of the list in.
// A reader that obtained an *Epoch keeps it valid forever — pruning only
// removes epochs from the list, never invalidates them — but queries that
// resolve epochs *by sequence number* later should Pin them so retention
// cannot drop them from the list in between.

// Epoch is one sealed, immutable snapshot of the evolving graph. Sequence
// numbers start at 1 and increase by one per seal.
type Epoch struct {
	// Seq is the 1-based seal sequence number.
	Seq int
	// Time is the largest edge timestamp ingested before the seal (0 when no
	// edge carried a timestamp).
	Time int64
	// EdgeCount is the number of distinct edges in the epoch.
	EdgeCount int

	g    *Graph
	pins atomic.Int64
}

// Graph returns the epoch's immutable CSR snapshot.
func (e *Epoch) Graph() *Graph { return e.g }

// Pin marks the epoch in use, excluding it from retention pruning, and
// returns the release function. Release is idempotent-unsafe: call it exactly
// once.
func (e *Epoch) Pin() (release func()) {
	e.pins.Add(1)
	return func() { e.pins.Add(-1) }
}

// Pinned reports whether any holder currently pins the epoch.
func (e *Epoch) Pinned() bool { return e.pins.Load() > 0 }

// Store is the epoch snapshot store: an append-only (modulo retention)
// sequence of sealed epochs, readable without locks.
type Store struct {
	mu     sync.Mutex // serializes seal and prune
	retain int        // max unpinned epochs kept; <= 0 means unlimited
	list   atomic.Pointer[[]*Epoch]
}

// NewStore creates a store retaining at most retain epochs (<= 0 for
// unlimited). The latest epoch and every pinned epoch are always retained
// regardless of the limit.
func NewStore(retain int) *Store {
	s := &Store{retain: retain}
	empty := []*Epoch{}
	s.list.Store(&empty)
	return s
}

// Epochs returns the current epoch list, oldest first. The returned slice is
// a private copy; the epochs themselves are shared and immutable.
func (s *Store) Epochs() []*Epoch {
	cur := *s.list.Load()
	out := make([]*Epoch, len(cur))
	copy(out, cur)
	return out
}

// Len returns the number of retained epochs.
func (s *Store) Len() int { return len(*s.list.Load()) }

// Latest returns the newest epoch, or false when nothing was sealed yet.
func (s *Store) Latest() (*Epoch, bool) {
	cur := *s.list.Load()
	if len(cur) == 0 {
		return nil, false
	}
	return cur[len(cur)-1], true
}

// At returns the epoch with the given sequence number, or false when it was
// never sealed or has been pruned.
func (s *Store) At(seq int) (*Epoch, bool) {
	cur := *s.list.Load()
	// Retention removes a prefix, so seq maps to a dense suffix index.
	if len(cur) == 0 {
		return nil, false
	}
	first := cur[0].Seq
	i := seq - first
	if i < 0 || i >= len(cur) {
		return nil, false
	}
	return cur[i], true
}

// append publishes e and applies retention. Caller holds s.mu.
func (s *Store) append(e *Epoch) {
	cur := *s.list.Load()
	next := make([]*Epoch, 0, len(cur)+1)
	next = append(next, cur...)
	next = append(next, e)
	if s.retain > 0 {
		// Drop the oldest unpinned epochs beyond the limit. Pinned epochs
		// block pruning of everything newer than them so the dense-suffix
		// indexing of At stays valid (retention only ever removes a prefix).
		excess := len(next) - s.retain
		drop := 0
		for drop < excess && drop < len(next)-1 && !next[drop].Pinned() {
			drop++
		}
		next = next[drop:]
	}
	s.list.Store(&next)
}

// ErrNoEpoch reports a window request against a sequence number the store
// does not hold.
var ErrNoEpoch = errors.New("graph: no such epoch")

// Window is a pinned (G_t1, G_t2) view over two epochs. The pair shares G2's
// node universe: the earlier snapshot is padded with isolated nodes
// (PadUniverse) so node IDs — and therefore distances, selections, and RNG
// draws — are directly comparable, exactly as if both snapshots had been
// built over the full universe by Evolving.SnapshotPrefix. Close releases
// both pins; the Pair stays valid afterwards (epochs are immutable), it just
// no longer blocks retention.
type Window struct {
	Pair   SnapshotPair
	E1, E2 *Epoch

	releaseOnce sync.Once
	release     func()
}

// Close releases the window's epoch pins. Safe to call more than once.
func (w *Window) Close() {
	w.releaseOnce.Do(w.release)
}

// Window pins the epochs seq1 < seq2 and returns their snapshot pair over
// G_t2's node universe. The supergraph invariant holds by construction
// (epochs grow by insertion only), but is re-validated here as a cheap guard
// against store misuse.
func (s *Store) Window(seq1, seq2 int) (*Window, error) {
	if seq1 >= seq2 {
		return nil, fmt.Errorf("graph: window wants seq1 < seq2, got %d >= %d", seq1, seq2)
	}
	e1, ok := s.At(seq1)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoEpoch, seq1)
	}
	e2, ok := s.At(seq2)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoEpoch, seq2)
	}
	r1, r2 := e1.Pin(), e2.Pin()
	pair := SnapshotPair{G1: PadUniverse(e1.g, e2.g.NumNodes()), G2: e2.g}
	if err := pair.Validate(); err != nil {
		r1()
		r2()
		return nil, err
	}
	return &Window{Pair: pair, E1: e1, E2: e2, release: func() { r1(); r2() }}, nil
}

// PadUniverse returns a view of g over a node universe of size n >= g's: the
// extra nodes are isolated. The returned graph shares g's neighbor storage
// (only the offsets array is reallocated), so padding an epoch for a window
// costs O(n), not O(E). Returns g itself when no padding is needed.
func PadUniverse(g *Graph, n int) *Graph {
	old := g.NumNodes()
	if n <= old {
		return g
	}
	offsets := make([]int32, n+1)
	copy(offsets, g.offsets)
	tail := int32(0)
	if old > 0 {
		tail = g.offsets[old]
	}
	for u := old + 1; u <= n; u++ {
		offsets[u] = tail
	}
	return &Graph{offsets: offsets, neighbors: g.neighbors, numEdges: g.numEdges}
}

// IngesterOptions tunes a streaming Ingester.
type IngesterOptions struct {
	// Universe is the minimum node-universe size of every sealed epoch. Set
	// it when the eventual universe is known up front (e.g. replaying an
	// Evolving stream) so early epochs share the final universe and selector
	// RNG draws match a full-universe run exactly. 0 lets the universe grow
	// with the edges ingested.
	Universe int
	// Retain bounds the store's epoch retention (<= 0 for unlimited).
	Retain int
}

// Ingester accumulates a stream of edge insertions and seals them into
// epochs. It is safe for concurrent use; sealing does not block ingestion
// beyond the shared mutex. Duplicate edges and self-loops are tolerated and
// skipped (the wire repeats itself; only first insertion counts), unlike
// NewEvolving's strict validation — this is the service-facing boundary.
type Ingester struct {
	mu    sync.Mutex
	store *Store
	// builder holds the one copy of the ingested edge set and the node
	// universe (the configured floor or the largest node ID seen plus one).
	builder *Builder
	maxTime int64
}

// NewIngester creates an ingester with a fresh epoch store.
func NewIngester(opts IngesterOptions) *Ingester {
	return &Ingester{store: NewStore(opts.Retain), builder: NewBuilder(max(opts.Universe, 0))}
}

// Store returns the epoch store the ingester seals into.
func (in *Ingester) Store() *Store { return in.store }

// Ingest records one edge insertion. It returns true when the edge was new,
// false when it was a duplicate or a self-loop (both are skipped silently).
// Node IDs outside [0, math.MaxInt32] are rejected with ErrNodeRange.
func (in *Ingester) Ingest(te TimedEdge) (bool, error) {
	added, err := in.IngestBatch([]TimedEdge{te})
	return added == 1, err
}

// IngestBatch records a batch of insertions under one lock acquisition,
// returning how many were new. The batch is all or nothing: every edge is
// checked before any is applied, so a rejected batch (ErrNodeRange, naming
// the first offender) leaves the ingester unchanged.
func (in *Ingester) IngestBatch(edges []TimedEdge) (added int, err error) {
	for i, te := range edges {
		if !validNode(te.U) || !validNode(te.V) {
			return 0, fmt.Errorf("%w: edge %d = (%d, %d)", ErrNodeRange, i, te.U, te.V)
		}
	}
	return in.addEach(edges), nil
}

// addEach applies already-validated edges under the lock and returns how
// many were new.
func (in *Ingester) addEach(edges []TimedEdge) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	added := 0
	for _, te := range edges {
		if in.addLocked(te) {
			added++
		}
	}
	return added
}

// addLocked adds one validated edge and reports whether it was new. The
// Builder drops duplicates and self-loops, so its edge count says which.
func (in *Ingester) addLocked(te TimedEdge) bool {
	before := in.builder.NumEdges()
	_ = in.builder.AddEdge(te.U, te.V) // IDs validated by the caller; cannot fail
	if in.builder.NumEdges() == before {
		return false
	}
	if te.Time > in.maxTime {
		in.maxTime = te.Time
	}
	return true
}

// Seal freezes the edges ingested so far into a new epoch and publishes it.
// Sealing with no new edges since the last seal is allowed and produces an
// epoch structurally identical to its predecessor (its delta is empty).
func (in *Ingester) Seal() *Epoch {
	// in.mu stays held through publication: two racing seals must publish in
	// the order they built, or a later-seq epoch could miss edges an
	// earlier-seq one has (breaking the supergraph invariant windows rely on).
	in.mu.Lock()
	defer in.mu.Unlock()
	g := in.builder.Build()
	e := &Epoch{Time: in.maxTime, EdgeCount: g.NumEdges(), g: g}

	in.store.mu.Lock()
	if latest, ok := in.store.Latest(); ok {
		e.Seq = latest.Seq + 1
	} else {
		e.Seq = 1
	}
	in.store.append(e)
	in.store.mu.Unlock()
	return e
}

// EdgeCount returns the number of distinct edges ingested so far.
func (in *Ingester) EdgeCount() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.builder.NumEdges()
}

// NumNodes returns the current node-universe size (the configured floor or
// the largest node ID seen plus one, whichever is greater).
func (in *Ingester) NumNodes() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.builder.n
}
