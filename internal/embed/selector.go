package embed

import (
	"fmt"
	"sort"

	"repro/internal/budget"
	"repro/internal/candidates"
	"repro/internal/dist"
	"repro/internal/landmark"
)

// selector is the embedding-based candidate generator: embed both snapshots
// over the same dispersed anchors (paying the usual 2l landmark budget),
// then rank every node by its estimated total distance decrease to a random
// probe sample — pairs the landmark-vector methods cannot score, because
// probes need no BFS of their own in the embedded space.
type selector struct {
	opts   Options
	probes int
}

// NewSelector builds the embedding selector. probes is the size of the
// random probe sample the ranking integrates over (0 means 64).
func NewSelector(opts Options, probes int) candidates.Selector {
	if probes <= 0 {
		probes = 64
	}
	return selector{opts: opts, probes: probes}
}

func (selector) Name() string { return "EmbedSum" }

func (s selector) Select(ctx *candidates.Context) ([]int, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	if ctx.RNG == nil {
		return nil, fmt.Errorf("candidates: EmbedSum requires an RNG")
	}
	l := ctx.Landmarks()
	if ctx.M <= l {
		return nil, fmt.Errorf("%w: m=%d <= l=%d anchors", candidates.ErrBudgetTooSmall, ctx.M, l)
	}
	// The embedding optimizer consumes raw adjacency, so this selector only
	// runs on unweighted (BFS-backed) snapshots.
	pair, err := ctx.Unweighted()
	if err != nil {
		return nil, fmt.Errorf("EmbedSum: %w", err)
	}
	// Dispersed anchors; selection BFS rows double as the G_t1 rows.
	set, err := landmark.Select(landmark.MaxMin, pair.G1, l, ctx.RNG, ctx.Meter)
	if err != nil {
		return nil, fmt.Errorf("EmbedSum: %w", err)
	}
	if err := ctx.Meter.Charge(budget.PhaseCandidateGen, len(set.Nodes)); err != nil {
		return nil, fmt.Errorf("EmbedSum: G_t2 anchor rows: %w", err)
	}
	d2rows := dist.DistanceMatrix(dist.NewBFS(pair.G2), set.Nodes, ctx.Workers)
	for i, w := range set.Nodes {
		ctx.CacheRows(w, set.D1[i], d2rows[i])
	}

	e1, err := Embed(pair.G1, set.Nodes, set.D1, s.opts, ctx.RNG)
	if err != nil {
		return nil, fmt.Errorf("EmbedSum: embed G_t1: %w", err)
	}
	e2, err := Embed(pair.G2, set.Nodes, d2rows, s.opts, ctx.RNG)
	if err != nil {
		return nil, fmt.Errorf("EmbedSum: embed G_t2: %w", err)
	}

	// Probe sample: random nodes present in G_t1.
	n := pair.G1.NumNodes()
	present := make([]int, 0, n)
	for u := 0; u < n; u++ {
		if pair.G1.Degree(u) > 0 {
			present = append(present, u)
		}
	}
	if len(present) == 0 {
		return nil, nil
	}
	probes := s.probes
	if probes > len(present) {
		probes = len(present)
	}
	sample := make([]int, probes)
	for i, j := range ctx.RNG.Perm(len(present))[:probes] {
		sample[i] = present[j]
	}

	score := make([]float64, n)
	for _, u := range present {
		if !e1.Reached[u] || !e2.Reached[u] {
			continue
		}
		var total float64
		for _, p := range sample {
			if p == u || !e1.Reached[p] || !e2.Reached[p] {
				continue
			}
			drop := e1.Estimate(u, p) - e2.Estimate(u, p)
			if drop > 0 {
				total += drop
			}
		}
		score[u] = total
	}
	// Like the hybrids, the dispersed anchors join the candidate set (their
	// rows are already paid for), topped up with the best-ranked nodes.
	inAnchors := make(map[int]bool, len(set.Nodes))
	for _, w := range set.Nodes {
		inAnchors[w] = true
	}
	idx := make([]int, 0, len(present))
	for _, u := range present {
		if !inAnchors[u] {
			idx = append(idx, u)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		if score[idx[a]] != score[idx[b]] {
			return score[idx[a]] > score[idx[b]]
		}
		return idx[a] < idx[b]
	})
	m := ctx.M - len(set.Nodes)
	if m > len(idx) {
		m = len(idx)
	}
	return append(append([]int(nil), set.Nodes...), idx[:m]...), nil
}
