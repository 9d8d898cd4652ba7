package candidates

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/landmark"
)

// Feature layout for the classification-based selectors (Section 5.3): the
// degree of the node in the first snapshot, the degree difference, the
// relative degree difference, and the L1 and L∞ landmark delta norms for
// random, MaxMin- and MaxAvg-selected landmark sets.
const (
	FeatDeg1 = iota
	FeatDegDiff
	FeatDegRel
	FeatL1Random
	FeatLInfRandom
	FeatL1MaxMin
	FeatLInfMaxMin
	FeatL1MaxAvg
	FeatLInfMaxAvg
	// NumNodeFeatures is the per-node feature count of the local classifier.
	NumNodeFeatures
)

// Global (per-dataset) features appended by the global classifier: density
// and maximum degree of both snapshots (max degree is normalized by the node
// count so it is comparable across datasets).
const (
	FeatDensity1 = NumNodeFeatures + iota
	FeatDensity2
	FeatMaxDeg1
	FeatMaxDeg2
	// NumGlobalFeatures is the total feature count of the global classifier.
	NumGlobalFeatures
)

// FeatureNames returns the feature labels, in column order, for either the
// local (global=false) or global (global=true) feature layout.
func FeatureNames(global bool) []string {
	names := []string{
		"deg_t1", "deg_diff", "deg_rel",
		"L1_random", "Linf_random",
		"L1_maxmin", "Linf_maxmin",
		"L1_maxavg", "Linf_maxavg",
	}
	if global {
		names = append(names, "density_t1", "density_t2", "maxdeg_t1", "maxdeg_t2")
	}
	return names
}

// BuildFeatures computes the classifier feature matrix for every node of the
// snapshot pair (rows indexed by node ID, unscaled). Features are built from
// degrees and metered distance rows only, so the same matrix layout works
// for BFS and Dijkstra distance sources. It consumes the classifier's setup
// budget: three landmark sets of l nodes each, costing 3·2l SSSP
// computations (Table 1). The landmark rows are cached in ctx for potential
// reuse by the extraction phase. When global is true the four dataset-level
// features are appended to every row.
func BuildFeatures(ctx *Context, global bool) ([][]float64, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	if ctx.RNG == nil {
		return nil, fmt.Errorf("candidates: feature extraction requires an RNG for random landmarks")
	}
	s1, s2 := ctx.S1, ctx.S2
	n := s1.NumNodes()
	width := NumNodeFeatures
	if global {
		width = NumGlobalFeatures
	}
	x := make([][]float64, n)
	backing := make([]float64, n*width)
	for u := 0; u < n; u++ {
		x[u] = backing[u*width : (u+1)*width : (u+1)*width]
		d1, d2 := s1.Degree(u), s2.Degree(u)
		x[u][FeatDeg1] = float64(d1)
		x[u][FeatDegDiff] = float64(d2 - d1)
		if d1 > 0 {
			x[u][FeatDegRel] = float64(d2-d1) / float64(d1)
		}
	}

	for _, spec := range []struct {
		strategy landmark.Strategy
		l1Col    int
		infCol   int
	}{
		{landmark.Random, FeatL1Random, FeatLInfRandom},
		{landmark.MaxMin, FeatL1MaxMin, FeatLInfMaxMin},
		{landmark.MaxAvg, FeatL1MaxAvg, FeatLInfMaxAvg},
	} {
		set, err := landmark.SelectSource(spec.strategy, s1, ctx.Landmarks(), ctx.RNG, ctx.Meter, ctx.Workers)
		if err != nil {
			return nil, fmt.Errorf("candidates: %v landmarks: %w", spec.strategy, err)
		}
		norms, d1rows, d2rows, err := landmark.ComputeNormsSource(set, ctx.Sources(), ctx.Meter, ctx.Workers)
		if err != nil {
			return nil, fmt.Errorf("candidates: %v norms: %w", spec.strategy, err)
		}
		for i, w := range set.Nodes {
			ctx.CacheRows(w, d1rows[i], d2rows[i])
		}
		for u := 0; u < n; u++ {
			x[u][spec.l1Col] = float64(norms.L1[u])
			x[u][spec.infCol] = float64(norms.LInf[u])
		}
	}

	if global {
		gf := GlobalFeaturesSources(ctx.Sources())
		for u := 0; u < n; u++ {
			copy(x[u][NumNodeFeatures:], gf)
		}
	}
	return x, nil
}

// GlobalFeatures returns the four dataset-level features of an unweighted
// snapshot pair: density of both snapshots and maximum degree normalized by
// node count.
func GlobalFeatures(pair graph.SnapshotPair) []float64 {
	return GlobalFeaturesSources(dist.BFSPair(pair))
}

// GlobalFeaturesSources is GlobalFeatures over any distance-source pair;
// the features are structural (degree-derived), hence metric-independent.
func GlobalFeaturesSources(p dist.Pair) []float64 {
	n := float64(p.NumNodes())
	if n == 0 {
		n = 1
	}
	return []float64{
		dist.Density(p.S1),
		dist.Density(p.S2),
		float64(dist.MaxDegree(p.S1)) / n,
		float64(dist.MaxDegree(p.S2)) / n,
	}
}
