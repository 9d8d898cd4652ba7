// Package dataset wraps an evolving graph with the snapshot conventions of
// the paper's evaluation (Section 5.1): the test pair is (80%, 100%) of the
// edge stream, classifier training uses (60%, 70%), and per-dataset
// characteristics reproduce Table 2. It also provides a plain-text edge-list
// format so generated datasets can be saved and reloaded by the CLIs:
// "u v t" lines for unweighted streams, "u v t w" for weighted ones (w is
// the edge's fixed positive weight; snapshots then feed the Dijkstra-backed
// pipeline via WeightedPair).
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/topk"
	"repro/internal/weighted"
)

// Snapshot fractions used across the evaluation.
const (
	TrainFrac1 = 0.6
	TrainFrac2 = 0.7
	TestFrac1  = 0.8
	TestFrac2  = 1.0
)

// Dataset is a named evolving graph, optionally with per-edge weights.
type Dataset struct {
	Name string
	Ev   *graph.Evolving
	// Weights, when non-nil, holds one fixed positive weight per stream edge
	// (parallel to Ev.Stream()). Because every edge keeps its weight across
	// snapshots and evolution is insertion-only, any later weighted snapshot
	// automatically dominates any earlier one — the Delta >= 0 invariant of
	// the weighted pipeline holds by construction. nil means unit weights.
	Weights []int32
}

// Weighted reports whether the dataset carries per-edge weights.
func (d *Dataset) Weighted() bool { return d.Weights != nil }

// Generate builds one of the four synthetic paper datasets.
func Generate(name string, cfg datagen.Config) (*Dataset, error) {
	ev, err := datagen.ByName(name, cfg)
	if err != nil {
		return nil, err
	}
	return &Dataset{Name: name, Ev: ev}, nil
}

// GenerateAll builds all four datasets with the same config.
func GenerateAll(cfg datagen.Config) ([]*Dataset, error) {
	out := make([]*Dataset, 0, len(datagen.Names))
	for _, name := range datagen.Names {
		ds, err := Generate(name, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, ds)
	}
	return out, nil
}

// TestPair returns the evaluation snapshot pair (80% / 100%).
func (d *Dataset) TestPair() graph.SnapshotPair {
	pair, err := d.Ev.Pair(TestFrac1, TestFrac2)
	if err != nil {
		// The fractions are compile-time constants with TestFrac1 < TestFrac2.
		panic(err)
	}
	return pair
}

// TrainPair returns the classifier-training snapshot pair (60% / 70%).
func (d *Dataset) TrainPair() graph.SnapshotPair {
	pair, err := d.Ev.Pair(TrainFrac1, TrainFrac2)
	if err != nil {
		panic(err)
	}
	return pair
}

// Characteristics are the Table 2 columns for one dataset.
type Characteristics struct {
	Name string
	// Nodes1/Nodes2 count nodes with at least one edge in each snapshot.
	Nodes1, Nodes2 int
	// Edges1/Edges2 are the snapshot edge counts.
	Edges1, Edges2 int
	// Diameter1/Diameter2 are exact diameters (largest finite distance).
	Diameter1, Diameter2 int32
	// MaxDelta is Δmax, the largest shortest-path decrease.
	MaxDelta int32
	// NotConnected counts the nodes of G_t1 outside its largest connected
	// component (present nodes only).
	NotConnected int
}

// Characteristics computes the Table 2 row of the dataset's test pair. The
// ground truth gt must come from topk.Compute on the same pair (callers
// usually have it already; passing it avoids a second all-pairs sweep).
func (d *Dataset) Characteristics(pair graph.SnapshotPair, gt *topk.GroundTruth) Characteristics {
	c := Characteristics{
		Name:      d.Name,
		Edges1:    pair.G1.NumEdges(),
		Edges2:    pair.G2.NumEdges(),
		Diameter1: gt.Diameter1,
		Diameter2: gt.Diameter2,
		MaxDelta:  gt.MaxDelta,
	}
	for u := 0; u < pair.G1.NumNodes(); u++ {
		if pair.G1.Degree(u) > 0 {
			c.Nodes1++
		}
		if pair.G2.Degree(u) > 0 {
			c.Nodes2++
		}
	}
	comp, _ := pair.G1.LargestComponent()
	c.NotConnected = c.Nodes1 - len(comp)
	return c
}

// Save writes the dataset as "u v t" lines (or "u v t w" when weighted)
// preceded by a name header.
func (d *Dataset) Save(w io.Writer) error {
	if d.Weights != nil && len(d.Weights) != len(d.Ev.Stream()) {
		return fmt.Errorf("dataset: %d weights for %d stream edges", len(d.Weights), len(d.Ev.Stream()))
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# dataset %s\n", d.Name); err != nil {
		return err
	}
	for i, te := range d.Ev.Stream() {
		var err error
		if d.Weights != nil {
			_, err = fmt.Fprintf(bw, "%d %d %d %d\n", te.U, te.V, te.Time, d.Weights[i])
		} else {
			_, err = fmt.Fprintf(bw, "%d %d %d\n", te.U, te.V, te.Time)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveFile writes the dataset to the given path.
func (d *Dataset) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a dataset written by Save, auto-detecting the 3-column
// unweighted and 4-column weighted formats (the column count must be
// consistent across the file). Lines starting with '#' other than the name
// header are ignored; a missing header yields the fallback name.
func Load(r io.Reader, fallbackName string) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	name := fallbackName
	var stream []graph.TimedEdge
	var weights []int32
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if len(line) == 0 {
			continue
		}
		if line[0] == '#' {
			var n string
			if _, err := fmt.Sscanf(line, "# dataset %s", &n); err == nil {
				name = n
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 && len(fields) != 4 {
			return nil, fmt.Errorf("dataset: line %d: %d fields, want 3 (u v t) or 4 (u v t w)", lineNo, len(fields))
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		tm, err3 := strconv.ParseInt(fields[2], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("dataset: line %d: malformed edge %q", lineNo, line)
		}
		if len(fields) == 4 {
			if len(stream) != len(weights) {
				return nil, fmt.Errorf("dataset: line %d: weighted line in an unweighted file", lineNo)
			}
			w, err := strconv.ParseInt(fields[3], 10, 32)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("dataset: line %d: bad weight %q", lineNo, fields[3])
			}
			weights = append(weights, int32(w))
		} else if weights != nil {
			return nil, fmt.Errorf("dataset: line %d: unweighted line in a weighted file", lineNo)
		}
		stream = append(stream, graph.TimedEdge{U: u, V: v, Time: tm})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	ev, err := graph.NewEvolving(stream)
	if err != nil {
		return nil, err
	}
	return &Dataset{Name: name, Ev: ev, Weights: weights}, nil
}

// AssignUniformWeights attaches per-edge weights drawn uniformly from
// [1, max], replacing any existing weights. The draw is deterministic in the
// seed and in stream order, so saved and regenerated datasets agree.
func (d *Dataset) AssignUniformWeights(seed int64, max int32) error {
	if max < 1 {
		return fmt.Errorf("dataset: max weight %d, want >= 1", max)
	}
	rng := rand.New(rand.NewSource(seed))
	weights := make([]int32, d.Ev.NumEdges())
	for i := range weights {
		weights[i] = 1 + rng.Int31n(max)
	}
	d.Weights = weights
	return nil
}

// weightedPrefix builds the weighted snapshot containing the first count
// stream edges, over the full node universe (mirroring SnapshotPrefix).
func (d *Dataset) weightedPrefix(count int) (*graph.Weighted, error) {
	if count < 0 {
		count = 0
	}
	if count > d.Ev.NumEdges() {
		count = d.Ev.NumEdges()
	}
	edges := make([]graph.WeightedEdge, count)
	for i, te := range d.Ev.Stream()[:count] {
		edges[i] = graph.WeightedEdge{U: te.U, V: te.V, Weight: d.Weights[i]}
	}
	return graph.NewWeighted(d.Ev.NumNodes(), edges)
}

// WeightedPair returns the weighted snapshot pair at fractions (f1, f2) of
// the edge stream, the Dijkstra-pipeline analogue of Evolving.Pair. Each edge
// keeps its fixed weight in both snapshots, so the later snapshot dominates
// the earlier one by construction. The dataset must be weighted.
func (d *Dataset) WeightedPair(f1, f2 float64) (weighted.SnapshotPair, error) {
	if d.Weights == nil {
		return weighted.SnapshotPair{}, fmt.Errorf("dataset: %s has no edge weights (load a 4-column file or call AssignUniformWeights)", d.Name)
	}
	if len(d.Weights) != d.Ev.NumEdges() {
		return weighted.SnapshotPair{}, fmt.Errorf("dataset: %d weights for %d stream edges", len(d.Weights), d.Ev.NumEdges())
	}
	if !(f1 < f2) || f1 < 0 || f2 > 1 {
		return weighted.SnapshotPair{}, fmt.Errorf("dataset: bad fractions (%v, %v), want 0 <= f1 < f2 <= 1", f1, f2)
	}
	total := float64(d.Ev.NumEdges())
	g1, err := d.weightedPrefix(int(f1 * total))
	if err != nil {
		return weighted.SnapshotPair{}, err
	}
	g2, err := d.weightedPrefix(int(f2 * total))
	if err != nil {
		return weighted.SnapshotPair{}, err
	}
	sp := weighted.SnapshotPair{G1: g1, G2: g2}
	if err := sp.Validate(); err != nil {
		return weighted.SnapshotPair{}, err
	}
	return sp, nil
}

// LoadFile reads a dataset from the given path, using the path as the
// fallback name.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, path)
}
