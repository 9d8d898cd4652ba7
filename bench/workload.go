package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/serve"
)

// workload is one named traffic mix against a served epoch store. Everything
// it sends — the edge streams, the batches they are cut into, and the query
// lists — is derived from the -seed flag alone (see makeInputs).
type workload struct {
	name    string
	why     string
	dataset string // datagen generator
	nodes   int    // stream size per deployment
	// deployments is how many independently generated streams one run
	// serves, one after the other, each on a fresh server for an equal share
	// of the run. Query cost depends strongly on the generated graph (on a
	// 50k-node DBLP graph the converging pairs a query extracts varied
	// sevenfold across ten seeds), so a run samples several graphs to keep
	// its medians steady across seeds.
	deployments int
	// cuts are the stream fractions sealed as epochs during set-up.
	cuts []float64
	// clients is the number of closed-loop query clients (each its own
	// unlimited tenant).
	clients int
	queries func(rng *rand.Rand, n int) []serve.QueryRequest
}

// workloads are the benchmark's three traffic mixes. Each stresses a
// different layer; README.md gives the reasoning in full.
var workloads = []workload{
	{
		name:        "dblp-mmsd-k10",
		why:         "sparse large-diameter graph, one client: extraction (pruned t2 BFS, landmark skips) dominates",
		dataset:     "DBLP",
		nodes:       10000,
		deployments: 20,
		cuts:        []float64{0.8, 1.0},
		clients:     1,
		queries:     distinctSeeds(serve.QueryRequest{Selector: "MMSD", M: 50, L: 10, K: 10, Paired: "full"}),
	},
	{
		name:        "fb-maxmin-lone",
		why:         "sequential dispersion: one lone SSSP per pick, so selection and the Batcher window dominate",
		dataset:     "Facebook",
		nodes:       4700, // the paper's Facebook size (datagen scale 1)
		deployments: 10,
		cuts:        []float64{0.8, 1.0},
		clients:     1,
		queries:     distinctSeeds(serve.QueryRequest{Selector: "MaxMin", M: 50, K: 10, Paired: "full"}),
	},
	{
		name:        "fb-mixed-2c",
		why:         "two clients, mixed selectors and k, repeats: shared Batcher sweeps, warm caches, incremental repair",
		dataset:     "Facebook",
		nodes:       10000,
		deployments: 10,
		cuts:        []float64{0.6, 0.8, 1.0},
		clients:     2,
		queries:     mixedQueries,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// distinctSeeds repeats one query shape with a distinct RNG seed per query,
// so no two queries share a warm-cache entry.
func distinctSeeds(shape serve.QueryRequest) func(*rand.Rand, int) []serve.QueryRequest {
	return func(rng *rand.Rand, n int) []serve.QueryRequest {
		seen := make(map[int64]bool, n)
		out := make([]serve.QueryRequest, 0, n)
		for len(out) < n {
			q := shape
			q.Seed = rng.Int63()
			if seen[q.Seed] {
				continue
			}
			seen[q.Seed] = true
			out = append(out, q)
		}
		return out
	}
}

// mixedQueries draws the fb-mixed-2c list. Every third query repeats an
// earlier one exactly (warm selection and kth-Δ hits). The others take the
// twelve selector and k combinations in a seed-shuffled order, a full round
// at a time, so every seed serves the same mix; paired mode and epoch window
// alternate so all four of their combinations occur.
func mixedQueries(rng *rand.Rand, n int) []serve.QueryRequest {
	selectors := []string{"DegDiff", "MMSD", "MaxAvg", "SumDiff"}
	ks := []int{10, 50, 200}
	out := make([]serve.QueryRequest, 0, n)
	var round []int
	fresh := 0
	for len(out) < n {
		if len(out)%3 == 2 {
			out = append(out, out[rng.Intn(len(out))])
			continue
		}
		if len(round) == 0 {
			round = rng.Perm(len(selectors) * len(ks))
		}
		c := round[0]
		round = round[1:]
		q := serve.QueryRequest{
			Selector: selectors[c%len(selectors)],
			M:        50,
			L:        10,
			K:        ks[c/len(selectors)],
			Seed:     rng.Int63(),
			Paired:   []string{"full", "incremental"}[fresh%2],
			T1:       1 + (fresh/2)%2,
		}
		q.T2 = q.T1 + 1
		fresh++
		out = append(out, q)
	}
	return out
}

// paperNodes is the node count datagen produces at Scale 1 for each
// generator (the sizes of the paper's Table 2).
var paperNodes = map[string]float64{"DBLP": 18000, "Facebook": 4700}

// inputs is everything a workload sends to one deployment, fixed by the
// seed and the deployment's index.
type inputs struct {
	nodes int
	// setup holds the batches sealed one epoch each at set-up; setupText the
	// same batches in the "u v t" wire format /ingest reads.
	setup     [][]graph.TimedEdge
	setupText [][]byte
	queries   []serve.QueryRequest
}

// makeInputs generates deployment d's stream, cuts it into set-up epochs,
// and draws nQueries queries. The stream and query list take
// their seeds from a generator seeded by seed.
func makeInputs(w workload, seed int64, d int, nQueries int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	var graphSeed, querySeed int64
	for i := 0; i <= d; i++ {
		graphSeed, querySeed = rng.Int63(), rng.Int63()
	}
	ev, err := datagen.ByName(w.dataset, datagen.Config{Seed: graphSeed, Scale: float64(w.nodes) / paperNodes[w.dataset]})
	if err != nil {
		return nil, err
	}
	stream := ev.Stream()
	in := &inputs{nodes: ev.NumNodes()}
	prev := 0
	for _, f := range w.cuts {
		cut := int(f * float64(len(stream)))
		in.setup = append(in.setup, stream[prev:cut])
		prev = cut
	}
	for _, b := range in.setup {
		in.setupText = append(in.setupText, wireText(b))
	}
	in.queries = w.queries(rand.New(rand.NewSource(querySeed)), nQueries)
	return in, nil
}

// wireText renders edges as the "u v t" lines /ingest consumes.
func wireText(edges []graph.TimedEdge) []byte {
	var b bytes.Buffer
	buf := make([]byte, 0, 32)
	for _, e := range edges {
		buf = strconv.AppendInt(buf[:0], int64(e.U), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e.V), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, e.Time, 10)
		buf = append(buf, '\n')
		b.Write(buf)
	}
	return b.Bytes()
}
