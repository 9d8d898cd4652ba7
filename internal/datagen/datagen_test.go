package datagen

import "testing"

func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := Config{Seed: 7, Scale: 0.02}
			a, err := ByName(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ByName(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
				t.Fatalf("non-deterministic sizes: %d/%d vs %d/%d",
					a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
			}
			sa, sb := a.Stream(), b.Stream()
			for i := range sa {
				if sa[i] != sb[i] {
					t.Fatalf("stream diverges at %d: %v vs %v", i, sa[i], sb[i])
				}
			}
			// A different seed must give a different stream.
			c, err := ByName(name, Config{Seed: 8, Scale: 0.02})
			if err != nil {
				t.Fatal(err)
			}
			same := c.NumEdges() == a.NumEdges()
			if same {
				sc := c.Stream()
				same = false
				for i := range sa {
					if sa[i] != sc[i] {
						break
					}
					if i == len(sa)-1 {
						same = true
					}
				}
			}
			if same {
				t.Fatal("seed has no effect")
			}
		})
	}
}

func TestGeneratorsStructure(t *testing.T) {
	// Structural regime assertions per dataset (DESIGN.md §4) at small scale.
	type regime struct {
		name          string
		minEdgePerNod float64 // average degree / 2 lower bound
		maxEdgePerNod float64
	}
	for _, r := range []regime{
		{"Actors", 2.0, 8.0},
		{"InternetLinks", 2.0, 6.0},
		{"Facebook", 3.0, 9.0},
		{"DBLP", 1.2, 4.0},
	} {
		r := r
		t.Run(r.name, func(t *testing.T) {
			ev, err := ByName(r.name, Config{Seed: 3, Scale: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			g := ev.SnapshotFraction(1.0)
			ratio := float64(g.NumEdges()) / float64(g.NumNodes())
			if ratio < r.minEdgePerNod || ratio > r.maxEdgePerNod {
				t.Fatalf("%s edge/node ratio %.2f outside [%.1f, %.1f]",
					r.name, ratio, r.minEdgePerNod, r.maxEdgePerNod)
			}
			// Snapshots are valid pairs.
			sp, err := ev.Pair(0.8, 1.0)
			if err != nil {
				t.Fatal(err)
			}
			if err := sp.Validate(); err != nil {
				t.Fatal(err)
			}
			// The largest component holds a majority of present nodes
			// everywhere except DBLP, which intentionally leaves a fringe.
			comp, _ := g.LargestComponent()
			frac := float64(len(comp)) / float64(g.NumNodes())
			if r.name == "DBLP" {
				if frac > 0.95 {
					t.Fatalf("DBLP giant component %.2f, want a disconnected fringe", frac)
				}
			} else if frac < 0.5 {
				t.Fatalf("%s giant component %.2f too small", r.name, frac)
			}
		})
	}
}

func TestHubbinessInternet(t *testing.T) {
	ev, err := InternetAS(Config{Seed: 11, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	g := ev.SnapshotFraction(1.0)
	// Heavy-tailed: max degree should dwarf the average degree.
	avg := 2 * float64(g.NumEdges()) / float64(g.NumNodes())
	if float64(g.MaxDegree()) < 8*avg {
		t.Fatalf("Internet max degree %d not hubby (avg %.1f)", g.MaxDegree(), avg)
	}
}

func TestDensityOrdering(t *testing.T) {
	// Facebook and Actors are the densest regimes; DBLP the sparsest.
	den := map[string]float64{}
	for _, name := range Names {
		ev, err := ByName(name, Config{Seed: 5, Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		den[name] = ev.SnapshotFraction(1.0).Density()
	}
	if den["DBLP"] >= den["Facebook"] {
		t.Fatalf("density(DBLP)=%g >= density(Facebook)=%g", den["DBLP"], den["Facebook"])
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope", Config{}); err == nil {
		t.Fatal("unknown dataset should fail")
	}
}

func TestScaleTooSmall(t *testing.T) {
	for _, name := range Names {
		if _, err := ByName(name, Config{Seed: 1, Scale: 0.0001}); err == nil {
			t.Fatalf("%s: microscopic scale should fail", name)
		}
	}
}

func TestActorsAffiliation(t *testing.T) {
	s, err := ActorsAffiliation(Config{Seed: 13, Scale: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumLeft() < 20 || s.NumRight() < 5 {
		t.Fatalf("sizes: %d actors, %d movies", s.NumLeft(), s.NumRight())
	}
	// The projection is a valid evolving co-appearance graph with a usable
	// snapshot pair.
	ev, err := s.Project(0)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := ev.Pair(0.8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pair.Validate(); err != nil {
		t.Fatal(err)
	}
	// Deterministic in the seed.
	s2, err := ActorsAffiliation(Config{Seed: 13, Scale: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumEvents() != s.NumEvents() {
		t.Fatal("non-deterministic")
	}
	if _, err := ActorsAffiliation(Config{Seed: 1, Scale: 0.0001}); err == nil {
		t.Fatal("microscopic scale should fail")
	}
}
