package pll

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/sssp"
)

func TestBuildPathGraph(t *testing.T) {
	g, err := gen.Path(10)
	if err != nil {
		t.Fatalf("Path: %v", err)
	}
	l, err := Build(g, Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := l.VerifyCover(g); err != nil {
		t.Fatalf("VerifyCover: %v", err)
	}
	// PLL labels on a path should be far below the trivial n per vertex.
	if s := l.ComputeStats(); s.Avg > 6 {
		t.Errorf("path labels too large: avg %v", s.Avg)
	}
}

func TestBuildOrders(t *testing.T) {
	g, err := gen.Gnm(80, 160, 17)
	if err != nil {
		t.Fatalf("Gnm: %v", err)
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"degree", Options{OrderBy: "degree"}},
		{"random", Options{OrderBy: "random", Seed: 3}},
		{"natural", Options{OrderBy: "natural"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := Build(g, tc.opts)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if err := l.VerifyCover(g); err != nil {
				t.Errorf("VerifyCover: %v", err)
			}
		})
	}
}

func TestBuildCustomOrder(t *testing.T) {
	g, err := gen.Cycle(6)
	if err != nil {
		t.Fatalf("Cycle: %v", err)
	}
	order := []graph.NodeID{3, 0, 4, 1, 5, 2}
	l, err := Build(g, Options{Custom: order})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := l.VerifyCover(g); err != nil {
		t.Errorf("VerifyCover: %v", err)
	}
	// First-ranked vertex 3 must appear in every label (it roots the first,
	// unpruned BFS).
	for v := graph.NodeID(0); v < 6; v++ {
		found := false
		for _, h := range l.Label(v) {
			if h.Node == 3 {
				found = true
			}
		}
		if !found {
			t.Errorf("vertex %d lacks first landmark 3: %v", v, l.Label(v))
		}
	}
}

func TestBuildBadOrder(t *testing.T) {
	g, err := gen.Path(4)
	if err != nil {
		t.Fatalf("Path: %v", err)
	}
	cases := [][]graph.NodeID{
		{0, 1, 2},          // too short
		{0, 1, 2, 2},       // repeated
		{0, 1, 2, 9},       // out of range
		{0, 1, 2, 3, 3, 3}, // too long
	}
	for _, order := range cases {
		if _, err := Build(g, Options{Custom: order}); !errors.Is(err, ErrBadOrder) {
			t.Errorf("order %v: err = %v, want ErrBadOrder", order, err)
		}
	}
}

func TestBuildWeighted(t *testing.T) {
	g, err := gen.RoadLike(8, 8, 4, 5)
	if err != nil {
		t.Fatalf("RoadLike: %v", err)
	}
	l, err := Build(g, Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := l.VerifyCover(g); err != nil {
		t.Errorf("VerifyCover: %v", err)
	}
}

func TestBuildZeroWeights(t *testing.T) {
	// Weight-0 edges (as used by degree reduction) must be handled.
	b := graph.NewBuilder(5, 5)
	b.AddWeightedEdge(0, 1, 0)
	b.AddWeightedEdge(1, 2, 3)
	b.AddWeightedEdge(2, 3, 0)
	b.AddWeightedEdge(3, 4, 2)
	b.AddWeightedEdge(0, 4, 9)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	l, err := Build(g, Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := l.VerifyCover(g); err != nil {
		t.Errorf("VerifyCover: %v", err)
	}
	if d, _ := l.Query(0, 4); d != 5 {
		t.Errorf("Query(0,4) = %d, want 5", d)
	}
}

func TestDisconnected(t *testing.T) {
	b := graph.NewBuilder(6, 4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	l, err := Build(g, Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := l.VerifyCover(g); err != nil {
		t.Errorf("VerifyCover: %v", err)
	}
	if _, ok := l.Query(0, 5); ok {
		t.Error("cross-component query returned a finite distance")
	}
}

// TestPLLMatchesBFS is the main correctness property: on random sparse
// graphs every decoded distance equals the BFS distance.
func TestPLLMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(60)
		g, err := gen.Gnm(n, n+rng.Intn(2*n), seed)
		if err != nil {
			return false
		}
		l, err := Build(g, Options{OrderBy: "degree"})
		if err != nil {
			return false
		}
		return l.VerifyCover(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPLLWeightedMatchesDijkstra: same property on weighted graphs.
func TestPLLWeightedMatchesDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		b := graph.NewBuilder(n, 3*n)
		for i := 0; i+1 < n; i++ {
			b.AddWeightedEdge(graph.NodeID(i), graph.NodeID(i+1), graph.Weight(1+rng.Intn(9)))
		}
		for k := 0; k < 2*n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddWeightedEdge(graph.NodeID(u), graph.NodeID(v), graph.Weight(rng.Intn(10)))
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		l, err := Build(g, Options{OrderBy: "random", Seed: seed})
		if err != nil {
			return false
		}
		return l.VerifyCover(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDegreeOrderBeatsRandomOnStars: on a star-like graph, degree order
// should produce smaller labels than random order most of the time — a
// sanity check of the ordering heuristic, not a theorem.
func TestDegreeOrderLabelQuality(t *testing.T) {
	// Star with 40 leaves: the center must be ranked first under degree
	// order, giving every leaf exactly hubs {center, self}.
	b := graph.NewBuilder(41, 40)
	for v := graph.NodeID(1); v <= 40; v++ {
		b.AddEdge(0, v)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	l, err := Build(g, Options{OrderBy: "degree"})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s := l.ComputeStats()
	if s.Max > 2 {
		t.Errorf("star max label size = %d, want 2", s.Max)
	}
	if err := l.VerifyCover(g); err != nil {
		t.Errorf("VerifyCover: %v", err)
	}
}

func TestGridDistancesSpotCheck(t *testing.T) {
	g, err := gen.Grid(9, 9)
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	l, err := Build(g, Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	r := sssp.BFS(g, 0)
	for v := 0; v < g.NumNodes(); v += 7 {
		got, ok := l.Query(0, graph.NodeID(v))
		if !ok || got != r.Dist[v] {
			t.Errorf("Query(0,%d) = (%d,%v), want %d", v, got, ok, r.Dist[v])
		}
	}
}
