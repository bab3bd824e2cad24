package hub_test

import (
	"testing"

	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/hub"
	"hublab/internal/pll"
	"hublab/internal/sssp"
)

// bruteEcc returns max finite distance from v and a smallest-id vertex
// attaining it.
func bruteEcc(g *graph.Graph, v graph.NodeID) (graph.Weight, graph.NodeID) {
	r := sssp.Search(g, v)
	ecc, far := graph.Weight(0), v
	for u, d := range r.Dist {
		if d < graph.Infinity && d > ecc {
			ecc, far = d, graph.NodeID(u)
		}
	}
	return ecc, far
}

// eccLabeling builds a PLL labeling via the pll package (kept out of
// package hub to avoid an import cycle, so this helper goes through
// hub.FromSets on the PLL hub sets instead).
func eccTestLabeling(t *testing.T, g *graph.Graph) *hub.FlatLabeling {
	t.Helper()
	l, err := pll.Build(g, pll.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return l.Freeze()
}

// TestEccIndexExact checks exact eccentricities and farthest vertices
// against brute-force SSSP on several families, including a disconnected
// graph (eccentricity is over the reachable component only).
func TestEccIndexExact(t *testing.T) {
	disconnected := func() (*graph.Graph, error) {
		b := graph.NewBuilder(61, 100)
		ga, err := gen.Gnm(40, 70, 3)
		if err != nil {
			return nil, err
		}
		for _, e := range ga.Edges() {
			b.AddEdge(e.U, e.V)
		}
		for i := graph.NodeID(40); i < 59; i++ {
			b.AddEdge(i, i+1)
		}
		b.Grow(61) // vertex 60 isolated
		return b.Build()
	}
	graphs := []struct {
		name string
		g    func() (*graph.Graph, error)
	}{
		{"gnm", func() (*graph.Graph, error) { return gen.Gnm(120, 210, 17) }},
		{"grid", func() (*graph.Graph, error) { return gen.Grid(8, 9) }},
		{"tree", func() (*graph.Graph, error) { return gen.RandomTree(90, 5) }},
		{"road", func() (*graph.Graph, error) { return gen.RoadLike(7, 7, 3, 9) }},
		{"disconnected", disconnected},
	}
	for _, gc := range graphs {
		t.Run(gc.name, func(t *testing.T) {
			g, err := gc.g()
			if err != nil {
				t.Fatal(err)
			}
			f := eccTestLabeling(t, g)
			e := hub.NewEccIndex(f)
			for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
				wantEcc, _ := bruteEcc(g, v)
				gotEcc, far := e.Eccentricity(v)
				if gotEcc != wantEcc {
					t.Fatalf("ecc(%d) = %d, want %d", v, gotEcc, wantEcc)
				}
				if ub := e.EccentricityUpperBound(v); ub < wantEcc {
					t.Fatalf("upper bound %d below ecc(%d) = %d", ub, v, wantEcc)
				}
				// The reported farthest vertex must attain the eccentricity.
				if far == v {
					if wantEcc != 0 {
						t.Fatalf("farthest(%d) = self but ecc is %d", v, wantEcc)
					}
				} else if d, ok := f.Query(v, far); !ok || d != wantEcc {
					t.Fatalf("farthest(%d) = %d at distance %d, ecc is %d", v, far, d, wantEcc)
				}
			}
		})
	}
}

// TestEccIndexNonHierarchical runs the same exactness check over a
// hub.FromSets cover with extra random hubs mixed in (a valid but
// non-hierarchical cover), where the naive one-scan bound genuinely
// overshoots — the refinement must still land exactly.
func TestEccIndexNonHierarchical(t *testing.T) {
	g, err := gen.Gnm(90, 160, 23)
	if err != nil {
		t.Fatal(err)
	}
	l, err := hub.FromSets(g, pllSetsPlusNoise(t, g, 4))
	if err != nil {
		t.Fatal(err)
	}
	e := hub.NewEccIndex(l.Freeze())
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		want, _ := bruteEcc(g, v)
		if got, _ := e.Eccentricity(v); got != want {
			t.Fatalf("ecc(%d) = %d, want %d", v, got, want)
		}
	}
}

// TestEccIndexOvershootRegression pins the C4 instance where the pure
// max-scan is provably wrong (scan says 3, ecc is 2): the exact query must
// refine past it.
func TestEccIndexOvershootRegression(t *testing.T) {
	g, err := gen.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	l, err := pll.Build(g, pll.Options{OrderBy: "natural"})
	if err != nil {
		t.Fatal(err)
	}
	e := hub.NewEccIndex(l.Freeze())
	for v := graph.NodeID(0); v < 4; v++ {
		if got, _ := e.Eccentricity(v); got != 2 {
			t.Fatalf("ecc(%d) = %d, want 2", v, got)
		}
	}
	if ub := e.EccentricityUpperBound(1); ub < 2 {
		t.Fatalf("upper bound %d below ecc 2", ub)
	}
}
