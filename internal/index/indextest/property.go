package indextest

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/hub"
	"hublab/internal/index"
	"hublab/internal/sssp"
)

// Property harness: randomized cross-backend equivalence checking.
//
// Every registered index backend must present the same metric over the
// same graph. The harness builds a small brute-force distance matrix per
// graph family and asserts, on random samples:
//
//   - exactness: Distance(u,v) equals the true graph distance;
//   - symmetry: Distance(u,v) == Distance(v,u);
//   - the triangle inequality on sampled triples;
//   - batch/scalar agreement for Batcher backends;
//   - path validity for PathReporter backends: endpoints correct, every
//     consecutive pair an edge of the graph, weights summing to the
//     reported distance, empty exactly for unreachable pairs;
//   - ecc(v) == max_u dist(v,u) and the farthest vertex attaining it for
//     EccentricityReporter backends.
//
// The graph families deliberately include a disconnected graph (with an
// isolated vertex) and a weighted one, the two classic sources of
// backend-specific edge-case bugs.

// PropertyGraph is one named family instance for the harness.
type PropertyGraph struct {
	Name string
	G    *graph.Graph
}

// PropertyGraphs returns the harness families, deterministically derived
// from seed: a connected sparse Gnm, a grid, a random tree, a weighted
// road-like grid, a weighted random graph (uniform weights with no
// highway structure — shortest paths there rarely follow hop counts, the
// classic trap for backends that quietly assume unit weights), and a
// disconnected multi-component graph with an isolated vertex.
func PropertyGraphs(tb testing.TB, seed int64) []PropertyGraph {
	tb.Helper()
	must := func(g *graph.Graph, err error) *graph.Graph {
		tb.Helper()
		if err != nil {
			tb.Fatalf("property graph: %v", err)
		}
		return g
	}
	weightedGnm := func() (*graph.Graph, error) {
		// Re-weight a Gnm topology with uniform random weights in [1,9].
		ga, err := gen.Gnm(80, 150, seed+4)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed + 5))
		b := graph.NewBuilder(ga.NumNodes(), ga.NumEdges())
		for _, e := range ga.Edges() {
			b.AddWeightedEdge(e.U, e.V, 1+graph.Weight(rng.Intn(9)))
		}
		return b.Build()
	}
	disconnected := func() (*graph.Graph, error) {
		// Component A: Gnm on [0,40); component B: a cycle on [40,60);
		// vertex 60 isolated.
		b := graph.NewBuilder(61, 110)
		ga, err := gen.Gnm(40, 72, seed+3)
		if err != nil {
			return nil, err
		}
		for _, e := range ga.Edges() {
			b.AddEdge(e.U, e.V)
		}
		for i := graph.NodeID(40); i < 60; i++ {
			next := i + 1
			if next == 60 {
				next = 40
			}
			b.AddEdge(i, next)
		}
		b.Grow(61)
		return b.Build()
	}
	return []PropertyGraph{
		{"gnm", must(gen.Gnm(90, 170, seed))},
		{"grid", must(gen.Grid(8, 9))},
		{"tree", must(gen.RandomTree(70, seed+1))},
		{"road", must(gen.RoadLike(7, 8, 3, seed+2))},
		{"wgnm", must(weightedGnm())},
		{"disconnected", must(disconnected())},
	}
}

// RunProperties asserts the full property set for idx over g, sampling
// with the given seed. The brute-force reference is one search per vertex,
// so keep the harness graphs small (≲ 150 vertices).
func RunProperties(t *testing.T, g *graph.Graph, idx index.Index, seed int64) {
	t.Helper()
	n := g.NumNodes()
	truth := sssp.AllPairs(g)
	rng := rand.New(rand.NewSource(seed))
	const samples = 300

	// Exactness and symmetry.
	for k := 0; k < samples; k++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if got, want := idx.Distance(u, v), truth[u][v]; got != want {
			t.Fatalf("distance(%d,%d) = %d, want %d", u, v, got, want)
		}
		if a, b := idx.Distance(u, v), idx.Distance(v, u); a != b {
			t.Fatalf("asymmetric: distance(%d,%d)=%d but distance(%d,%d)=%d", u, v, a, v, u, b)
		}
	}

	// Triangle inequality on sampled triples of the reported metric.
	// (Infinity is additively safe by its choice of value, so the check
	// holds verbatim across components.)
	for k := 0; k < samples; k++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		w := graph.NodeID(rng.Intn(n))
		duw, duv, dvw := idx.Distance(u, w), idx.Distance(u, v), idx.Distance(v, w)
		if duw > duv+dvw {
			t.Fatalf("triangle violated: d(%d,%d)=%d > d(%d,%d)+d(%d,%d)=%d+%d",
				u, w, duw, u, v, v, w, duv, dvw)
		}
	}

	// Batch door agrees with the scalar door.
	if b, ok := idx.(index.Batcher); ok {
		pairs := make([][2]graph.NodeID, 64)
		for i := range pairs {
			pairs[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
		}
		out := make([]graph.Weight, len(pairs))
		b.DistanceBatch(pairs, out)
		for i, p := range pairs {
			if want := truth[p[0]][p[1]]; out[i] != want {
				t.Fatalf("batch[%d] = %d, want %d for (%d,%d)", i, out[i], want, p[0], p[1])
			}
		}
	}

	// Witness paths are edge-valid and weigh exactly the distance.
	if pr, ok := idx.(index.PathReporter); ok {
		var buf []graph.NodeID
		for k := 0; k < samples; k++ {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			var err error
			buf, err = pr.AppendPath(buf[:0], u, v)
			if err != nil {
				t.Fatalf("AppendPath(%d,%d): %v", u, v, err)
			}
			if msg := CheckPath(g, u, v, buf, truth[u][v]); msg != "" {
				t.Fatalf("path(%d,%d): %s", u, v, msg)
			}
		}
	}

	// Eccentricities match brute force; the farthest vertex attains them.
	if er, ok := idx.(index.EccentricityReporter); ok {
		for k := 0; k < samples/2; k++ {
			v := graph.NodeID(rng.Intn(n))
			var want graph.Weight
			for _, d := range truth[v] {
				if d < graph.Infinity && d > want {
					want = d
				}
			}
			got, err := er.Eccentricity(v)
			if err != nil {
				t.Fatalf("Eccentricity(%d): %v", v, err)
			}
			if got != want {
				t.Fatalf("ecc(%d) = %d, want %d", v, got, want)
			}
			far, fd, err := er.Farthest(v)
			if err != nil {
				t.Fatalf("Farthest(%d): %v", v, err)
			}
			if fd != want || far < 0 || int(far) >= n || truth[v][far] != want {
				t.Fatalf("farthest(%d) = (%d,%d), ecc is %d (true d=%d)",
					v, far, fd, want, truth[v][far])
			}
		}
	}
}

// RunContainerLoadEquivalence pins the serving paths against each other
// across formats and representations: it builds a hub-label index over
// g, persists it both as an aligned (v3, expanded) and a compact (v4,
// compressed) container, loads each back through both doors — the
// decoding reader and the mmap view — and asserts that all four
// resulting indexes satisfy the full property set and agree
// answer-for-answer on distances, witness paths and eccentricities.
// All four serve the same labeling, so even the path walks
// (deterministic given the labels) must be identical vertex-for-vertex
// — the compressed representation is required to be indistinguishable
// from the expanded one at every query door.
func RunContainerLoadEquivalence(t *testing.T, g *graph.Graph, seed int64) {
	t.Helper()
	built, err := index.Build(index.KindHubLabels, g, index.Options{Seed: 7})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	dir := t.TempDir()
	doors := make(map[string]*index.HubLabels, 4)
	for _, format := range []struct {
		name string
		rep  string
		opts hub.ContainerOptions
	}{
		{"v3", hub.RepExpanded, hub.ContainerOptions{}},
		{"v4", hub.RepCompact, hub.ContainerOptions{Compact: true}},
	} {
		path := filepath.Join(dir, "prop-"+format.name+".hli")
		if err := index.Save(path, built, format.opts); err != nil {
			t.Fatalf("save %s: %v", format.name, err)
		}
		dec, err := index.Load(path)
		if err != nil {
			t.Fatalf("%s decode load: %v", format.name, err)
		}
		view, err := index.LoadMmap(path)
		if err != nil {
			t.Fatalf("%s mmap load: %v", format.name, err)
		}
		defer view.Release()
		if g.NumNodes() > 0 && view.Owned() {
			t.Fatalf("mmap load of a %s container did not produce a view", format.name)
		}
		for door, x := range map[string]*index.HubLabels{"decode": dec, "mmap": view} {
			if rep := x.Meta().Representation; rep != format.rep {
				t.Fatalf("%s %s load serves representation %q, want %q", format.name, door, rep, format.rep)
			}
			doors[format.name+"-"+door] = x
		}
	}
	if a, b := doors["v4-decode"].SpaceBytes(), doors["v3-decode"].SpaceBytes(); a >= b {
		t.Fatalf("compact resident bytes %d not below expanded %d", a, b)
	}

	// Each door independently satisfies every property…
	for _, name := range []string{"v3-decode", "v3-mmap", "v4-decode", "v4-mmap"} {
		x := doors[name]
		t.Run(name, func(t *testing.T) { RunProperties(t, g, x, seed) })
	}

	// …and all doors agree with the v3 decode baseline answer-for-answer.
	base := doors["v3-decode"]
	n := g.NumNodes()
	for _, name := range []string{"v3-mmap", "v4-decode", "v4-mmap"} {
		other := doors[name]
		rng := rand.New(rand.NewSource(seed + 99))
		var pd, pv []graph.NodeID
		for k := 0; k < 200; k++ {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			if a, b := base.Distance(u, v), other.Distance(u, v); a != b {
				t.Fatalf("distance(%d,%d): baseline %d, %s %d", u, v, a, name, b)
			}
			var errD, errV error
			pd, errD = base.AppendPath(pd[:0], u, v)
			pv, errV = other.AppendPath(pv[:0], u, v)
			if (errD == nil) != (errV == nil) {
				t.Fatalf("path(%d,%d): baseline err %v, %s err %v", u, v, errD, name, errV)
			}
			if len(pd) != len(pv) {
				t.Fatalf("path(%d,%d): baseline %v, %s %v", u, v, pd, name, pv)
			}
			for i := range pd {
				if pd[i] != pv[i] {
					t.Fatalf("path(%d,%d) diverges at hop %d: baseline %v, %s %v", u, v, i, pd, name, pv)
				}
			}
			ed, errD := base.Eccentricity(v)
			ev, errV := other.Eccentricity(v)
			if errD != nil || errV != nil || ed != ev {
				t.Fatalf("ecc(%d): baseline (%d,%v), %s (%d,%v)", v, ed, errD, name, ev, errV)
			}
			fd, fdd, _ := base.Farthest(v)
			fv, fvd, _ := other.Farthest(v)
			if fd != fv || fdd != fvd {
				t.Fatalf("farthest(%d): baseline (%d,%d), %s (%d,%d)", v, fd, fdd, name, fv, fvd)
			}
		}
	}
}

// CheckPath validates one reported path against the graph: empty iff
// unreachable, endpoints u and v, consecutive edges present, weights
// summing to want. It returns "" when valid, a description otherwise.
func CheckPath(g *graph.Graph, u, v graph.NodeID, path []graph.NodeID, want graph.Weight) string {
	if want >= graph.Infinity {
		if len(path) != 0 {
			return fmt.Sprintf("unreachable pair but path %v reported", path)
		}
		return ""
	}
	if len(path) == 0 {
		return fmt.Sprintf("reachable (d=%d) but empty path", want)
	}
	if path[0] != u || path[len(path)-1] != v {
		return fmt.Sprintf("endpoints %d..%d", path[0], path[len(path)-1])
	}
	var sum graph.Weight
	for i := 1; i < len(path); i++ {
		w, ok := g.EdgeWeight(path[i-1], path[i])
		if !ok {
			return fmt.Sprintf("step %d–%d is not an edge", path[i-1], path[i])
		}
		sum += w
	}
	if sum != want {
		return fmt.Sprintf("path weighs %d, distance is %d (%v)", sum, want, path)
	}
	return ""
}
