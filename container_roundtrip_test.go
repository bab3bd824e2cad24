package hublab

import (
	"bytes"
	"math/rand"
	"testing"

	"hublab/internal/cover"
	"hublab/internal/dlabel"
	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/hhl"
	"hublab/internal/hub"
	"hublab/internal/pll"
	"hublab/internal/sparsehub"
	"hublab/internal/ubound"
)

// TestContainerRoundTripAcrossBuilders writes the frozen labeling of every
// construction path to a container (expanded and compact) and asserts the
// loaded form answers exactly the same queries as the original Freeze
// result.
func TestContainerRoundTripAcrossBuilders(t *testing.T) {
	g, err := gen.Gnm(160, 290, 23)
	if err != nil {
		t.Fatalf("Gnm: %v", err)
	}
	order := make([]graph.NodeID, g.NumNodes())
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	tree, err := gen.RandomTree(127, 7)
	if err != nil {
		t.Fatalf("RandomTree: %v", err)
	}
	builders := []struct {
		name  string
		build func() (*hub.Labeling, error)
	}{
		{"pll", func() (*hub.Labeling, error) { return pll.Build(g, pll.Options{}) }},
		{"greedy-cover", func() (*hub.Labeling, error) { return cover.Greedy(g) }},
		{"sparse-hubs", func() (*hub.Labeling, error) {
			res, err := sparsehub.Build(g, sparsehub.Options{Seed: 5})
			if err != nil {
				return nil, err
			}
			return res.Labeling, nil
		}},
		{"theorem41", func() (*hub.Labeling, error) {
			res, err := ubound.Build(g, ubound.Options{D: 2, Seed: 5})
			if err != nil {
				return nil, err
			}
			return res.Labeling, nil
		}},
		{"canonical-hhl", func() (*hub.Labeling, error) { return hhl.Canonical(g, order) }},
		{"centroid-tree", func() (*hub.Labeling, error) { return dlabel.Centroid(tree) }},
	}
	for _, bc := range builders {
		t.Run(bc.name, func(t *testing.T) {
			l, err := bc.build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			f := l.Freeze()
			n := f.NumVertices()
			for _, opts := range []hub.ContainerOptions{{}, {Compact: true}} {
				var buf bytes.Buffer
				if _, err := f.WriteContainer(&buf, opts); err != nil {
					t.Fatalf("WriteContainer(compact=%v): %v", opts.Compact, err)
				}
				loaded, err := hub.ReadContainerStore(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("ReadContainerStore(compact=%v): %v", opts.Compact, err)
				}
				if loaded.NumVertices() != n {
					t.Fatalf("loaded %d vertices, want %d", loaded.NumVertices(), n)
				}
				rng := rand.New(rand.NewSource(31))
				for k := 0; k < 2000; k++ {
					u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
					dw, okW := f.Query(u, v)
					dl, okL := loaded.Query(u, v)
					if dw != dl || okW != okL {
						t.Fatalf("compact=%v (%d,%d): original (%d,%v) vs loaded (%d,%v)",
							opts.Compact, u, v, dw, okW, dl, okL)
					}
				}
			}
		})
	}
}
