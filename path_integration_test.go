package hublab

// End-to-end coverage of the path/eccentricity surface through the public
// facade: build → persist (container with parents) → load → serve, with witness
// paths validated against the graph and eccentricities against search.

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"hublab/internal/hub"
	"hublab/internal/sssp"
)

// TestIntegrationPathSurfaceEndToEnd round-trips the shared PLL labeling
// through a container and drives paths and eccentricities through the
// serving layer.
func TestIntegrationPathSurfaceEndToEnd(t *testing.T) {
	g, labels := sharedGnmPLL(t)
	var buf bytes.Buffer
	if _, err := WriteContainer(&buf, labels.Freeze(), ContainerOptions{}); err != nil {
		t.Fatalf("WriteContainer: %v", err)
	}
	flat, err := ReadContainerStore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadContainerStore: %v", err)
	}
	if !flat.HasParents() {
		t.Fatal("container round trip lost the parent column")
	}

	idx := NewHubLabelsIndex(flat.Thaw())
	srv := NewServer(idx, ServerOptions{Shards: 2})
	defer srv.Close()

	if _, ok := any(idx).(IndexPathReporter); !ok {
		t.Fatal("hub-labels index does not report paths")
	}
	rng := rand.New(rand.NewSource(8))
	var path []NodeID
	for i := 0; i < 100; i++ {
		u := NodeID(rng.Intn(g.NumNodes()))
		v := NodeID(rng.Intn(g.NumNodes()))
		path, err = srv.TryPath("it", u, v, path[:0])
		if err != nil {
			t.Fatalf("TryPath: %v", err)
		}
		want := sssp.Distance(g, u, v)
		if len(path) == 0 {
			t.Fatalf("no path for reachable pair (%d,%d)", u, v)
		}
		if path[0] != u || path[len(path)-1] != v {
			t.Fatalf("path endpoints %d..%d for (%d,%d)", path[0], path[len(path)-1], u, v)
		}
		var sum Weight
		for k := 1; k < len(path); k++ {
			w, ok := g.EdgeWeight(path[k-1], path[k])
			if !ok {
				t.Fatalf("path step %d–%d is not an edge", path[k-1], path[k])
			}
			sum += w
		}
		if sum != want {
			t.Fatalf("path weighs %d, distance is %d", sum, want)
		}
	}
	for i := 0; i < 20; i++ {
		v := NodeID(rng.Intn(g.NumNodes()))
		ecc, err := srv.TryEccentricity("it", v)
		if err != nil {
			t.Fatalf("TryEccentricity: %v", err)
		}
		want, _ := sssp.Eccentricity(g, v)
		if ecc != want {
			t.Fatalf("ecc(%d) = %d, want %d", v, ecc, want)
		}
	}
}

// TestIntegrationV1ContainerDegradesGracefully: a parentless labeling
// (what every version-1 container held, and what a container written
// without a parent column still holds) serves distances fine while
// paths degrade to the documented sentinel all the way up through the
// server.
func TestIntegrationV1ContainerDegradesGracefully(t *testing.T) {
	_, labels := sharedGnmPLL(t)
	// Strip parents by rebuilding the labels through the mutable Add path.
	stripped := copyWithoutParents(labels)
	var buf bytes.Buffer
	if _, err := WriteContainer(&buf, stripped.Freeze(), ContainerOptions{}); err != nil {
		t.Fatalf("WriteContainer: %v", err)
	}
	flat, err := ReadContainerStore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadContainerStore: %v", err)
	}
	if flat.HasParents() {
		t.Fatal("stripped labeling still has parents")
	}
	srv := NewServer(NewHubLabelsIndex(flat.Thaw()), ServerOptions{Shards: 1})
	defer srv.Close()
	if _, err := srv.TryQuery("it", 0, 5); err != nil {
		t.Fatalf("TryQuery on v1 index: %v", err)
	}
	if _, err := srv.TryPath("it", 0, 5, nil); !errors.Is(err, ErrServerUnsupported) {
		t.Fatalf("TryPath on v1 index = %v, want ErrServerUnsupported", err)
	}
	// Eccentricity needs no parents and must still work.
	if _, err := srv.TryEccentricity("it", 0); err != nil {
		t.Fatalf("TryEccentricity on v1 index: %v", err)
	}
}

// copyWithoutParents deep-copies labels through the mutable Add path,
// which deliberately drops the parent column.
func copyWithoutParents(l *Labeling) *Labeling {
	out := hub.NewLabeling(l.NumVertices())
	for v := NodeID(0); int(v) < l.NumVertices(); v++ {
		for _, h := range l.Label(v) {
			out.Add(v, h.Node, h.Dist)
		}
	}
	out.Canonicalize()
	return out
}
