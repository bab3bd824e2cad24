package hublab

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFacadeServing drives the serving surface through the re-exported
// API: build an index, serve it with fair admission enabled, query it,
// and check the overload errors and counters are
// reachable from the facade.
func TestFacadeServing(t *testing.T) {
	g, err := GenerateGnm(150, 270, 7)
	if err != nil {
		t.Fatalf("GenerateGnm: %v", err)
	}
	idx, err := BuildIndex("hub-labels", g, IndexOptions{Seed: 1})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	srv := NewServer(idx, ServerOptions{Shards: 2, Admission: &AdmissionOptions{}})
	want := ShortestDistance(g, 4, 140)
	d, err := srv.TryQuery("facade-client", 4, 140)
	if err != nil || d != want {
		t.Errorf("TryQuery = %d, %v, want %d, nil", d, err, want)
	}
	// Hostile ids are refused by the core, never mistaken for unreachable.
	if d, err := srv.TryQuery("facade-client", -3, 9999); !errors.Is(err, ErrServerBadRequest) || d != Infinity {
		t.Errorf("TryQuery(hostile) = %d, %v, want Infinity, ErrServerBadRequest", d, err)
	}
	var st ServerStats = srv.Stats()
	if st.Served != 2 || st.Rejected != 0 || st.Shed != 0 {
		t.Errorf("Stats = %+v, want 2 answered and clean overload counters", st)
	}
	srv.Close()
	if _, err := srv.TryQuery("facade-client", 1, 2); !errors.Is(err, ErrServerClosed) {
		t.Errorf("TryQuery after Close: %v, want ErrServerClosed", err)
	}
	if !errors.Is(ErrServerOverloaded, ErrServerOverloaded) {
		t.Error("ErrServerOverloaded lost identity through the facade")
	}
}

// TestFacadeQuickstart exercises the re-exported API end to end the way the
// README's quickstart does.
func TestFacadeQuickstart(t *testing.T) {
	g, err := GenerateGnm(200, 360, 42)
	if err != nil {
		t.Fatalf("GenerateGnm: %v", err)
	}
	labels, err := BuildPLL(g, PLLOptions{})
	if err != nil {
		t.Fatalf("BuildPLL: %v", err)
	}
	if err := labels.VerifySampled(g, 200, 1); err != nil {
		t.Fatalf("VerifySampled: %v", err)
	}
	d, ok := labels.Query(3, 77)
	if !ok {
		t.Fatal("Query found no common hub on a connected graph")
	}
	if want := ShortestDistance(g, 3, 77); d != want {
		t.Errorf("Query = %d, want %d", d, want)
	}
}

func TestFacadeLowerBound(t *testing.T) {
	h, err := BuildLayered(LayeredParams{B: 2, L: 2})
	if err != nil {
		t.Fatalf("BuildLayered: %v", err)
	}
	cert := h.CertificateH()
	if cert.AvgHubLB <= 0 {
		t.Errorf("certificate lower bound = %v", cert.AvgHubLB)
	}
	fig, err := FigureOne()
	if err != nil {
		t.Fatalf("FigureOne: %v", err)
	}
	if fig.BlueLength >= fig.RedLength {
		t.Errorf("blue %d should beat red %d", fig.BlueLength, fig.RedLength)
	}
}

func TestFacadeSumIndex(t *testing.T) {
	p, err := NewSumIndexProtocol(2, 2)
	if err != nil {
		t.Fatalf("NewSumIndexProtocol: %v", err)
	}
	bits := []bool{true, false, false, true}
	in := NewSumIndexInstance(bits)
	sess, err := p.NewSession(in)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if _, _, err := sess.VerifyAll(in); err != nil {
		t.Errorf("VerifyAll: %v", err)
	}
}

func TestFacadeTheorem14(t *testing.T) {
	g, err := GenerateGnm(90, 140, 8)
	if err != nil {
		t.Fatalf("GenerateGnm: %v", err)
	}
	res, err := BuildTheorem14(g, Theorem41Options{D: 3, Seed: 5})
	if err != nil {
		t.Fatalf("BuildTheorem14: %v", err)
	}
	if err := res.Labeling.VerifyCover(g); err != nil {
		t.Errorf("VerifyCover: %v", err)
	}
}

func TestFacadeDistanceLabels(t *testing.T) {
	tree, err := GenerateRandomTree(100, 6)
	if err != nil {
		t.Fatalf("GenerateRandomTree: %v", err)
	}
	cl, err := CentroidTreeLabels(tree)
	if err != nil {
		t.Fatalf("CentroidTreeLabels: %v", err)
	}
	bits, err := HubDistanceLabels(cl)
	if err != nil {
		t.Fatalf("HubDistanceLabels: %v", err)
	}
	euler, err := EulerTourLabels(tree)
	if err != nil {
		t.Fatalf("EulerTourLabels: %v", err)
	}
	if bits.AvgBits() >= euler.AvgBits() {
		t.Errorf("centroid bits %.0f should beat euler bits %.0f on a tree",
			bits.AvgBits(), euler.AvgBits())
	}
	set := BehrendSet(100)
	if len(set) < 5 {
		t.Errorf("BehrendSet(100) size = %d, unexpectedly small", len(set))
	}
}

// TestFacadeBuildPipeline drives the million-vertex build surface at toy
// scale through the re-exported API: a skewed generator, a registered
// landmark order, the parallel unfrozen build, and the streaming
// container emission — whose bytes must match the freeze-then-save path
// exactly.
func TestFacadeBuildPipeline(t *testing.T) {
	g, err := GenerateRMAT(9, 1000, 3)
	if err != nil {
		t.Fatalf("GenerateRMAT: %v", err)
	}
	names := PLLOrderNames()
	seen := map[string]bool{}
	for _, name := range names {
		seen[name] = true
	}
	for _, want := range []string{"degree", "betweenness", "random", "natural"} {
		if !seen[want] {
			t.Fatalf("PLLOrderNames() = %v, missing %q", names, want)
		}
	}
	if err := RegisterPLLOrder("degree", nil); err == nil {
		t.Fatal("RegisterPLLOrder accepted a nil duplicate")
	}

	unfrozen, err := BuildPLLUnfrozen(g, PLLOptions{OrderBy: "degree", Workers: 4})
	if err != nil {
		t.Fatalf("BuildPLLUnfrozen: %v", err)
	}
	dir := t.TempDir()
	streamed := filepath.Join(dir, "streamed.hli")
	if err := SaveIndexStreaming(streamed, unfrozen, ContainerOptions{}); err != nil {
		t.Fatalf("SaveIndexStreaming: %v", err)
	}

	frozen, err := BuildPLL(g, PLLOptions{OrderBy: "degree", Workers: 1})
	if err != nil {
		t.Fatalf("BuildPLL: %v", err)
	}
	saved := filepath.Join(dir, "saved.hli")
	if err := SaveIndex(saved, NewHubLabelsIndex(frozen), ContainerOptions{}); err != nil {
		t.Fatalf("SaveIndex: %v", err)
	}
	a, err := os.ReadFile(streamed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("parallel streamed container differs from sequential frozen save")
	}

	idx, err := LoadIndex(streamed)
	if err != nil {
		t.Fatalf("LoadIndex: %v", err)
	}
	if err := VerifySampledIndex(idx, g, 200, 5); err != nil {
		t.Errorf("VerifySampledIndex: %v", err)
	}
}

// TestFacadeDimacs parses a tiny DIMACS .gr instance through the facade
// and checks the hostile-input error is reachable.
func TestFacadeDimacs(t *testing.T) {
	const gr = "c tiny\np sp 3 4\na 1 2 5\na 2 1 5\na 2 3 2\na 3 2 2\n"
	g, err := ReadGraphDimacs(strings.NewReader(gr))
	if err != nil {
		t.Fatalf("ReadGraphDimacs: %v", err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("parsed n=%d m=%d, want 3, 2", g.NumNodes(), g.NumEdges())
	}
	if d := ShortestDistance(g, 0, 2); d != 7 {
		t.Errorf("distance 0-2 = %d, want 7", d)
	}
	if _, err := ReadGraphDimacs(strings.NewReader("p sp 2 1\na 1 9 4\n")); !errors.Is(err, ErrDimacsFormat) {
		t.Errorf("out-of-range arc: err = %v, want ErrDimacsFormat", err)
	}
}
