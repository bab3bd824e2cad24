package hublab

// Benchmarks of the paper-reproduction experiments (E1–E16 in
// EXPERIMENTS.md's index), the ablations of the design choices called
// out in DESIGN.md, and the few micro-rows the repository benchmark has
// no metric for. Serving speed is measured by bench/ (BENCHMARK.json),
// not here. Run with: go test -bench=. -benchmem

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"hublab/internal/approx"
	"hublab/internal/cover"
	"hublab/internal/dlabel"
	"hublab/internal/flowctl"
	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/hdim"
	"hublab/internal/hhl"
	"hublab/internal/hub"
	"hublab/internal/index"
	"hublab/internal/lbound"
	"hublab/internal/oracle"
	"hublab/internal/par"
	"hublab/internal/pll"
	"hublab/internal/rs"
	"hublab/internal/sparsehub"
	"hublab/internal/sssp"
	"hublab/internal/sumindex"
	"hublab/internal/ubound"
)

// BenchmarkE1FigureOne rebuilds H_{2,2} and validates both Figure 1 paths.
func BenchmarkE1FigureOne(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := lbound.FigureOne()
		if err != nil {
			b.Fatal(err)
		}
		if fig.BlueLength != 4*fig.A+4 || fig.RedLength != 4*fig.A+8 {
			b.Fatal("figure mismatch")
		}
	}
}

// BenchmarkE2ExpandG builds the degree-3 expansion G_{2,2} (Theorem 2.1
// (i)+(ii)).
func BenchmarkE2ExpandG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := lbound.BuildG(lbound.Params{B: 2, L: 2})
		if err != nil {
			b.Fatal(err)
		}
		if e.G.MaxDegree() > 3 {
			b.Fatal("degree violation")
		}
	}
}

// BenchmarkE3Lemma22All exhaustively verifies Lemma 2.2 on H_{2,2}.
func BenchmarkE3Lemma22All(b *testing.B) {
	h, err := lbound.BuildH(lbound.Params{B: 2, L: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, bad, err := h.VerifyLemma22All(); err != nil || bad != nil {
			b.Fatal("lemma violated")
		}
	}
}

// BenchmarkE4CertifiedVsPLL builds the PLL labeling of H_{3,2} and checks
// it against the certificate (Theorem 1.1's executable form).
func BenchmarkE4CertifiedVsPLL(b *testing.B) {
	h, err := lbound.BuildH(lbound.Params{B: 3, L: 2})
	if err != nil {
		b.Fatal(err)
	}
	cert := h.CertificateH()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		labels, err := pll.Build(h.G, pll.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if labels.ComputeStats().Avg < cert.AvgHubLB {
			b.Fatal("certificate violated")
		}
	}
}

// BenchmarkE5SumIndex runs the full Theorem 1.6 protocol (session build +
// all-pairs verification) on m=4.
func BenchmarkE5SumIndex(b *testing.B) {
	gp, err := sumindex.NewGraphProtocol(2, 2)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	bits := make([]bool, gp.M())
	for i := range bits {
		bits[i] = rng.Intn(2) == 1
	}
	in := sumindex.NewInstance(bits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := gp.NewSession(in)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sess.VerifyAll(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6Theorem41 runs the upper-bound pipeline on a random 3-regular
// graph (D=3).
func BenchmarkE6Theorem41(b *testing.B) {
	g, err := gen.RandomRegular(150, 3, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ubound.Build(g, ubound.Options{D: 3, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Violations != 0 {
			b.Fatal("Lemma 4.2 violation")
		}
	}
}

// BenchmarkE7Behrend constructs and validates a Behrend set for n=4096.
func BenchmarkE7Behrend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		set := rs.BehrendSet(4096)
		if !rs.IsProgressionFree(set) {
			b.Fatal("AP found")
		}
	}
}

// BenchmarkE7MatchingFamily enumerates and verifies the induced matching
// family for s=8, l=2.
func BenchmarkE7MatchingFamily(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mf, err := rs.NewMatchingFamily(8, 2, 5)
		if err != nil {
			b.Fatal(err)
		}
		if err := mf.VerifyInduced(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8SparseHub builds the sparse-graph scheme on a 512-vertex
// 3-regular graph.
func BenchmarkE8SparseHub(b *testing.B) {
	g, err := gen.RandomRegular(512, 3, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparsehub.Build(g, sparsehub.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9EulerTour builds the log₂3 distance-vector labels (n=256).
func BenchmarkE9EulerTour(b *testing.B) {
	g, err := gen.RandomRegular(256, 3, 21)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dlabel.EulerTour(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Centroid builds centroid tree labels (n=1023).
func BenchmarkE9Centroid(b *testing.B) {
	g, err := gen.RandomTree(1023, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dlabel.Centroid(g); err != nil {
			b.Fatal(err)
		}
	}
}

// benchQueryGraph builds the shared graph/labeling pair for the E10 query
// benchmarks.
func benchQueryGraph(b *testing.B) (*graph.Graph, *hub.Labeling, [][2]graph.NodeID) {
	b.Helper()
	g, err := gen.Gnm(3000, 5400, 17)
	if err != nil {
		b.Fatal(err)
	}
	labels, err := pll.Build(g, pll.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	pairs := make([][2]graph.NodeID, 512)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(3000)), graph.NodeID(rng.Intn(3000))}
	}
	return g, labels, pairs
}

// BenchmarkE10QueryLabels measures hub-label queries (E10, the oracle
// tradeoff discussion).
func BenchmarkE10QueryLabels(b *testing.B) {
	_, labels, pairs := benchQueryGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		labels.Query(p[0], p[1])
	}
}

// BenchmarkE10QueryBidirectional measures bidirectional graph search.
func BenchmarkE10QueryBidirectional(b *testing.B) {
	g, _, pairs := benchQueryGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sssp.Distance(g, p[0], p[1])
	}
}

// BenchmarkE10QueryBFS measures a full single-source BFS per query.
func BenchmarkE10QueryBFS(b *testing.B) {
	g, _, pairs := benchQueryGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sssp.BFS(g, p[0])
	}
}

// BenchmarkE10VerifyCoverSerial / ...Parallel measure exhaustive cover
// verification with the worker pool pinned to one worker versus all cores.
func benchVerifyGraph(b *testing.B) (*graph.Graph, *hub.Labeling) {
	b.Helper()
	g, err := gen.Gnm(2000, 3600, 17)
	if err != nil {
		b.Fatal(err)
	}
	labels, err := pll.Build(g, pll.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return g, labels
}

func BenchmarkE10VerifyCoverSerial(b *testing.B) {
	g, labels := benchVerifyGraph(b)
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := labels.VerifyCover(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10VerifyCoverParallel(b *testing.B) {
	g, labels := benchVerifyGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := labels.VerifyCover(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11MonotoneClosure computes S* from PLL labels on H_{2,2}
// (Eq. (1) ablation).
func BenchmarkE11MonotoneClosure(b *testing.B) {
	h, err := lbound.BuildH(lbound.Params{B: 2, L: 2})
	if err != nil {
		b.Fatal(err)
	}
	labels, err := pll.Build(h.G, pll.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hub.MonotoneClosure(h.G, labels); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12RoadLike builds PLL on the structured road-like network
// (n=1024).
func BenchmarkE12RoadLike(b *testing.B) {
	g, err := gen.RoadLike(32, 32, 8, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pll.Build(g, pll.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12RandomSparse builds PLL on a random 3-regular graph of the
// same size — the hardness regime.
func BenchmarkE12RandomSparse(b *testing.B) {
	g, err := gen.RandomRegular(1024, 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pll.Build(g, pll.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationPLLOrderDegree vs ...OrderRandom: the effect of the
// landmark order on construction cost (label sizes are reported in E12).
func BenchmarkAblationPLLOrderDegree(b *testing.B) {
	g, err := gen.Gnm(1000, 1800, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pll.Build(g, pll.Options{OrderBy: "degree"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPLLOrderRandom(b *testing.B) {
	g, err := gen.Gnm(1000, 1800, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pll.Build(g, pll.Options{OrderBy: "random", Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationVertexCoverGreedy vs ...Konig: Theorem 4.1's vertex
// cover choice (2-approximate matched endpoints vs exact König).
func BenchmarkAblationVertexCoverGreedy(b *testing.B) {
	g, err := gen.RandomRegular(150, 3, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ubound.Build(g, ubound.Options{D: 3, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationVertexCoverKonig(b *testing.B) {
	g, err := gen.RandomRegular(150, 3, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ubound.Build(g, ubound.Options{D: 3, Seed: 1, UseKonig: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGreedyCover measures the greedy 2-hop reference
// construction (small graphs only).
func BenchmarkAblationGreedyCover(b *testing.B) {
	g, err := gen.Gnm(150, 260, 11)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cover.Greedy(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13OracleTradeoff builds and cross-checks the three oracles.
func BenchmarkE13OracleTradeoff(b *testing.B) {
	g, err := gen.RandomRegular(200, 3, 13)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.Tradeoff(g, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14CanonicalHHL runs the O(n³) canonical reference (the cost
// PLL avoids).
func BenchmarkE14CanonicalHHL(b *testing.B) {
	g, err := gen.Gnm(100, 190, 3)
	if err != nil {
		b.Fatal(err)
	}
	order := make([]graph.NodeID, 100)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hhl.Canonical(g, order); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE15Collapse builds the +2-error labeling.
func BenchmarkE15Collapse(b *testing.B) {
	g, err := gen.RandomRegular(300, 3, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := approx.Collapse(g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E19: the admission controller's own decisions ----------------------

// BenchmarkE19ShedDecision measures the controller's admission decision
// alone for a saturated (always-shed-path) client — the cost of turning
// a flooder away, which bounds how cheaply overload is absorbed.
func BenchmarkE19ShedDecision(b *testing.B) {
	ctl := flowctl.New(flowctl.Options{})
	for i := 0; i < 100; i++ {
		ctl.OnQueueFull("flooder")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.Shed("flooder")
	}
}

// BenchmarkE19ControllerFeedback measures one congestion + one decay
// update — the bucket CAS loops the queue-pressure feedback pays.
func BenchmarkE19ControllerFeedback(b *testing.B) {
	ctl := flowctl.New(flowctl.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.OnQueueFull("client")
		ctl.OnServed("client")
	}
}

// BenchmarkE16HighwayDim runs the highway-dimension estimator on the
// road-like network.
func BenchmarkE16HighwayDim(b *testing.B) {
	g, err := gen.RoadLike(12, 12, 4, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hdim.Estimate(g); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E23: build-pipeline benchmarks ----

var benchE23 struct {
	once sync.Once
	g    *graph.Graph // weighted Gnm(3000)
	l    *hub.Labeling
}

func benchE23Setup(b *testing.B) {
	b.Helper()
	benchE23.once.Do(func() {
		ga, err := gen.Gnm(3000, 5400, 23)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(24))
		bld := graph.NewBuilder(ga.NumNodes(), ga.NumEdges())
		for _, e := range ga.Edges() {
			bld.AddWeightedEdge(e.U, e.V, 1+graph.Weight(rng.Intn(9)))
		}
		benchE23.g, err = bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		benchE23.l, err = pll.BuildUnfrozen(benchE23.g, pll.Options{})
		if err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkE23OrderBetweenness prices the sampled-Brandes sketch order
// relative to the build it feeds.
func BenchmarkE23OrderBetweenness(b *testing.B) {
	benchE23Setup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pll.BetweennessSketchOrder(benchE23.g, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE23SaveStreaming writes the prebuilt unfrozen labeling
// through the streaming container writer (the ~1×-RSS path).
func BenchmarkE23SaveStreaming(b *testing.B) {
	benchE23Setup(b)
	dir := b.TempDir()
	path := filepath.Join(dir, "s.hli")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := index.SaveStreaming(path, benchE23.l, hub.ContainerOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
