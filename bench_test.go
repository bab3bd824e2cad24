package hublab

// Benchmark harness: one benchmark per experiment in DESIGN.md's index
// (E1–E16), plus ablation benches for the design choices called out there.
// Run with: go test -bench=. -benchmem

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"testing"

	"hublab/internal/approx"
	"hublab/internal/cover"
	"hublab/internal/dlabel"
	"hublab/internal/faultinject"
	"hublab/internal/flowctl"
	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/hdim"
	"hublab/internal/hhl"
	"hublab/internal/hotcache"
	"hublab/internal/hub"
	"hublab/internal/index"
	"hublab/internal/lbound"
	"hublab/internal/netserve"
	"hublab/internal/oracle"
	"hublab/internal/par"
	"hublab/internal/pll"
	"hublab/internal/rs"
	"hublab/internal/server"
	"hublab/internal/sparsehub"
	"hublab/internal/sssp"
	"hublab/internal/sumindex"
	"hublab/internal/ubound"
	"hublab/internal/wire"
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

// --- E10b: flat CSR vs slice-of-slices representation on Gnm(n=10k) -----

var bench10k struct {
	once   sync.Once
	flat   *hub.FlatLabeling
	slices *hub.Labeling // thawed, unfrozen: queries run the slice merge
	graph  *graph.Graph
	pairs  [][2]graph.NodeID
	err    error
}

// benchQueryGraph10k builds (once) the Gnm(10k) PLL labeling in both
// representations plus a shared query workload.
func benchQueryGraph10k(b testing.TB) (*hub.FlatLabeling, *hub.Labeling, [][2]graph.NodeID) {
	b.Helper()
	bench10k.once.Do(func() {
		g, err := gen.Gnm(10000, 18000, 17)
		if err != nil {
			bench10k.err = err
			return
		}
		labels, err := pll.Build(g, pll.Options{})
		if err != nil {
			bench10k.err = err
			return
		}
		bench10k.graph = g
		bench10k.flat = labels.Freeze()
		bench10k.slices = bench10k.flat.Thaw()
		rng := rand.New(rand.NewSource(5))
		bench10k.pairs = make([][2]graph.NodeID, 1024)
		for i := range bench10k.pairs {
			bench10k.pairs[i] = [2]graph.NodeID{
				graph.NodeID(rng.Intn(10000)), graph.NodeID(rng.Intn(10000))}
		}
	})
	if bench10k.err != nil {
		b.Fatal(bench10k.err)
	}
	return bench10k.flat, bench10k.slices, bench10k.pairs
}

// BenchmarkE10QuerySlice10k is the slice-of-slices merge-query baseline.
func BenchmarkE10QuerySlice10k(b *testing.B) {
	_, slices, pairs := benchQueryGraph10k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		slices.Query(p[0], p[1])
	}
}

// BenchmarkE10QueryFlat10k is the frozen CSR/SoA merge query (expected
// ≥2× the slice baseline, 0 allocs/op).
func BenchmarkE10QueryFlat10k(b *testing.B) {
	flat, _, pairs := benchQueryGraph10k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		flat.Query(p[0], p[1])
	}
}

// BenchmarkE10QueryFlatBatch10k interleaves two merges per loop via
// QueryBatch — the throughput configuration of the flat representation
// (independent scans overlap in the pipeline).
func BenchmarkE10QueryFlatBatch10k(b *testing.B) {
	flat, _, pairs := benchQueryGraph10k(b)
	out := make([]graph.Weight, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(pairs) {
		flat.QueryBatch(pairs, out)
	}
}

// BenchmarkE10QueryFlatBatchPar10k runs QueryBatch from every core — the
// query-service throughput configuration (flat labeling is immutable and
// safe for concurrent readers). ns/op is per 1024-query batch, so divide
// by 1024 to compare with the per-query benchmarks above.
func BenchmarkE10QueryFlatBatchPar10k(b *testing.B) {
	flat, _, pairs := benchQueryGraph10k(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		out := make([]graph.Weight, len(pairs))
		for pb.Next() {
			flat.QueryBatch(pairs, out)
		}
	})
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
		if _, err := pll.Build(g, pll.Options{Order: pll.OrderDegree}); err != nil {
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
		if _, err := pll.Build(g, pll.Options{Order: pll.OrderRandom, Seed: int64(i)}); err != nil {
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

// --- E17: persistent containers — load vs rebuild (Gnm 10k) -------------

// BenchmarkE17RebuildPLL is the baseline a persisted index avoids: one
// full PLL construction of the E10b Gnm(10k, 18k) instance per iteration.
func BenchmarkE17RebuildPLL(b *testing.B) {
	benchQueryGraph10k(b)
	g := bench10k.graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pll.Build(g, pll.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE17LoadContainerRaw loads the expanded container of the same
// labeling — raw columns decoded straight into the flat arrays
// (expected ≥10× faster than the rebuild above).
func BenchmarkE17LoadContainerRaw(b *testing.B) {
	flat, _, _ := benchQueryGraph10k(b)
	var buf bytes.Buffer
	if _, err := flat.WriteContainer(&buf, hub.ContainerOptions{}); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	// One untimed load so short runs measure steady state, not first-touch
	// page faults on a cold heap.
	if _, err := hub.ReadContainerStore(bytes.NewReader(data)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hub.ReadContainerStore(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E18: sharded query service throughput vs worker count --------------

// benchServer measures server throughput with the given shard count:
// every benchmark goroutine is a client pushing queries through the
// service (pooled requests, coalesced groups, snapshot reads). ns/op is
// per served query; the per-query hot path must stay at 0 allocs/op.
func benchServer(b *testing.B, shards int) {
	flat, _, pairs := benchQueryGraph10k(b)
	srv := server.New(index.FromStore(flat), server.Options{Shards: shards})
	defer srv.Close()
	// Warm the request pool so steady state is measured.
	for i := 0; i < 256; i++ {
		p := pairs[i%len(pairs)]
		srv.TryQuery("bench", p[0], p[1])
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		k := 0
		for pb.Next() {
			p := pairs[k%len(pairs)]
			k++
			srv.TryQuery("bench", p[0], p[1])
		}
	})
}

func BenchmarkE18ServerW1(b *testing.B) { benchServer(b, 1) }
func BenchmarkE18ServerW2(b *testing.B) { benchServer(b, 2) }
func BenchmarkE18ServerW4(b *testing.B) { benchServer(b, 4) }
func BenchmarkE18ServerW8(b *testing.B) { benchServer(b, 8) }

// BenchmarkE18ServerBatch measures one 1024-pair group on the index type
// the service holds (index.DistanceBatch, no shard hop), ns/op per
// batch — the row the server's removed direct batch door used to
// report; it only ever added a snapshot pin.
func BenchmarkE18ServerBatch(b *testing.B) {
	flat, _, pairs := benchQueryGraph10k(b)
	idx := index.FromStore(flat)
	out := make([]graph.Weight, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.DistanceBatch(pairs, out)
	}
}

// --- E19: admission-control overhead on the serving hot path ------------

// BenchmarkE19TryQueryAdmitted measures the non-blocking door end to end
// on the Gnm(10k) index with the fair admission controller attached and
// the client unthrottled — the common-case cost every admitted request
// pays (gate, Shed coin flip, enqueue, merge, OnServed decay). Must stay
// 0 allocs/op.
func BenchmarkE19TryQueryAdmitted(b *testing.B) {
	flat, _, pairs := benchQueryGraph10k(b)
	srv := server.New(index.FromStore(flat), server.Options{Shards: 1,
		Admission: &flowctl.Options{}})
	defer srv.Close()
	for i := 0; i < 256; i++ {
		p := pairs[i%len(pairs)]
		if _, err := srv.TryQuery("bench-client", p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := srv.TryQuery("bench-client", p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

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

// --- E20: path unpacking and eccentricity queries ------------------------

// benchPathPairs collects pairs of the Gnm(10k) instance whose unpacked
// path length falls in [minHops, maxHops].
func benchPathPairs(b *testing.B, minHops, maxHops int) [][2]graph.NodeID {
	b.Helper()
	flat, _, _ := benchQueryGraph10k(b)
	rng := rand.New(rand.NewSource(23))
	var buf []graph.NodeID
	var err error
	pairs := make([][2]graph.NodeID, 0, 256)
	for tries := 0; len(pairs) < 256 && tries < 200000; tries++ {
		u := graph.NodeID(rng.Intn(10000))
		v := graph.NodeID(rng.Intn(10000))
		buf, err = flat.AppendPath(buf[:0], u, v)
		if err != nil {
			b.Fatal(err)
		}
		if hops := len(buf) - 1; hops >= minHops && hops <= maxHops {
			pairs = append(pairs, [2]graph.NodeID{u, v})
		}
	}
	if len(pairs) == 0 {
		b.Fatalf("no pairs with path length in [%d,%d]", minHops, maxHops)
	}
	return pairs
}

// benchPathUnpack measures AppendPath with a reused destination buffer —
// the configuration the ≤ 2 allocs/query acceptance bound speaks to
// (steady state is 0 allocs/op).
func benchPathUnpack(b *testing.B, minHops, maxHops int) {
	flat, _, _ := benchQueryGraph10k(b)
	pairs := benchPathPairs(b, minHops, maxHops)
	buf := make([]graph.NodeID, 0, 128)
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		buf, err = flat.AppendPath(buf[:0], p[0], p[1])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE20PathUnpackShort/Medium/Long chart path-unpack cost against
// path length on the 10k serving instance.
func BenchmarkE20PathUnpackShort(b *testing.B)  { benchPathUnpack(b, 1, 4) }
func BenchmarkE20PathUnpackMedium(b *testing.B) { benchPathUnpack(b, 5, 8) }
func BenchmarkE20PathUnpackLong(b *testing.B)   { benchPathUnpack(b, 9, 1<<30) }

// benchEcc measures exact eccentricity queries over a prebuilt inverted
// hub index.
func benchEcc(b *testing.B, f *hub.FlatLabeling) {
	e := hub.NewEccIndex(f)
	n := f.NumVertices()
	rng := rand.New(rand.NewSource(31))
	order := make([]graph.NodeID, 512)
	for i := range order {
		order[i] = graph.NodeID(rng.Intn(n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Eccentricity(order[i%len(order)])
	}
}

// BenchmarkE20EccGnm10k is the worst-case regime: loose expander bounds
// push queries into the budgeted batched-scan fallback.
func BenchmarkE20EccGnm10k(b *testing.B) {
	flat, _, _ := benchQueryGraph10k(b)
	benchEcc(b, flat)
}

// BenchmarkE20EccRoad1k / BenchmarkE20EccTree4k are the structured
// instances where hub bounds are tight and refinement stays sublinear.
func BenchmarkE20EccRoad1k(b *testing.B) {
	g, err := gen.RoadLike(32, 32, 8, 3)
	if err != nil {
		b.Fatal(err)
	}
	labels, err := pll.Build(g, pll.Options{})
	if err != nil {
		b.Fatal(err)
	}
	benchEcc(b, labels.Freeze())
}

func BenchmarkE20EccTree4k(b *testing.B) {
	g, err := gen.RandomTree(4095, 3)
	if err != nil {
		b.Fatal(err)
	}
	labels, err := pll.Build(g, pll.Options{})
	if err != nil {
		b.Fatal(err)
	}
	benchEcc(b, labels.Freeze())
}

// BenchmarkE20EccUpperBound10k is the one-scan bound alone — the O(|S(v)|)
// floor the exact query refines from.
func BenchmarkE20EccUpperBound10k(b *testing.B) {
	flat, _, _ := benchQueryGraph10k(b)
	e := hub.NewEccIndex(flat)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EccentricityUpperBound(graph.NodeID(i % 10000))
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

// --- E21: zero-copy mmap serving — open latency and view query parity --

// benchAligned10k holds the on-disk aligned container of the 10k
// instance, written once per process.
var benchAligned10k struct {
	once sync.Once
	path string
	err  error
}

// benchAlignedContainer10k writes (once) the Gnm(10k) labeling as an
// aligned v3 container and returns its path. The file lives in the
// process temp dir; benchmarks only read it.
func benchAlignedContainer10k(b *testing.B) string {
	flat, _, _ := benchQueryGraph10k(b)
	benchAligned10k.once.Do(func() {
		dir, err := os.MkdirTemp("", "hublab-e21-")
		if err != nil {
			benchAligned10k.err = err
			return
		}
		path := filepath.Join(dir, "aligned.hli")
		f, err := os.Create(path)
		if err != nil {
			benchAligned10k.err = err
			return
		}
		if _, err := flat.WriteContainer(f, hub.ContainerOptions{}); err != nil {
			benchAligned10k.err = err
			return
		}
		benchAligned10k.err = f.Close()
		benchAligned10k.path = path
	})
	if benchAligned10k.err != nil {
		b.Fatal(benchAligned10k.err)
	}
	return benchAligned10k.path
}

// BenchmarkE21OpenDecode is the decode baseline over the identical v3
// file: full read, column conversion and structural audit per iteration.
func BenchmarkE21OpenDecode(b *testing.B) {
	path := benchAlignedContainer10k(b)
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(info.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := index.Load(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE21OpenMmap opens the same container zero-copy per iteration:
// header + whole-file CRC + O(n) run checks, columns pointed at the map.
// The acceptance bar for PR 5 is ≥ 50× faster than BenchmarkE21OpenDecode.
func BenchmarkE21OpenMmap(b *testing.B) {
	path := benchAlignedContainer10k(b)
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(info.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := index.LoadMmap(path)
		if err != nil {
			b.Fatal(err)
		}
		x.Release()
	}
}

// BenchmarkE21OpenMmapFirstQuery adds the first query to each open — the
// page-fault-inclusive "time to first answer" a cold serving process
// pays.
func BenchmarkE21OpenMmapFirstQuery(b *testing.B) {
	path := benchAlignedContainer10k(b)
	_, _, pairs := benchQueryGraph10k(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := index.LoadMmap(path)
		if err != nil {
			b.Fatal(err)
		}
		p := pairs[i%len(pairs)]
		x.Distance(p[0], p[1])
		x.Release()
	}
}

// BenchmarkE21QueryMmapSteady pins view-query parity: the merge on
// mapped columns must match the owned-array numbers of
// BenchmarkE10QueryFlat10k (same layout, different backing store), at 0
// allocs/op.
func BenchmarkE21QueryMmapSteady(b *testing.B) {
	path := benchAlignedContainer10k(b)
	_, _, pairs := benchQueryGraph10k(b)
	x, err := index.LoadMmap(path)
	if err != nil {
		b.Fatal(err)
	}
	defer x.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		x.Distance(p[0], p[1])
	}
}

// --- E22: fault-injection overhead when disabled -------------------------

// BenchmarkE22FireDisabled pins the zero-cost-when-disabled contract of
// the fault-injection registry: with no faults armed, every hook on the
// serving hot path (worker dispatch, warm, load, save) costs one atomic
// load and no allocations. This is the number that justifies leaving
// the hooks compiled into production binaries.
func BenchmarkE22FireDisabled(b *testing.B) {
	faultinject.Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := faultinject.Fire(faultinject.PointServerWorker); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE22TryQueryFaultsOff measures the full TryQuery door with the
// fault machinery present but disarmed — panic-recovery defer, request
// state arbitration, health tracker — for comparison against the
// pre-chaos E18 serving numbers: the containment layer must be noise.
func BenchmarkE22TryQueryFaultsOff(b *testing.B) {
	faultinject.Disable()
	flat, _, pairs := benchQueryGraph10k(b)
	srv := server.New(index.FromStore(flat), server.Options{Shards: 4})
	defer srv.Close()
	for i := 0; i < 256; i++ {
		p := pairs[i%len(pairs)]
		srv.TryQuery("bench", p[0], p[1])
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		k := 0
		for pb.Next() {
			p := pairs[k%len(pairs)]
			k++
			if _, err := srv.TryQuery("bench", p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
	})
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

// BenchmarkE23BuildSequential is the reference single-worker PLL build
// on the weighted 3k graph the parallel benches compare against.
func BenchmarkE23BuildSequential(b *testing.B) {
	benchE23Setup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pll.Build(benchE23.g, pll.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE23BuildParallel8 is the batched engine at 8 workers on the
// same graph (byte-identical output; see E23 for the speedup table).
func BenchmarkE23BuildParallel8(b *testing.B) {
	benchE23Setup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pll.Build(benchE23.g, pll.Options{Workers: 8}); err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkE23SaveFreeze is the same write through freeze-then-Save
// (flat copy built first — the ~2×-RSS path streaming replaces).
func BenchmarkE23SaveFreeze(b *testing.B) {
	benchE23Setup(b)
	dir := b.TempDir()
	path := filepath.Join(dir, "f.hli")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := index.NewHubLabelsFrom(benchE23.l)
		if err := index.Save(path, idx, hub.ContainerOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E24: compressed serving — the merge over both representations ------

var benchE24 struct {
	once sync.Once
	c    *hub.CompactLabeling
}

// benchCompact10k converts (once) the shared Gnm(10k) labeling to the
// compact representation.
func benchCompact10k(b testing.TB) (*hub.CompactLabeling, [][2]graph.NodeID) {
	flat, _, pairs := benchQueryGraph10k(b)
	benchE24.once.Do(func() { benchE24.c = hub.CompactFromFlat(flat) })
	return benchE24.c, pairs
}

// BenchmarkE24QueryExpanded10k is the expanded merge on the shared E24
// workload — the baseline the compact premium is read against (the same
// kernel as BenchmarkE10QueryFlat10k, repeated here so the two E24 rows
// come from one run).
func BenchmarkE24QueryExpanded10k(b *testing.B) {
	flat, _, pairs := benchQueryGraph10k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		flat.Query(p[0], p[1])
	}
}

// BenchmarkE24QueryCompact10k is the rank-sorted delta-decoding merge
// over the compact representation — the latency a compressed serving
// deployment pays per distance query (must stay 0 allocs/op and within
// the E24 acceptance bar of 1.5x the expanded kernel).
func BenchmarkE24QueryCompact10k(b *testing.B) {
	c, pairs := benchCompact10k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		c.Query(p[0], p[1])
	}
}

// BenchmarkE24PathCompact10k prices full path unpacking over the compact
// representation (parent escapes into the int32 column, hop walk per
// vertex).
func BenchmarkE24PathCompact10k(b *testing.B) {
	c, pairs := benchCompact10k(b)
	if !c.HasParents() {
		b.Skip("no parents on the shared labeling")
	}
	buf := make([]graph.NodeID, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		var err error
		buf, err = c.AppendPath(buf[:0], p[0], p[1])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- E25: serving at production skew — batched kernels and the hot cache

// BenchmarkE25BatchExpanded10k is the 3-stream interleaved expanded
// batch on the shared gnm10k workload — the baseline the compact
// *batched* premium is read against (ns/op is per query).
func BenchmarkE25BatchExpanded10k(b *testing.B) {
	flat, _, pairs := benchQueryGraph10k(b)
	out := make([]graph.Weight, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(pairs) {
		flat.QueryBatch(pairs, out)
	}
}

// BenchmarkE25BatchCompact10k is the decode-then-merge compact batch
// (tight sequential byte-decode into pooled scratch, then a lockstep
// two-pair merge over the expanded int32 runs) on the same workload.
// The E25 acceptance gate reads this row against
// BenchmarkE25BatchExpanded10k: the batched compact premium, 1.46× for
// the PR 8 scalar-loop batch, lands at ~1.33–1.40× here — the byte
// decode is a serial dependency chain no interleave can hide (see the
// rejected-variant log at the top of internal/hub/compact_batch.go).
func BenchmarkE25BatchCompact10k(b *testing.B) {
	c, pairs := benchCompact10k(b)
	out := make([]graph.Weight, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(pairs) {
		c.QueryBatch(pairs, out)
	}
}

// --- E25 (continued): Zipf-skewed serving traffic and the hot cache ----

var benchRoad struct {
	once    sync.Once
	n       int
	flat    *hub.FlatLabeling
	compact *hub.CompactLabeling
	err     error
}

// benchRoad100x100 builds (once) the road100x100 PLL labeling in both
// representations. The grid's Θ(√n) labels make this the expensive
// fixture — the build is paid once per bench process, and CI's
// -benchtime=1x smoke skips the rows that need it.
func benchRoad100x100(b testing.TB) (int, *hub.FlatLabeling, *hub.CompactLabeling) {
	b.Helper()
	benchRoad.once.Do(func() {
		g, err := gen.RoadLike(100, 100, 8, 3)
		if err != nil {
			benchRoad.err = err
			return
		}
		labels, err := pll.Build(g, pll.Options{})
		if err != nil {
			benchRoad.err = err
			return
		}
		benchRoad.n = g.NumNodes()
		benchRoad.flat = labels.Freeze()
		benchRoad.compact = hub.CompactFromFlat(benchRoad.flat)
	})
	if benchRoad.err != nil {
		b.Fatal(benchRoad.err)
	}
	return benchRoad.n, benchRoad.flat, benchRoad.compact
}

// zipfTrace draws a query sequence over a pool of distinct pairs where
// rank r is chosen with probability ∝ (r+1)^-alpha, by inverse-CDF
// binary search over the cumulative weights. math/rand's Zipf requires
// s > 1, which rules out the α = 0.8 point E25 calls for, so the
// sampler is spelled out. The pool (16Ki pairs) is deliberately larger
// than the hot cache (4Ki entries): the cache can never hold the whole
// workload, so the hit rate measures how much mass the skew
// concentrates on the head, not the cache merely being big enough.
func zipfTrace(n int, alpha float64, seed int64) [][2]graph.NodeID {
	const pool = 16384
	const draws = 1 << 16
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]graph.NodeID, pool)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{
			graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
	}
	cum := make([]float64, pool)
	total := 0.0
	for r := 0; r < pool; r++ {
		total += math.Pow(float64(r+1), -alpha)
		cum[r] = total
	}
	trace := make([][2]graph.NodeID, draws)
	for i := range trace {
		x := rng.Float64() * total
		r := sort.SearchFloat64s(cum, x)
		if r >= pool {
			r = pool - 1
		}
		trace[i] = pairs[r]
	}
	return trace
}

// benchZipfServer drives one Zipf trace through a serving stack and
// reports ns per end-to-end query plus the achieved cache hit rate as a
// hit_rate metric (0 when the cache is disabled or the run is too short
// to probe it, e.g. -benchtime=1x).
func benchZipfServer(b *testing.B, idx index.Index, n int, alpha float64, hotCache int) {
	trace := zipfTrace(n, alpha, 99)
	srv := server.New(idx, server.Options{Shards: 1, HotCache: hotCache})
	defer srv.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := trace[i%len(trace)]
		srv.TryQuery("bench", p[0], p[1])
	}
	b.StopTimer()
	if st := srv.Stats(); st.HotHits+st.HotMisses > 0 {
		b.ReportMetric(float64(st.HotHits)/float64(st.HotHits+st.HotMisses), "hit_rate")
	}
}

// The eight cached rows: {gnm10k, road100x100} × {expanded, compact} ×
// α ∈ {0.8, 1.1}. ns/op is the end-to-end served latency under skew
// (envelope + cache probe + merge on misses); hit_rate is what fraction
// the cache fielded. Read against the NoCache rows below for the
// end-to-end effect and against BenchmarkE25CacheHitProbe vs the E24
// query rows for the raw probe-vs-merge ratio the ≥5× gate prices.
func BenchmarkE25ZipfGnm10kExpandedA08(b *testing.B) {
	flat, _, _ := benchQueryGraph10k(b)
	benchZipfServer(b, index.FromStore(flat), 10000, 0.8, 4096)
}

func BenchmarkE25ZipfGnm10kExpandedA11(b *testing.B) {
	flat, _, _ := benchQueryGraph10k(b)
	benchZipfServer(b, index.FromStore(flat), 10000, 1.1, 4096)
}

func BenchmarkE25ZipfGnm10kCompactA08(b *testing.B) {
	c, _ := benchCompact10k(b)
	benchZipfServer(b, index.FromStore(c), 10000, 0.8, 4096)
}

func BenchmarkE25ZipfGnm10kCompactA11(b *testing.B) {
	c, _ := benchCompact10k(b)
	benchZipfServer(b, index.FromStore(c), 10000, 1.1, 4096)
}

func BenchmarkE25ZipfRoadExpandedA08(b *testing.B) {
	n, flat, _ := benchRoad100x100(b)
	benchZipfServer(b, index.FromStore(flat), n, 0.8, 4096)
}

func BenchmarkE25ZipfRoadExpandedA11(b *testing.B) {
	n, flat, _ := benchRoad100x100(b)
	benchZipfServer(b, index.FromStore(flat), n, 1.1, 4096)
}

func BenchmarkE25ZipfRoadCompactA08(b *testing.B) {
	n, _, c := benchRoad100x100(b)
	benchZipfServer(b, index.FromStore(c), n, 0.8, 4096)
}

func BenchmarkE25ZipfRoadCompactA11(b *testing.B) {
	n, _, c := benchRoad100x100(b)
	benchZipfServer(b, index.FromStore(c), n, 1.1, 4096)
}

// The NoCache rows serve the identical α=1.1 trace with the cache
// disabled — the end-to-end price of every query taking the merge.
func BenchmarkE25ZipfGnm10kCompactA11NoCache(b *testing.B) {
	c, _ := benchCompact10k(b)
	benchZipfServer(b, index.FromStore(c), 10000, 1.1, 0)
}

func BenchmarkE25ZipfRoadCompactA11NoCache(b *testing.B) {
	n, _, c := benchRoad100x100(b)
	benchZipfServer(b, index.FromStore(c), n, 1.1, 0)
}

// BenchmarkE25CacheHitProbe is the numerator of the E25 ≥5× gate: the
// cost of a hot-cache hit in isolation (key canonicalization + one
// set probe), to be read against the merge rows it replaces
// (BenchmarkE24QueryExpanded10k / BenchmarkE24QueryCompact10k).
func BenchmarkE25CacheHitProbe(b *testing.B) {
	c := hotcache.New(4096)
	c.ResetIfStale(1)
	const keys = 512
	for i := 0; i < keys; i++ {
		c.Insert(hotcache.Key(graph.NodeID(i), graph.NodeID(i+7777)), graph.Weight(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink graph.Weight
	for i := 0; i < b.N; i++ {
		d, _ := c.Lookup(hotcache.Key(graph.NodeID(i%keys), graph.NodeID(i%keys+7777)))
		sink += d
	}
	benchZipfSink = sink
}

var benchZipfSink graph.Weight

// benchE26Doors starts a binary netserve door and an HTTP door over the
// shared Gnm(10k) labeling — the same pairing experiment E26 measures —
// and returns their addresses. Both are torn down with the benchmark.
func benchE26Doors(b *testing.B) (binAddr, httpAddr string) {
	b.Helper()
	_, slices, _ := benchQueryGraph10k(b)
	srv := server.New(index.NewHubLabelsFrom(slices), server.Options{})
	door := netserve.New(srv, netserve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go door.Serve(ln) //nolint:errcheck // returns net.ErrClosed on Close
	mux := http.NewServeMux()
	mux.HandleFunc("/distance", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		u, _ := strconv.Atoi(q.Get("u"))
		v, _ := strconv.Atoi(q.Get("v"))
		d, err := srv.TryQuery("bench", graph.NodeID(u), graph.NodeID(v))
		if err != nil {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(w, "%d\n", d)
	})
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: mux}
	go hs.Serve(hln) //nolint:errcheck // returns ErrServerClosed on Close
	b.Cleanup(func() {
		hs.Close()
		door.Close()
		srv.Close()
	})
	return ln.Addr().String(), hln.Addr().String()
}

// BenchmarkE26WireDoorBatch16 is one 16-query binary frame round-trip
// through the netserve door (ns/op is per frame — divide by 16 for
// per-query cost). Read against BenchmarkE26HTTPDoor: the ratio is the
// per-connection view of E26's ≥5× door-throughput gate.
func BenchmarkE26WireDoorBatch16(b *testing.B) {
	binAddr, _ := benchE26Doors(b)
	_, _, pairs := benchQueryGraph10k(b)
	conn, err := net.Dial("tcp", binAddr)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck
	br := bufio.NewReader(conn)
	const batch = 16
	qs := make([]wire.Query, batch)
	kinds := make([]uint8, batch)
	rs := make([]wire.Result, batch)
	var frame, buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range qs {
			p := pairs[(i*batch+j)%len(pairs)]
			qs[j] = wire.Query{Kind: wire.QDist, U: p[0], V: p[1]}
		}
		frame, err = wire.AppendRequest(frame[:0], uint64(i), qs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			b.Fatal(err)
		}
		kind, payload, err := wire.ReadFrame(br, &buf, 1<<20)
		if err != nil || kind != wire.FrameReply {
			b.Fatalf("reply: kind=%d err=%v", kind, err)
		}
		if _, _, err := wire.ParseReply(payload, kinds, rs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE26HTTPDoor is one keep-alive HTTP GET /distance round-trip
// against the same server — the text door E26 compares the binary
// protocol to.
func BenchmarkE26HTTPDoor(b *testing.B) {
	_, httpAddr := benchE26Doors(b)
	_, _, pairs := benchQueryGraph10k(b)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	defer client.CloseIdleConnections()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		resp, err := client.Get(fmt.Sprintf("http://%s/distance?u=%d&v=%d", httpAddr, p[0], p[1]))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
