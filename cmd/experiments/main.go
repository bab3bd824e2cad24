// Command experiments reproduces the experiments in EXPERIMENTS.md's
// index, printing one table per experiment: the paper reproduction
// (E1–E12), the extensions (E13–E16) and the serving experiments that
// assert a property no benchmark metric carries (E19 fairness, E22
// chaos storm, E23 million-vertex build, E26 fleet goodput and shed
// sharing). Serving speed is measured by the repository benchmark
// (bench/run.sh), not here.
//
// Usage:
//
//	experiments -run all
//	experiments -run E4,E5
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hublab/internal/approx"
	"hublab/internal/cover"
	"hublab/internal/dlabel"
	"hublab/internal/faultinject"
	"hublab/internal/flowctl"
	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/hdim"
	"hublab/internal/hhl"
	"hublab/internal/hub"
	"hublab/internal/hubclient"
	"hublab/internal/index"
	"hublab/internal/index/indextest"
	"hublab/internal/lbound"
	"hublab/internal/netserve"
	"hublab/internal/oracle"
	"hublab/internal/pll"
	"hublab/internal/rs"
	"hublab/internal/server"
	"hublab/internal/sparsehub"
	"hublab/internal/sssp"
	"hublab/internal/sumindex"
	"hublab/internal/ubound"
	"hublab/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

var experiments = []struct {
	id   string
	desc string
	fn   func() error
}{
	{"E1", "Figure 1: the two paths of H_{2,2}", e1},
	{"E2", "Theorem 2.1 (i)+(ii): size and degree of G_{b,l}", e2},
	{"E3", "Lemma 2.2: unique midpoint shortest paths", e3},
	{"E4", "Theorem 2.1 (iii)/1.1: certified lower bound vs real labelings", e4},
	{"E5", "Theorem 1.6: Sum-Index via distance labels", e5},
	{"E6", "Theorem 4.1: upper-bound pipeline decomposition", e6},
	{"E7", "Ruzsa-Szemeredi substrate: Behrend sets and induced matchings", e7},
	{"E8", "ADKP16/GKU16-style sparse scheme: n/log n shape", e8},
	{"E9", "Distance label bit sizes across schemes", e9},
	{"E10", "Query time: labels vs graph search", e10},
	{"E11", "Eq. (1) ablation: monotone closure blow-up", e11},
	{"E12", "Structure helps: road-like vs random sparse", e12},
	{"E13", "Extension: the S*T oracle tradeoff (paper §1)", e13},
	{"E14", "Extension: PLL equals canonical hierarchical labeling (ADGW12)", e14},
	{"E15", "Extension: +2-error hub labels and correction tables (paper §1.1)", e15},
	{"E16", "Extension: highway dimension estimates (ADF+16)", e16},
	{"E19", "Serving: fair admission control under overload", e19},
	{"E22", "Robustness: chaos storm — injected panics, corrupt reloads, exact accounting", e22},
	{"E23", "Build pipeline: parallel PLL throughput, byte-equality, streaming memory", e23},
	{"E26", "Fleet: goodput and shed sharing under flood", e26},
}

// selectExperiments resolves a -run value — "all" or a comma-separated
// list of ids, case-insensitive — to the set of registry ids to run. An
// id the registry does not hold is an error naming the valid ones, so a
// typo (or a renamed experiment behind a CI gate) cannot pass by running
// nothing.
func selectExperiments(sel string) (map[string]bool, error) {
	valid := make([]string, len(experiments))
	want := make(map[string]bool, len(experiments))
	for i, e := range experiments {
		valid[i] = e.id
		want[e.id] = false
	}
	for _, raw := range strings.Split(sel, ",") {
		id := strings.ToUpper(strings.TrimSpace(raw))
		if id == "ALL" {
			for _, v := range valid {
				want[v] = true
			}
			continue
		}
		if _, ok := want[id]; !ok {
			return nil, fmt.Errorf("unknown experiment %q (valid: all, %s)", raw, strings.Join(valid, ", "))
		}
		want[id] = true
	}
	return want, nil
}

func run() error {
	sel := flag.String("run", "all", "comma-separated experiment ids or 'all'")
	flag.Parse()
	want, err := selectExperiments(*sel)
	if err != nil {
		return err
	}
	for _, e := range experiments {
		if !want[e.id] {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", e.id, e.desc)
		start := time.Now()
		if err := e.fn(); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Printf("(%s done in %v)\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func e1() error {
	fig, err := lbound.FigureOne()
	if err != nil {
		return err
	}
	fmt.Printf("A = %d\n", fig.A)
	fmt.Printf("blue path length: %d  (paper: 4A+4 = %d)  unique=%v via-midpoint=%v\n",
		fig.BlueLength, 4*fig.A+4, fig.Unique, fig.ViaMid)
	fmt.Printf("red  path length: %d  (paper: 4A+8 = %d)\n", fig.RedLength, 4*fig.A+8)
	return nil
}

func e2() error {
	fmt.Println("  b  l     n(H)     m(H)       n(G)  bound(4s·nH+ΣW)  maxdeg  dist-check")
	for _, p := range []lbound.Params{{B: 1, L: 1}, {B: 2, L: 1}, {B: 1, L: 2}, {B: 2, L: 2}, {B: 3, L: 2}} {
		e, err := lbound.BuildG(p)
		if err != nil {
			return err
		}
		h := e.H
		bound := int64(4*p.Side()*h.G.NumNodes()) + h.G.TotalWeight()
		// Spot-check bottom-top distance equality on a few pairs.
		layer := p.LayerSize()
		ok := true
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 5; i++ {
			u := graph.NodeID(rng.Intn(layer))
			v := graph.NodeID(2*p.L*layer + rng.Intn(layer))
			hd := sssp.Dijkstra(h.G, u).Dist[v]
			gd := sssp.BFS(e.G, e.CenterOf(u)).Dist[e.CenterOf(v)]
			if hd != gd {
				ok = false
			}
		}
		fmt.Printf("  %d  %d %8d %8d %10d %16d %7d  %v\n",
			p.B, p.L, h.G.NumNodes(), h.G.NumEdges(), e.G.NumNodes(), bound, e.G.MaxDegree(), ok)
	}
	return nil
}

func e3() error {
	fmt.Println("  b  l   pairs-checked  violations   (H_{b,l}, exhaustive)")
	for _, p := range []lbound.Params{{B: 1, L: 1}, {B: 2, L: 1}, {B: 1, L: 2}, {B: 2, L: 2}, {B: 3, L: 2}} {
		h, err := lbound.BuildH(p)
		if err != nil {
			return err
		}
		checked, bad, err := h.VerifyLemma22All()
		if err != nil {
			return err
		}
		fmt.Printf("  %d  %d   %13d  %10v\n", p.B, p.L, checked, bad != nil)
	}
	// And on the expanded degree-3 graph for the Figure 1 instance.
	e, err := lbound.BuildG(lbound.Params{B: 2, L: 2})
	if err != nil {
		return err
	}
	rep, err := e.VerifyLemma22([]int{1, 0}, []int{3, 2})
	if err != nil {
		return err
	}
	fmt.Printf("  G_{2,2} spot check (Figure 1 pair): ok=%v length=%d\n", rep.Ok(), rep.Length)
	return nil
}

func e4() error {
	fmt.Println("  b  l     n(H)   certified-LB   PLL-avg   greedy-avg   PLL/LB")
	for _, p := range []lbound.Params{{B: 2, L: 2}, {B: 3, L: 2}, {B: 4, L: 2}, {B: 2, L: 3}} {
		h, err := lbound.BuildH(p)
		if err != nil {
			return err
		}
		cert := h.CertificateH()
		labels, err := pll.Build(h.G, pll.Options{})
		if err != nil {
			return err
		}
		avg := labels.ComputeStats().Avg
		greedyStr := "-"
		if h.G.NumNodes() <= 450 {
			gl, err := cover.Greedy(h.G)
			if err != nil {
				return err
			}
			greedyStr = fmt.Sprintf("%.2f", gl.ComputeStats().Avg)
		}
		fmt.Printf("  %d  %d %8d   %12.3f  %8.2f   %10s   %6.1f\n",
			p.B, p.L, h.G.NumNodes(), cert.AvgHubLB, avg, greedyStr, avg/cert.AvgHubLB)
	}
	fmt.Println("  (LB must stay below every real labeling; both grow ~(s/2)^l = n/quasipolylog)")
	return nil
}

func e5() error {
	fmt.Println("  b  l    m   pairs  max-msg-bits  trivial-bits  correct")
	for _, bl := range [][2]int{{2, 2}, {3, 2}, {2, 3}} {
		gp, err := sumindex.NewGraphProtocol(bl[0], bl[1])
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(9))
		bits := make([]bool, gp.M())
		for i := range bits {
			bits[i] = rng.Intn(2) == 1
		}
		in := sumindex.NewInstance(bits)
		sess, err := gp.NewSession(in)
		if err != nil {
			return err
		}
		pairs, maxBits, err := sess.VerifyAll(in)
		correct := err == nil
		if err != nil {
			return err
		}
		tr, err := sumindex.Trivial(in, 0, 0)
		if err != nil {
			return err
		}
		fmt.Printf("  %d  %d  %3d  %6d  %12d  %12d  %v\n",
			bl[0], bl[1], gp.M(), pairs, maxBits, tr.AliceBits, correct)
	}
	return nil
}

func e6() error {
	g, err := gen.RandomRegular(300, 3, 11)
	if err != nil {
		return err
	}
	fmt.Printf("  graph: random 3-regular n=%d m=%d\n", g.NumNodes(), g.NumEdges())
	fmt.Println("  D  colors   |S|    ΣQ    ΣR    ΣF   ΣN(F)  avg|H_v|  matchings  violations  cover")
	for _, d := range []graph.Weight{2, 3, 4, 5} {
		res, err := ubound.Build(g, ubound.Options{D: d, Seed: 3})
		if err != nil {
			return err
		}
		coverOK := res.Labeling.VerifyCover(g) == nil
		fmt.Printf("  %d  %6d  %4d  %5d %5d %5d  %5d   %7.1f  %9d  %10d  %v\n",
			d, res.Colors, res.SharedSize, res.QTotal, res.RTotal, res.FTotal, res.NFTotal,
			res.Labeling.ComputeStats().Avg, res.InducedMatchings, res.Violations, coverOK)
	}
	// Theorem 1.4 on an average-degree graph with high-degree vertices.
	b := graph.NewBuilder(200, 400)
	for v := graph.NodeID(1); v < 60; v++ {
		b.AddEdge(0, v)
	}
	for v := graph.NodeID(60); v < 199; v++ {
		b.AddEdge(v, v+1)
	}
	b.AddEdge(199, 0)
	b.AddEdge(59, 60)
	hg, err := b.Build()
	if err != nil {
		return err
	}
	res, red, err := ubound.BuildForSparse(hg, ubound.Options{D: 3, Seed: 3})
	if err != nil {
		return err
	}
	fmt.Printf("  Thm 1.4: n=%d maxdeg=%d -> reduced n=%d maxdeg=%d; projected cover ok=%v avg=%.1f\n",
		hg.NumNodes(), hg.MaxDegree(), red.G.NumNodes(), red.G.MaxDegree(),
		res.Labeling.VerifyCover(hg) == nil, res.Labeling.ComputeStats().Avg)
	return nil
}

func e7() error {
	fmt.Println("  Behrend sets:    N     |B|    N/|B|   AP-free")
	for _, n := range []int{64, 256, 1024, 4096, 16384, 65536} {
		set := rs.BehrendSet(n)
		fmt.Printf("  %16d  %6d  %6.1f   %v\n", n, len(set), float64(n)/float64(len(set)), rs.IsProgressionFree(set))
	}
	tgN := 512
	tg, err := rs.NewTriangleGraph(tgN, rs.BehrendSet(tgN/3))
	if err != nil {
		return err
	}
	fmt.Printf("  triangle graph: n=%d vertices=%d edges=%d unique-triangles=%v\n",
		tgN, tg.NumVertices(), tg.NumEdges(), tg.VerifyUniqueTriangles() == nil)
	fmt.Println("  matching family:  s  l  rho  edges  matchings  induced")
	for _, sl := range [][2]int{{4, 2}, {6, 2}, {8, 2}, {4, 3}} {
		rho, _, err := rs.BestShell(sl[0], sl[1], 2*sl[0])
		if err != nil {
			return err
		}
		mf, err := rs.NewMatchingFamily(sl[0], sl[1], rho)
		if err != nil {
			return err
		}
		fmt.Printf("  %18d %2d %4d  %5d  %9d  %v\n",
			sl[0], sl[1], rho, mf.NumEdges(), mf.NumMatchings(), mf.VerifyInduced() == nil)
	}
	return nil
}

func e8() error {
	fmt.Println("   n     D   |S|  avg-ball  fixups  avg|S(v)|  n/log2(n)  ratio  verified")
	for _, n := range []int{128, 256, 512, 1024} {
		g, err := gen.RandomRegular(n, 3, int64(n))
		if err != nil {
			return err
		}
		res, err := sparsehub.Build(g, sparsehub.Options{Seed: int64(n)})
		if err != nil {
			return err
		}
		verified := false
		if n <= 512 {
			verified = res.Labeling.VerifyCover(g) == nil
		} else {
			verified = res.Labeling.VerifySampled(g, 1000, 5) == nil
		}
		avg := res.Labeling.ComputeStats().Avg
		ref := float64(n) / math.Log2(float64(n))
		fmt.Printf("  %5d  %3d  %4d  %8.1f  %6d  %9.1f  %9.1f  %5.2f  %v\n",
			n, res.D, res.SharedHubs, float64(res.BallTotal)/float64(n),
			res.FixupTotal, avg, ref, avg/ref, verified)
	}
	return nil
}

func e9() error {
	g, err := gen.RandomRegular(256, 3, 21)
	if err != nil {
		return err
	}
	labels, err := pll.Build(g, pll.Options{})
	if err != nil {
		return err
	}
	hubBits, err := dlabel.HubLabels(labels)
	if err != nil {
		return err
	}
	euler, err := dlabel.EulerTour(g)
	if err != nil {
		return err
	}
	fmt.Printf("  sparse 3-regular n=256:  hub-gamma avg=%.0f bits  euler-log3 avg=%.0f bits  (2n·log2 3=%.0f)\n",
		hubBits.AvgBits(), euler.AvgBits(), 2*256*math.Log2(3))
	tree, err := gen.RandomTree(255, 4)
	if err != nil {
		return err
	}
	cl, err := dlabel.Centroid(tree)
	if err != nil {
		return err
	}
	cBits, err := dlabel.HubLabels(cl)
	if err != nil {
		return err
	}
	treeEuler, err := dlabel.EulerTour(tree)
	if err != nil {
		return err
	}
	lg := math.Log2(255)
	fmt.Printf("  tree n=255: centroid avg=%.0f bits (~log² n=%.0f)  euler avg=%.0f bits  max-hubs=%d (≤2log n+3=%d)\n",
		cBits.AvgBits(), lg*lg, treeEuler.AvgBits(), cl.ComputeStats().Max, int(2*lg)+3)
	return nil
}

func e10() error {
	g, err := gen.Gnm(3000, 5400, 17)
	if err != nil {
		return err
	}
	labels, err := pll.Build(g, pll.Options{})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(5))
	const q = 300
	pairs := make([][2]graph.NodeID, q)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(3000)), graph.NodeID(rng.Intn(3000))}
	}
	start := time.Now()
	for _, p := range pairs {
		labels.Query(p[0], p[1])
	}
	tLabel := time.Since(start) / q
	start = time.Now()
	for _, p := range pairs[:30] {
		sssp.Distance(g, p[0], p[1])
	}
	tBidi := time.Since(start) / 30
	start = time.Now()
	for _, p := range pairs[:30] {
		sssp.BFS(g, p[0])
	}
	tBFS := time.Since(start) / 30
	stats := labels.ComputeStats()
	fmt.Printf("  n=3000 m=5400: label space=%d hubs (avg %.1f/vertex)\n", stats.Total, stats.Avg)
	fmt.Printf("  per-query: labels=%v  bidirectional=%v  full-BFS=%v\n", tLabel, tBidi, tBFS)
	return nil
}

func e11() error {
	fmt.Println("  b  l   hop-diam   avg|S|   avg|S*|   blow-up  (bound: ≤ hop-diam)")
	for _, p := range []lbound.Params{{B: 2, L: 2}, {B: 3, L: 2}} {
		h, err := lbound.BuildH(p)
		if err != nil {
			return err
		}
		labels, err := pll.Build(h.G, pll.Options{})
		if err != nil {
			return err
		}
		closed, err := hub.MonotoneClosure(h.G, labels)
		if err != nil {
			return err
		}
		a, c := labels.ComputeStats().Avg, closed.ComputeStats().Avg
		cert := h.CertificateH()
		fmt.Printf("  %d  %d   %8d   %6.2f   %7.2f   %7.3f\n",
			p.B, p.L, cert.HopBound, a, c, c/a)
	}
	return nil
}

func e12() error {
	road, err := gen.RoadLike(32, 32, 8, 3)
	if err != nil {
		return err
	}
	random, err := gen.RandomRegular(1024, 3, 3)
	if err != nil {
		return err
	}
	grid, err := gen.Grid(32, 32)
	if err != nil {
		return err
	}
	sepOrder, err := pll.GridSeparatorOrder(32, 32)
	if err != nil {
		return err
	}
	hwyOrder, err := pll.RoadHighwayOrder(32, 32, 8)
	if err != nil {
		return err
	}
	fmt.Println("  graph (n=1024)      landmark order   avg|S(v)|   max|S(v)|")
	for _, tc := range []struct {
		name, order string
		g           *graph.Graph
		opts        pll.Options
	}{
		{"random 3-regular", "degree", random, pll.Options{}},
		{"unit grid", "degree", grid, pll.Options{}},
		{"unit grid", "separator", grid, pll.Options{Custom: sepOrder}},
		{"road-like", "degree", road, pll.Options{}},
		{"road-like", "highway-first", road, pll.Options{Custom: hwyOrder}},
	} {
		labels, err := pll.Build(tc.g, tc.opts)
		if err != nil {
			return err
		}
		if err := labels.VerifySampled(tc.g, 300, 1); err != nil {
			return err
		}
		s := labels.ComputeStats()
		fmt.Printf("  %-18s  %-14s  %9.1f   %9d\n", tc.name, tc.order, s.Avg, s.Max)
	}
	fmt.Println("  (structure-aware orders exploit separators/highways; degree order cannot;")
	fmt.Println("   random sparse graphs have no such structure to exploit — the paper's regime)")
	return nil
}

func e13() error {
	g, err := gen.RandomRegular(400, 3, 13)
	if err != nil {
		return err
	}
	points, err := oracle.Tradeoff(g, 400)
	if err != nil {
		return err
	}
	fmt.Printf("  random 3-regular n=%d m=%d (cross-checked on 400 sampled pairs)\n",
		g.NumNodes(), g.NumEdges())
	fmt.Println("  oracle       space-bytes   avg-query-ops    S*T-product")
	for _, p := range points {
		fmt.Printf("  %-11s  %11d   %13.1f   %12.3g\n",
			p.Name, p.SpaceBytes, p.AvgQueryOps, p.SpaceTimeProduct)
	}
	fmt.Println("  (hub labels sit between the matrix and pure search; the paper's")
	fmt.Println("   lower bound explains why their space stays near-linear·n on sparse inputs)")
	return nil
}

func e14() error {
	fmt.Println("  n    m    order    PLL==canonical   hierarchical")
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{40, 80, 120} {
		g, err := gen.Gnm(n, 2*n, int64(n))
		if err != nil {
			return err
		}
		order := make([]graph.NodeID, n)
		for i := range order {
			order[i] = graph.NodeID(i)
		}
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		fast, err := pll.Build(g, pll.Options{Custom: order})
		if err != nil {
			return err
		}
		ref, err := hhl.Canonical(g, order)
		if err != nil {
			return err
		}
		equal, diff := hhl.Equal(fast, ref)
		hier, err := hhl.IsHierarchical(fast, order)
		if err != nil {
			return err
		}
		fmt.Printf("  %3d  %3d  random   %14v   %12v\n", n, g.NumEdges(), equal, hier)
		if !equal {
			return fmt.Errorf("PLL differs from canonical: %s", diff)
		}
	}
	fmt.Println("  (two independent implementations agree hub-for-hub: the minimality")
	fmt.Println("   theorem of hierarchical hub labelings, executable)")
	return nil
}

func e15() error {
	g, err := gen.RandomRegular(300, 3, 5)
	if err != nil {
		return err
	}
	exact, err := pll.Build(g, pll.Options{})
	if err != nil {
		return err
	}
	res, err := approx.Collapse(g)
	if err != nil {
		return err
	}
	hist, maxErr, err := approx.VerifyError(g, res.Labeling)
	if err != nil {
		return err
	}
	slackL, err := approx.SlackPLL(g, approx.Options{Slack: 2})
	if err != nil {
		return err
	}
	sHist, sMax, err := approx.VerifyError(g, slackL)
	if err != nil {
		return err
	}
	fmt.Printf("  exact PLL avg |S(v)|          : %.1f\n", exact.ComputeStats().Avg)
	fmt.Printf("  collapse (+2 guaranteed) avg  : %.1f  max-err=%d hist=%v  |R|=%d\n",
		res.ApproxAvg, maxErr, hist, len(res.Dominators))
	fmt.Printf("  slack-PLL (heuristic) avg     : %.1f  max-err=%d hist=%v\n",
		slackL.ComputeStats().Avg, sMax, sHist)
	fmt.Printf("  correction table (paper §1.1) : %.1f bits/vertex on top of approx labels -> exact\n",
		approx.CorrectionBits(g.NumNodes(), 2))
	return nil
}

func e16() error {
	road, err := gen.RoadLike(14, 14, 4, 3)
	if err != nil {
		return err
	}
	random, err := gen.RandomRegular(196, 3, 3)
	if err != nil {
		return err
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"road-like 14x14", road}, {"random 3-regular", random}} {
		scales, err := hdim.Estimate(tc.g)
		if err != nil {
			return err
		}
		fmt.Printf("  %s (n=%d):\n", tc.name, tc.g.NumNodes())
		fmt.Println("    r   paths   greedy-cover  max-ball-cover")
		for _, s := range scales {
			fmt.Printf("  %4d  %6d   %12d  %14d\n", s.R, s.Paths, s.GreedyCover, s.MaxBallCover)
		}
	}
	fmt.Println("  (small per-ball covers at large scales = low highway dimension;")
	fmt.Println("   the road-like network thins out, the random graph does not)")
	return nil
}

// --- E19: fair admission control under overload --------------------------

// e19Index is the capacity-controlled synthetic backend: every query
// costs a fixed service time, so capacity = shards / serviceTime and
// overload is cheap to generate. indextest.Fixed implements no batch
// path, so coalescing cannot hide the per-request cost.
func e19Index(delay time.Duration) index.Index {
	return &indextest.Fixed{N: 2, Delay: delay}
}

// e19Client is one load generator: workers goroutines sharing one client
// identity, pacing TryQuery calls at interval each.
type e19Client struct {
	id       string
	interval time.Duration
	workers  int
	attempts atomic.Uint64
	served   atomic.Uint64
}

// offer runs one pacing worker until stop closes. phase delays the
// worker's first request so a multi-worker client spreads its load
// evenly instead of firing synchronized bursts every interval.
func (c *e19Client) offer(srv *server.Server, stop <-chan struct{}, phase time.Duration) {
	select {
	case <-stop:
		return
	case <-time.After(phase):
	}
	next := time.Now()
	for {
		select {
		case <-stop:
			return
		default:
		}
		c.attempts.Add(1)
		if _, err := srv.TryQuery(c.id, 0, 1); err == nil {
			c.served.Add(1)
		}
		next = next.Add(c.interval)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		} else {
			next = time.Now() // overloaded pacer: don't accumulate debt
		}
	}
}

// jain computes Jain's fairness index (Σx)²/(n·Σx²) over the values.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// maxminShares water-fills capacity over the measured demands: every
// client is entitled to its full demand unless that exceeds an equal
// share of what is left, so small flows are satisfied first and the
// remainder goes to the big ones. Jain's index over served/share then
// scores max-min fairness: proportional starvation (everyone gets the
// same fraction while a flood hogs the queue) correctly scores low.
func maxminShares(demand []float64, capacity float64) []float64 {
	type flow struct {
		i int
		d float64
	}
	order := make([]flow, len(demand))
	for i, d := range demand {
		order[i] = flow{i, d}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].d < order[b].d })
	share := make([]float64, len(demand))
	remaining := capacity
	for k, f := range order {
		level := remaining / float64(len(order)-k)
		s := f.d
		if s > level {
			s = level
		}
		share[f.i] = s
		remaining -= s
	}
	return share
}

// e19 measures goodput and per-client fairness under overload, with and
// without the flowctl admission controller. Workload: 10 polite clients
// jointly offering half of capacity, plus one unresponsive heavy client
// offering the rest of 1×/2×/4× total offered load. Satisfaction is
// served/offered per client; Jain's index is computed over the
// satisfaction vector.
func e19() error {
	const (
		svc    = 1 * time.Millisecond
		shards = 2
		// Deep enough that "queue rarely full" (what the controller
		// steers toward) does not mean "queue often empty" (lost
		// goodput): full and busy are decoupled by the buffer.
		queue  = 32
		nLight = 10
		// The heavy client's concurrent connections must exceed the
		// shards×queue slots it can occupy (or a closed-loop flood
		// self-limits below queue-full and no overload ever registers),
		// and by enough that each worker's pacing interval stays above
		// the worst-case queue wait — otherwise admitted calls blocking
		// for a full drain eat into the offered rate.
		heavyW = 250
		warmup = 400 * time.Millisecond
		// Long enough to average out the BLUE feedback oscillation and
		// scheduler noise on a loaded box.
		measured = 1500 * time.Millisecond
	)
	// Calibrate capacity: saturate the same server shape with closed-loop
	// clients, too few to fill a queue (sleep-based service time overshoots on a busy box, so the
	// nominal shards/svc figure would be optimistic).
	srv := server.New(e19Index(svc), server.Options{Shards: shards, QueueDepth: queue})
	var calWG sync.WaitGroup
	calStop := make(chan struct{})
	for i := 0; i < 2*shards; i++ {
		calWG.Add(1)
		go func() {
			defer calWG.Done()
			for {
				select {
				case <-calStop:
					return
				default:
					_, _ = srv.TryQuery("calibrate", 0, 1)
				}
			}
		}()
	}
	calDur := 400 * time.Millisecond
	time.Sleep(calDur)
	capacity := float64(srv.Stats().Served) / calDur.Seconds()
	close(calStop)
	calWG.Wait()
	srv.Close()
	fmt.Printf("  synthetic backend: %v/query × %d shards -> measured capacity %.0f q/s\n",
		svc, shards, capacity)

	fmt.Println("  admission  offered/C  goodput/C  light-sat  heavy-sat   jain   hot  shed%")
	for _, fair := range []bool{false, true} {
		for _, mult := range []float64{1, 2, 4} {
			opts := server.Options{Shards: shards, QueueDepth: queue}
			if fair {
				opts.Admission = &flowctl.Options{}
			}
			srv := server.New(e19Index(svc), opts)
			clients := make([]*e19Client, 0, nLight+1)
			for i := 0; i < nLight; i++ {
				clients = append(clients, &e19Client{
					id:       fmt.Sprintf("light-%d", i),
					interval: time.Duration(float64(2*nLight) / capacity * float64(time.Second)),
					workers:  1,
				})
			}
			heavyRate := (mult - 0.5) * capacity
			clients = append(clients, &e19Client{
				id:       "heavy",
				interval: time.Duration(float64(heavyW) / heavyRate * float64(time.Second)),
				workers:  heavyW,
			})
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for _, c := range clients {
				for w := 0; w < c.workers; w++ {
					wg.Add(1)
					go func(c *e19Client, w int) {
						defer wg.Done()
						c.offer(srv, stop, c.interval*time.Duration(w)/time.Duration(c.workers))
					}(c, w)
				}
			}
			// Warm up past the controller's transient, then measure a
			// steady-state window by snapshotting the counters around it.
			time.Sleep(warmup)
			att0 := make([]uint64, len(clients))
			srv0 := make([]uint64, len(clients))
			for i, c := range clients {
				att0[i] = c.attempts.Load()
				srv0[i] = c.served.Load()
			}
			shed0 := srv.Stats().Shed
			time.Sleep(measured)
			sat := make([]float64, len(clients))
			demand := make([]float64, len(clients))
			got := make([]float64, len(clients))
			var offered, served float64
			for i, c := range clients {
				a := float64(c.attempts.Load() - att0[i])
				s := float64(c.served.Load() - srv0[i])
				offered += a
				served += s
				demand[i] = a / measured.Seconds()
				got[i] = s / measured.Seconds()
				if a > 0 {
					sat[i] = s / a
				}
			}
			// Fairness: served rate relative to the max-min fair share of
			// capacity given the measured demands.
			shares := maxminShares(demand, capacity)
			norm := make([]float64, len(clients))
			for i := range norm {
				if shares[i] > 0 {
					norm[i] = got[i] / shares[i]
				}
			}
			st := srv.Stats()
			close(stop)
			wg.Wait()
			srv.Close()
			lightSat := 0.0
			for _, x := range sat[:nLight] {
				lightSat += x
			}
			lightSat /= nLight
			shedPct := 0.0
			if offered > 0 {
				shedPct = 100 * float64(st.Shed-shed0) / offered
			}
			mode := "none"
			if fair {
				mode = "fair"
			}
			sec := measured.Seconds()
			fmt.Printf("  %-9s  %8.2fx  %8.2fx  %9.2f  %9.2f  %5.3f  %4d  %5.1f\n",
				mode, offered/sec/capacity, served/sec/capacity,
				lightSat, sat[nLight], jain(norm), st.PerClientHot, shedPct)
		}
	}
	fmt.Println("  (fair: goodput stays ≈capacity and polite clients stay satisfied at 4×;")
	fmt.Println("   none: first-come queue slots go to the flood and polite clients starve)")
	return nil
}

// e22: the chaos storm. One live server (a Gnm(10k) PLL index behind
// the sharded service) is attacked on two axes at once
// while client goroutines hammer it:
//
//   - worker panics and latency jitter via internal/faultinject, at a
//     deterministic schedule dense enough for hundreds of contained
//     panics in one run;
//   - a reload storm that alternates valid container swaps with corrupt
//     (torn) containers renamed over the serving path — the corrupt ones
//     must be detected, quarantined, and survived.
//
// The experiment asserts, not just reports: zero escaped panics, every
// request resolved, server accounting exactly equal to the submitted
// count, ≥100 injected panics, ≥10 corrupt reloads quarantined, and the
// post-storm server answering a pre-storm sample byte-identically.
func e22() error {
	g, err := gen.Gnm(10000, 18000, 17)
	if err != nil {
		return err
	}
	labels, err := pll.Build(g, pll.Options{})
	if err != nil {
		return err
	}
	idx := index.NewHubLabelsFrom(labels)
	dir, err := os.MkdirTemp("", "hublab-e22-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "serving.hli")
	if err := index.Save(path, idx, hub.ContainerOptions{}); err != nil {
		return err
	}
	good, err := os.ReadFile(path)
	if err != nil {
		return err
	}

	// Pre-storm truth: a fixed sample of exact answers.
	rng := rand.New(rand.NewSource(22))
	const nSample = 2000
	sample := make([][2]graph.NodeID, nSample)
	truth := make([]graph.Weight, nSample)
	for i := range sample {
		sample[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(10000)), graph.NodeID(rng.Intn(10000))}
		truth[i] = idx.Distance(sample[i][0], sample[i][1])
	}

	view, err := index.LoadMmap(path)
	if err != nil {
		return err
	}
	srv := server.New(view, server.Options{
		Shards:       4,
		QueueDepth:   32,
		OwnIndex:     true,
		QueryTimeout: 250 * time.Millisecond,
	})
	defer srv.Close()

	// panic:every=24 over ~(clients*perClient)/batchSize group serves
	// guarantees hundreds of contained panics; the delay trigger adds
	// latency jitter so groups and swaps interleave differently each
	// wall-clock run while the panic schedule stays deterministic.
	const spec = "server.worker:panic:every=24;server.worker:delay:p=0.02,d=500us"
	if err := faultinject.Enable(spec, 22); err != nil {
		return err
	}
	defer faultinject.Disable()

	const clients = 8
	const perClient = 2500
	var served, faulted, overloaded, timeouts, escaped, unexpected atomic.Uint64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					escaped.Add(1)
				}
			}()
			prng := rand.New(rand.NewSource(int64(1000 + c)))
			for i := 0; i < perClient; i++ {
				u := graph.NodeID(prng.Intn(10000))
				v := graph.NodeID(prng.Intn(10000))
				_, err := srv.TryQuery(fmt.Sprintf("chaos-%d", c), u, v)
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, server.ErrBackendFault):
					faulted.Add(1)
				case errors.Is(err, server.ErrOverloaded):
					overloaded.Add(1)
				case errors.Is(err, server.ErrTimeout):
					timeouts.Add(1)
				default:
					unexpected.Add(1)
				}
			}
		}(c)
	}

	// The reload storm, concurrent with the query storm: odd rounds tear
	// the container (rename — never in-place, the live mmap holds the old
	// inode) and must quarantine; even rounds swap a fresh valid view in.
	var goodSwaps, corruptReloads int
	reloadErr := func() error {
		for round := 0; round < 30; round++ {
			if round%2 == 1 {
				torn := good[:len(good)/2]
				tmp := path + ".next"
				if err := os.WriteFile(tmp, torn, 0o644); err != nil {
					return err
				}
				if err := os.Rename(tmp, path); err != nil {
					return err
				}
				_, lerr := index.LoadMmap(path)
				if lerr == nil {
					return fmt.Errorf("e22: torn container loaded successfully")
				}
				if !index.IsCorrupt(lerr) {
					return fmt.Errorf("e22: torn container error not classified corrupt: %w", lerr)
				}
				if _, qerr := index.Quarantine(path); qerr != nil {
					return qerr
				}
				corruptReloads++
				// Put the good container back, the way hubgen would: write
				// aside, atomic rename.
				if err := os.WriteFile(tmp, good, 0o644); err != nil {
					return err
				}
				if err := os.Rename(tmp, path); err != nil {
					return err
				}
			} else {
				next, lerr := index.LoadMmap(path)
				if lerr != nil {
					return fmt.Errorf("e22: valid reload round %d: %w", round, lerr)
				}
				srv.SwapRetire(next)
				goodSwaps++
			}
			time.Sleep(2 * time.Millisecond)
		}
		return nil
	}()
	wg.Wait()
	elapsed := time.Since(start)
	faultinject.Disable()
	if reloadErr != nil {
		return reloadErr
	}

	st := srv.Stats()
	// The server counts each contained worker panic exactly once; the
	// registry's Fired() can't be used here (it sums the delay trigger at
	// the same point, and Disable above already cleared it).
	panics := st.Panics
	submitted := uint64(clients * perClient)
	resolved := served.Load() + faulted.Load() + overloaded.Load() + timeouts.Load()

	fmt.Printf("  storm: %d clients x %d queries in %v (%.0f req/s goodput on served)\n",
		clients, perClient, elapsed.Round(time.Millisecond),
		float64(served.Load())/elapsed.Seconds())
	fmt.Printf("  outcomes: served %d, faulted %d, overloaded %d, timeouts %d (resolved %d/%d)\n",
		served.Load(), faulted.Load(), overloaded.Load(), timeouts.Load(), resolved, submitted)
	fmt.Printf("  faults: %d worker panics contained (%d requests faulted, %d timed out), health now %q\n",
		panics, st.Faulted, st.Timeouts, st.Health)
	fmt.Printf("  reloads: %d valid swaps, %d corrupt containers quarantined\n", goodSwaps, corruptReloads)

	// The assertions that make this an experiment worth running in CI.
	if escaped.Load() != 0 {
		return fmt.Errorf("e22: %d panics escaped to client goroutines", escaped.Load())
	}
	if unexpected.Load() != 0 {
		return fmt.Errorf("e22: %d requests resolved with unexpected errors", unexpected.Load())
	}
	if resolved != submitted {
		return fmt.Errorf("e22: resolved %d of %d submitted requests", resolved, submitted)
	}
	if got := st.Served + st.Rejected + st.Shed + st.Faulted + st.Timeouts; got != submitted {
		return fmt.Errorf("e22: server accounting %d != %d submitted (served=%d rejected=%d shed=%d faulted=%d timeouts=%d)",
			got, submitted, st.Served, st.Rejected, st.Shed, st.Faulted, st.Timeouts)
	}
	if panics < 100 {
		return fmt.Errorf("e22: only %d injected panics, want >= 100", panics)
	}
	if corruptReloads < 10 {
		return fmt.Errorf("e22: only %d corrupt reloads, want >= 10", corruptReloads)
	}
	for i, p := range sample {
		if d, err := srv.TryQuery("e22-after", p[0], p[1]); err != nil || d != truth[i] {
			return fmt.Errorf("e22: post-storm answer (%d,%d) = %d (%v), want %d", p[0], p[1], d, err, truth[i])
		}
	}
	fmt.Printf("  answers: %d-pair pre-storm sample byte-identical after the storm\n", nSample)
	fmt.Println("  (the service degrades to typed errors under injected faults and corrupt")
	fmt.Println("   containers, never to a crash or a wrong answer)")
	return nil
}

// e23 measures the million-vertex build pipeline (PR 7): parallel PLL
// throughput and speedup against the sequential reference, the
// byte-equality invariant that makes the parallel engine a drop-in, and
// the peak-memory difference between streaming container emission and
// the freeze-then-write path.
//
// The speedup table is honest about the machine it ran on (worker count
// beyond physical cores buys nothing); byte-equality, however, must
// hold everywhere, and the experiment fails — not just reports — when a
// parallel container differs from the sequential one.
func e23() error {
	fmt.Printf("machine: %d CPU core(s) visible to the runtime\n\n", runtime.NumCPU())

	weightedGnm := func(n, m int, seed int64) (*graph.Graph, error) {
		ga, err := gen.Gnm(n, m, seed)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed + 1))
		b := graph.NewBuilder(ga.NumNodes(), ga.NumEdges())
		for _, e := range ga.Edges() {
			b.AddWeightedEdge(e.U, e.V, 1+graph.Weight(rng.Intn(9)))
		}
		return b.Build()
	}
	graphs := []struct {
		name string
		g    *graph.Graph
		err  error
	}{}
	if g, err := weightedGnm(10000, 18000, 23); true {
		graphs = append(graphs, struct {
			name string
			g    *graph.Graph
			err  error
		}{"gnm10k-w", g, err})
	}
	if g, err := gen.RoadLike(100, 100, 8, 23); true {
		graphs = append(graphs, struct {
			name string
			g    *graph.Graph
			err  error
		}{"road100x100", g, err})
	}

	containerOf := func(l *hub.Labeling) ([]byte, error) {
		var buf bytes.Buffer
		if _, err := l.Freeze().WriteContainer(&buf, hub.ContainerOptions{}); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}

	fmt.Println("graph        workers   build-s   labels/sec   speedup   container")
	for _, tc := range graphs {
		if tc.err != nil {
			return tc.err
		}
		var (
			seqSecs  float64
			seqBytes []byte
		)
		for _, workers := range []int{1, 2, 4, 8} {
			start := time.Now()
			l, err := pll.Build(tc.g, pll.Options{Workers: workers})
			if err != nil {
				return err
			}
			secs := time.Since(start).Seconds()
			stats := l.ComputeStats()
			c, err := containerOf(l)
			if err != nil {
				return err
			}
			status := "=="
			if workers == 1 {
				seqSecs, seqBytes = secs, c
				status = "(reference)"
			} else if !bytes.Equal(c, seqBytes) {
				return fmt.Errorf("E23: %s workers=%d container differs from sequential", tc.name, workers)
			}
			fmt.Printf("%-12s %7d %9.2f %12.0f %8.2fx   %s\n",
				tc.name, workers, secs, float64(stats.Total)/secs, seqSecs/secs, status)
		}
	}

	// Peak-heap table: the same build saved through the streaming writer
	// (no flat copy ever exists) vs frozen first. The sampler polls the
	// live-heap gauge; what matters is the delta over the baseline —
	// ~0.3× of a labeling copy for streaming (the container's transient
	// column buffers) vs ~1× for freeze (flat arrays duplicate the
	// slice-of-slices form before a byte is written).
	fmt.Println()
	g, err := gen.BalancedBinaryTree(1 << 17)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "hublab-e23-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	sampleHeapDuring := func(fn func() error) (peakMB float64, err error) {
		runtime.GC()
		var peak uint64
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			var ms runtime.MemStats
			for {
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
			}
		}()
		err = fn()
		close(stop)
		<-done
		return float64(peak) / (1 << 20), err
	}

	baseline := func(l *hub.Labeling) float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		_ = l // keep the labeling reachable across the GC above
		return float64(ms.HeapAlloc) / (1 << 20)
	}

	fmt.Println("save path    n        labels     baseline-MB   peak-MB   overhead")
	for _, mode := range []string{"streaming", "freeze"} {
		l, err := pll.BuildUnfrozen(g, pll.Options{})
		if err != nil {
			return err
		}
		stats := l.ComputeStats()
		base := baseline(l)
		path := filepath.Join(dir, mode+".hli")
		peak, err := sampleHeapDuring(func() error {
			if mode == "streaming" {
				return index.SaveStreaming(path, l, hub.ContainerOptions{})
			}
			return index.Save(path, index.NewHubLabelsFrom(l), hub.ContainerOptions{})
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %-8d %-10d %11.1f %9.1f %8.2fx\n",
			mode, g.NumNodes(), stats.Total, base, peak, peak/base)
	}
	fmt.Println("\n(byte-equality of parallel vs sequential containers is also pinned")
	fmt.Println(" per-family by TestParallelBuildMatchesSequential under -race)")
	return nil
}

// --- E26: fleet goodput and shed sharing under flood --------------------

// fleetClient is one load generator's outcome ledger in E26.
type fleetClient struct {
	attempts atomic.Uint64
	served   atomic.Uint64
}

// e26Flood drives closed-loop 64-query waves at one replica's binary
// door over a raw connection under the given client identity, counting
// per-query outcomes into fc/busy, until stop closes. Transport errors
// end the goroutine — under a healthy fleet they mean the experiment is
// tearing down.
func e26Flood(addr, name string, stop <-chan struct{}, wg *sync.WaitGroup, fc *fleetClient, busy *atomic.Uint64) {
	defer wg.Done()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	br := bufio.NewReader(conn)
	hello, err := wire.AppendHello(nil, name)
	if err != nil {
		return
	}
	if _, err := bw.Write(hello); err != nil {
		return
	}
	const batch = 64
	qs := make([]wire.Query, batch)
	kinds := make([]uint8, batch)
	for i := range qs {
		qs[i] = wire.Query{Kind: wire.QDist, U: 0, V: 1}
		kinds[i] = wire.QDist
	}
	rs := make([]wire.Result, 0, batch)
	var frame, rbuf []byte
	var id uint64
	writeWave := func() error {
		id++
		var err error
		if frame, err = wire.AppendRequest(frame[:0], id, qs); err != nil {
			return err
		}
		fc.attempts.Add(batch)
		if _, err := bw.Write(frame); err != nil {
			return err
		}
		return bw.Flush()
	}
	// Keep two waves outstanding: the next frame is already buffered at
	// the door when the current wave completes, so the replica sees a
	// continuous demand stream instead of a round-trip bubble per wave.
	if err := writeWave(); err != nil {
		return
	}
	for {
		select {
		case <-stop:
			return
		default:
		}
		if err := writeWave(); err != nil {
			return
		}
		kind, payload, err := wire.ReadFrame(br, &rbuf, 0)
		if err != nil || kind != wire.FrameReply {
			return
		}
		_, out, err := wire.ParseReply(payload, kinds, rs[:0])
		if err != nil {
			return
		}
		for _, r := range out {
			switch r.Status {
			case uint8(wire.StatusOK):
				fc.served.Add(1)
			case uint8(wire.StatusOverloaded):
				busy.Add(1)
			}
		}
	}
}

// e26: a 3-replica fleet of synthetic-latency
// servers behind binary doors with gossiped admission state, loaded to
// ~4x its aggregate capacity by one flooder while ten polite clients
// pace at half the aggregate. Gates: total fleet goodput stays at or
// above 0.9x the calibrated aggregate capacity, and a hog that floods
// only replica A is rejected by replica B — which never saw the hog —
// once A's verdict gossips over.
func e26() error {
	const (
		// 2ms of synthetic service keeps the experiment sleep-bound
		// rather than CPU-bound, so it stays meaningful on a small (even
		// single-core) box where framing and bookkeeping would otherwise
		// eat into the capacity being measured.
		svc    = 2 * time.Millisecond
		shards = 2
		queue  = 16
		nNodes = 3
		nLight = 10
		// Raw flood connections per replica: with two 64-query waves
		// outstanding per connection, demand comfortably outstrips the
		// shards x queue slots.
		floodConns = 2
		warmup     = 500 * time.Millisecond
		measured   = 1500 * time.Millisecond
	)
	// Calibrate one replica's capacity end to end: the same server
	// shape behind a real binary door, saturated by the same raw wave
	// generator the flood phase uses — so the baseline pays the same
	// framing, parsing and door bookkeeping as the fleet, and the
	// goodput ratio compares like with like (nominal shards/svc would
	// be optimistic twice over). Best of several short windows: a
	// scheduler hiccup during one window understates what the replica
	// can sustain, and every later pacing rate and gate hangs off this
	// figure.
	cal := server.New(e19Index(svc), server.Options{Shards: shards, QueueDepth: queue})
	calDoor := netserve.New(cal, netserve.Options{})
	calLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() {
		if err := calDoor.Serve(calLn); err != nil && !errors.Is(err, net.ErrClosed) {
			log.Printf("e26: calibration door: %v", err)
		}
	}()
	calStop := make(chan struct{})
	var calWG sync.WaitGroup
	calLedger := &fleetClient{}
	var calBusy atomic.Uint64
	for c := 0; c < floodConns; c++ {
		calWG.Add(1)
		go e26Flood(calLn.Addr().String(), "cal", calStop, &calWG, calLedger, &calBusy)
	}
	nominal := float64(shards) * float64(time.Second) / float64(svc)
	calDur := 150 * time.Millisecond
	var capacity float64
	for w := 0; w < 4; w++ {
		before := cal.Stats().Served
		time.Sleep(calDur)
		if c := float64(cal.Stats().Served-before) / calDur.Seconds(); c > capacity {
			capacity = c
		}
		if capacity >= 0.7*nominal {
			break
		}
	}
	close(calStop)
	calWG.Wait()
	calDoor.Close()
	cal.Close()
	if capacity < 0.1*nominal {
		return fmt.Errorf("e26: capacity calibration measured %.0f q/s against a %.0f q/s nominal — box too noisy to run the fleet experiment", capacity, nominal)
	}
	aggregate := nNodes * capacity
	fmt.Printf("  %d-replica fleet, %v/query x %d shards, queue %d: %.0f q/s per replica, %.0f aggregate\n",
		nNodes, svc, shards, queue, capacity, aggregate)

	// The fleet: each replica is a server + binary door + gossiper, the
	// wiring of `hubserve -binary -peers`. Default admission options
	// share Seed 0, so bucket geometry lines up for the max-merge.
	type replica struct {
		srv  *server.Server
		door *netserve.Door
	}
	reps := make([]*replica, nNodes)
	addrs := make([]string, nNodes)
	for i := range reps {
		srv := server.New(e19Index(svc), server.Options{
			Shards:     shards,
			QueueDepth: queue,
			Admission:  &flowctl.Options{},
		})
		defer srv.Close()
		door := netserve.New(srv, netserve.Options{})
		defer door.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go func() {
			if err := door.Serve(ln); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("e26: fleet door: %v", err)
			}
		}()
		reps[i] = &replica{srv: srv, door: door}
		addrs[i] = ln.Addr().String()
	}
	stopGossip := make(chan struct{})
	defer close(stopGossip)
	for i, r := range reps {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		g := netserve.NewGossiper(r.srv.AdmissionController(), peers, 20*time.Millisecond)
		go g.Run(stopGossip)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Ten polite clients jointly pace at half the aggregate capacity.
	// Each spreads its rate over several phase-offset workers so a
	// query's queue wait under overload (up to queue x svc) stays below
	// the per-worker interval — a single blocking worker would sag the
	// offered rate instead of holding the pace.
	const politeW = 8
	polite := make([]*fleetClient, nLight)
	interval := time.Duration(float64(2*nLight) / aggregate * float64(time.Second))
	perWorker := interval * politeW
	for i := range polite {
		cl, err := hubclient.New(hubclient.Options{Replicas: addrs, Name: fmt.Sprintf("polite-%d", i), Timeout: 5 * time.Second})
		if err != nil {
			return err
		}
		defer cl.Close()
		fc := &fleetClient{}
		polite[i] = fc
		for w := 0; w < politeW; w++ {
			wg.Add(1)
			go func(i, w int) {
				defer wg.Done()
				phase := perWorker * time.Duration(i*politeW+w) / time.Duration(nLight*politeW)
				select {
				case <-stop:
					return
				case <-time.After(phase):
				}
				next := time.Now()
				for {
					select {
					case <-stop:
						return
					default:
					}
					fc.attempts.Add(1)
					if _, err := cl.Distance(0, 1); err == nil {
						fc.served.Add(1)
					}
					next = next.Add(perWorker)
					if d := time.Until(next); d > 0 {
						select {
						case <-stop:
							return
						case <-time.After(d):
						}
					} else {
						next = time.Now()
					}
				}
			}(i, w)
		}
	}

	// The flooder offers whatever the fleet will take: floodConns raw
	// connections per replica, each driving closed-loop 64-query waves
	// under one shared identity. Full waves are the point — every wave
	// claims queue slots in bulk at the door, so the flood's pressure
	// reaches the shard queues instead of trickling in as small frames.
	flooder := &fleetClient{}
	var floodBusy atomic.Uint64
	for i := 0; i < nNodes; i++ {
		for c := 0; c < floodConns; c++ {
			wg.Add(1)
			go e26Flood(addrs[i], "flooder", stop, &wg, flooder, &floodBusy)
		}
	}

	// Warm past the controller transient, then measure a steady-state
	// window by snapshotting server and client counters around it.
	time.Sleep(warmup)
	served0 := make([]uint64, nNodes)
	var shed0, rej0 uint64
	for i, r := range reps {
		st := r.srv.Stats()
		served0[i] = st.Served
		shed0 += st.Shed
		rej0 += st.Rejected
	}
	snap := func(fcs []*fleetClient) (att, srvd uint64) {
		for _, fc := range fcs {
			att += fc.attempts.Load()
			srvd += fc.served.Load()
		}
		return
	}
	pAtt0, pSrv0 := snap(polite)
	fAtt0, fSrv0 := snap([]*fleetClient{flooder})
	time.Sleep(measured)
	var goodput float64
	for i, r := range reps {
		goodput += float64(r.srv.Stats().Served - served0[i])
	}
	goodput /= measured.Seconds()
	var shed, rej uint64
	for _, r := range reps {
		st := r.srv.Stats()
		shed += st.Shed
		rej += st.Rejected
	}
	shed -= shed0
	rej -= rej0
	pAtt, pSrv := snap(polite)
	fAtt, fSrv := snap([]*fleetClient{flooder})
	close(stop)
	wg.Wait()

	sec := measured.Seconds()
	politeOff := float64(pAtt-pAtt0) / sec
	politeGot := float64(pSrv-pSrv0) / sec
	floodOff := float64(fAtt-fAtt0) / sec
	floodGot := float64(fSrv-fSrv0) / sec
	fmt.Printf("  client       offered-q/s  served-q/s    sat\n")
	fmt.Printf("  polite x%-2d   %11.0f  %10.0f  %5.2f\n", nLight, politeOff, politeGot, politeGot/math.Max(politeOff, 1))
	fmt.Printf("  flooder      %11.0f  %10.0f  %5.2f   (%d shed as busy)\n",
		floodOff, floodGot, floodGot/math.Max(floodOff, 1), floodBusy.Load())
	fmt.Printf("  offered %.1fx aggregate; fleet goodput %.0f q/s = %.2fx aggregate (shed %d, rejected %d)\n",
		(politeOff+floodOff)/aggregate, goodput, goodput/aggregate, shed, rej)
	if goodput < 0.9*aggregate {
		return fmt.Errorf("e26: fleet goodput %.2fx aggregate capacity, below the 0.9x acceptance bar", goodput/aggregate)
	}

	// Shed sharing: a hog floods replica A only. Its drop probability
	// must cross to B and C — replicas that never saw a hog request —
	// through the gossip max-merge, and B must then reject the hog from
	// a cold start while serving a bystander.
	hogStop := make(chan struct{})
	var hogWG sync.WaitGroup
	hogLedger := &fleetClient{}
	var hogBusy atomic.Uint64
	// More in-flight hog queries than the replica has queue slots
	// (shards x queue), or its queues can never overflow and no verdict
	// forms: 4 connections x 64-query waves = 256 against 64 slots.
	for c := 0; c < floodConns; c++ {
		hogWG.Add(1)
		go e26Flood(addrs[0], "hog", hogStop, &hogWG, hogLedger, &hogBusy)
	}
	// Sample A's verdict while the hog still floods: once the flood
	// stops, every hog query A drains decays the probability back down
	// (OnServed), so a post-stop read would understate the verdict that
	// actually gossiped.
	ctlA := reps[0].srv.AdmissionController()
	deadline := time.Now().Add(5 * time.Second)
	pA := ctlA.Probability("hog")
	for pA < 0.3 {
		if time.Now().After(deadline) {
			close(hogStop)
			hogWG.Wait()
			return fmt.Errorf("e26: hog never throttled on A (P(drop)=%.2f)", pA)
		}
		time.Sleep(5 * time.Millisecond)
		pA = ctlA.Probability("hog")
	}
	close(hogStop)
	hogWG.Wait()
	deadline = time.Now().Add(5 * time.Second)
	for {
		pB := reps[1].srv.AdmissionController().Probability("hog")
		pC := reps[2].srv.AdmissionController().Probability("hog")
		if pB >= 0.3 && pC >= 0.3 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("e26: hog verdict never gossiped to peers (A=%.2f B=%.2f C=%.2f)", pA, pB, pC)
		}
		time.Sleep(5 * time.Millisecond)
	}
	pB := reps[1].srv.AdmissionController().Probability("hog")
	pC := reps[2].srv.AdmissionController().Probability("hog")

	hogB, err := hubclient.New(hubclient.Options{Replicas: addrs[1:2], Name: "hog", Timeout: 5 * time.Second})
	if err != nil {
		return err
	}
	defer hogB.Close()
	busy := 0
	for i := 0; i < 100; i++ {
		if _, err := hogB.Distance(0, 1); errors.Is(err, wire.ErrOverloaded) {
			busy++
		}
	}
	if busy == 0 {
		return fmt.Errorf("e26: hog unthrottled on B despite gossiped P(drop) %.2f", pB)
	}
	bystander, err := hubclient.New(hubclient.Options{Replicas: addrs[1:2], Name: "bystander", Timeout: 5 * time.Second})
	if err != nil {
		return err
	}
	defer bystander.Close()
	if _, err := bystander.Distance(0, 1); err != nil {
		return fmt.Errorf("e26: bystander on B rejected alongside the hog: %v", err)
	}
	fmt.Printf("  shed sharing: hog flooded A only -> P(drop) A=%.2f B=%.2f C=%.2f; B rejected %d/100 hog probes, served the bystander\n",
		pA, pB, pC, busy)
	return nil
}
