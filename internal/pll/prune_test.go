package pll

import (
	"math/rand"
	"reflect"
	"testing"

	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/hub"
)

// certifiedGuarded is the prune predicate as it stood before the scan went
// branch-free: it asks first whether the hub is in the root's label. It
// survives only here, as the reference Certified is checked and timed
// against.
func certifiedGuarded(label []hub.Hub, rootDist []graph.Weight, du graph.Weight) bool {
	for _, h := range label {
		if rd := rootDist[h.Node]; rd < graph.Infinity && rd+h.Dist <= du {
			return true
		}
	}
	return false
}

// TestCertifiedMatchesGuardedReference checks the branch-free predicate
// against the guarded one over random labels, rootDist arrays with
// Infinity holes, and distances over the whole legal range [0, Infinity-1].
// For a fixed label and rootDist both predicates are step functions of du
// whose only steps sit at the entries' sums, so probing each sum and its
// two neighbours — plus 0, Infinity-1 and random points — decides equality
// for every du in [0, Infinity).
func TestCertifiedMatchesGuardedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	// Small, mid-range and near-Infinity values, so sums land on both
	// sides of Infinity.
	weight := func() graph.Weight {
		switch rng.Intn(3) {
		case 0:
			return graph.Weight(rng.Intn(64))
		case 1:
			return graph.Weight(rng.Int31n(int32(graph.Infinity)))
		default:
			return graph.Infinity - 1 - graph.Weight(rng.Intn(64))
		}
	}
	for trial := 0; trial < 2000; trial++ {
		hubs := 1 + rng.Intn(48)
		rootDist := make([]graph.Weight, hubs)
		for i := range rootDist {
			rootDist[i] = graph.Infinity
			if rng.Intn(2) == 0 {
				rootDist[i] = weight()
			}
		}
		label := make([]hub.Hub, rng.Intn(40))
		for i := range label {
			label[i] = hub.Hub{Node: graph.NodeID(rng.Intn(hubs)), Dist: weight()}
		}
		probes := []graph.Weight{0, 1, graph.Infinity - 1, weight(), weight()}
		for _, h := range label {
			for _, du := range []graph.Weight{rootDist[h.Node] + h.Dist - 1, rootDist[h.Node] + h.Dist, rootDist[h.Node] + h.Dist + 1} {
				if du >= 0 && du < graph.Infinity {
					probes = append(probes, du)
				}
			}
		}
		for _, du := range probes {
			if got, want := Certified(label, rootDist, du), certifiedGuarded(label, rootDist, du); got != want {
				t.Fatalf("trial %d: Certified(du=%d) = %v, guarded reference %v\nlabel %v\nrootDist %v",
					trial, du, got, want, label, rootDist)
			}
		}
	}
}

// pruneCheck is one recorded call of the prune predicate: vertex u's label
// as it stood (the first n entries of its final rank-sorted label) against
// tentative distance du.
type pruneCheck struct {
	u  graph.NodeID
	n  int32
	du graph.Weight
}

// pruneTrace is every prune check of one sequential unweighted build,
// grouped by root, plus the labels the build ended with (rank-sorted, so
// any earlier state of a label is a prefix).
type pruneTrace struct {
	labels   [][]hub.Hub
	roots    []graph.NodeID
	rootLen  []int32 // |labels[root]| when the root's search began
	checkEnd []int32 // checks[checkEnd[i-1]:checkEnd[i]] belong to roots[i]
	checks   []pruneCheck
	entries  int64 // label entries scanned, early exit included
}

// recordPruneTrace replays buildUnweighted's search loop with the guarded
// reference predicate and records each check. Its labels must equal the
// builder's (TestPruneTraceMatchesBuilder), which also shows the two
// predicates build the same labeling end to end.
func recordPruneTrace(g *graph.Graph, order []graph.NodeID) *pruneTrace {
	n := g.NumNodes()
	tr := &pruneTrace{labels: make([][]hub.Hub, n), roots: order}
	rootDist := make([]graph.Weight, n)
	dist := make([]graph.Weight, n)
	for i := range dist {
		rootDist[i], dist[i] = graph.Infinity, graph.Infinity
	}
	var queue []graph.NodeID
	for _, root := range order {
		tr.rootLen = append(tr.rootLen, int32(len(tr.labels[root])))
		for _, h := range tr.labels[root] {
			rootDist[h.Node] = h.Dist
		}
		dist[root] = 0
		queue = append(queue[:0], root)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			du := dist[u]
			tr.checks = append(tr.checks, pruneCheck{u: u, n: int32(len(tr.labels[u])), du: du})
			hit := false
			for _, h := range tr.labels[u] {
				tr.entries++
				if rd := rootDist[h.Node]; rd < graph.Infinity && rd+h.Dist <= du {
					hit = true
					break
				}
			}
			if hit {
				continue
			}
			tr.labels[u] = append(tr.labels[u], hub.Hub{Node: root, Dist: du})
			for _, v := range g.Neighbors(u) {
				if dist[v] == graph.Infinity {
					dist[v] = du + 1
					queue = append(queue, v)
				}
			}
		}
		tr.checkEnd = append(tr.checkEnd, int32(len(tr.checks)))
		for _, h := range tr.labels[root] {
			rootDist[h.Node] = graph.Infinity
		}
		for _, v := range queue {
			dist[v] = graph.Infinity
		}
	}
	return tr
}

// replay runs every recorded check through pred and returns the number of
// vertices it pruned.
func (tr *pruneTrace) replay(pred func([]hub.Hub, []graph.Weight, graph.Weight) bool) int {
	rootDist := make([]graph.Weight, len(tr.labels))
	for i := range rootDist {
		rootDist[i] = graph.Infinity
	}
	pruned, lo := 0, int32(0)
	for i, root := range tr.roots {
		rl := tr.labels[root][:tr.rootLen[i]]
		for _, h := range rl {
			rootDist[h.Node] = h.Dist
		}
		for _, c := range tr.checks[lo:tr.checkEnd[i]] {
			if pred(tr.labels[c.u][:c.n], rootDist, c.du) {
				pruned++
			}
		}
		for _, h := range rl {
			rootDist[h.Node] = graph.Infinity
		}
		lo = tr.checkEnd[i]
	}
	return pruned
}

func gnmDegreeOrder(tb testing.TB, n, m int) (*graph.Graph, []graph.NodeID) {
	tb.Helper()
	g, err := gen.Gnm(n, m, 17)
	if err != nil {
		tb.Fatal(err)
	}
	order, err := buildOrder(g, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return g, order
}

func TestPruneTraceMatchesBuilder(t *testing.T) {
	g, order := gnmDegreeOrder(t, 500, 900)
	tr := recordPruneTrace(g, order)
	labels, _ := buildUnweighted(g, order, nil)
	if !reflect.DeepEqual(tr.labels, labels) {
		t.Fatal("guarded-reference replay and buildUnweighted disagree on the labeling")
	}
	free, guarded := tr.replay(Certified), tr.replay(certifiedGuarded)
	var kept int
	for _, l := range labels {
		kept += len(l)
	}
	if free != guarded || free != len(tr.checks)-kept {
		t.Errorf("pruned %d (branch-free) / %d (guarded) of %d checks, want %d", free, guarded, len(tr.checks), len(tr.checks)-kept)
	}
}

var benchSink int

// benchPrunePredicate times one predicate over the prune trace of the
// sequential Gnm(3000, 5400, 17) build. entries/op is the number of label
// entries the scan touches — a property of the labeling, identical for
// both predicates — and ns/entry is what this ablation compares.
func benchPrunePredicate(b *testing.B, pred func([]hub.Hub, []graph.Weight, graph.Weight) bool) {
	g, order := gnmDegreeOrder(b, 3000, 5400)
	tr := recordPruneTrace(g, order)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += tr.replay(pred)
	}
	b.ReportMetric(float64(len(tr.checks)), "checks/op")
	b.ReportMetric(float64(tr.entries), "entries/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.entries), "ns/entry")
}

func BenchmarkPrunePredicateGuarded(b *testing.B)    { benchPrunePredicate(b, certifiedGuarded) }
func BenchmarkPrunePredicateBranchFree(b *testing.B) { benchPrunePredicate(b, Certified) }

// BenchmarkBuildSequentialGnm3k is the whole sequential build (searches,
// parents, assembly) on the same graph, with the same entries/op so a
// time that moves while the count does not is the kernel, not the labels.
func BenchmarkBuildSequentialGnm3k(b *testing.B) {
	g, order := gnmDegreeOrder(b, 3000, 5400)
	tr := recordPruneTrace(g, order)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := BuildUnfrozen(g, Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		benchSink += l.NumVertices()
	}
	b.ReportMetric(float64(len(tr.checks)), "checks/op")
	b.ReportMetric(float64(tr.entries), "entries/op")
}
