// Package approx implements additively-approximate hub labelings — the
// object the paper's Section 1.1 uses to assemble general-graph distance
// labels: "for each pair uv, there is w ∈ S(u) ∩ S(v) such that either w or
// some neighbor x ∈ N(w) is on a shortest uv path. This guarantees that the
// absolute error of estimation is either 0, 1 or 2", after which small
// exact correction tables restore exactness.
//
// Two constructions are provided:
//
//   - Collapse implements exactly that guarantee: every hub of an exact
//     labeling is replaced by a nearby representative from a dominating
//     set, so decoded distances satisfy d ≤ decode ≤ d+2 — provably.
//   - SlackPLL prunes landmark BFS with an additive slack; errors for
//     (root, v) pairs are at most the slack, but they can compound for
//     other pairs (the tests pin the measured distribution) — it is the
//     cheap heuristic counterpart.
package approx

import (
	"errors"
	"fmt"

	"hublab/internal/graph"
	"hublab/internal/hub"
	"hublab/internal/pll"
	"hublab/internal/sssp"
)

// ErrBadParam reports invalid options.
var ErrBadParam = errors.New("approx: invalid parameter")

// CollapseResult carries the approximate labeling and its support.
type CollapseResult struct {
	Labeling *hub.Labeling
	// Dominators is the representative set R (every vertex is in R or
	// adjacent to a member).
	Dominators []graph.NodeID
	// ExactAvg and ApproxAvg record the label-size shrinkage.
	ExactAvg, ApproxAvg float64
}

// Collapse builds a +2-error hub labeling of an unweighted graph: compute
// an exact PLL labeling, pick a greedy dominating set R with representative
// map rep: V→R satisfying dist(v, rep(v)) ≤ 1, and replace every hub w by
// rep(w) with its true distance. For any pair, the exact cover's hub w on a
// shortest path yields the common hub rep(w) with
// d(u,rep(w)) + d(rep(w),v) ≤ d(u,v) + 2.
func Collapse(g *graph.Graph) (*CollapseResult, error) {
	if g.Weighted() {
		return nil, fmt.Errorf("%w: weighted graphs not supported", ErrBadParam)
	}
	exact, err := pll.Build(g, pll.Options{})
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	rep := make([]graph.NodeID, n)
	for i := range rep {
		rep[i] = -1
	}
	// Greedy dominating set by degree: high-degree vertices dominate more.
	order, err := pll.OrderByName(g, "degree", 0)
	if err != nil {
		return nil, err
	}
	var doms []graph.NodeID
	for _, v := range order {
		if rep[v] != -1 {
			continue
		}
		doms = append(doms, v)
		rep[v] = v
		for _, u := range g.Neighbors(v) {
			if rep[u] == -1 {
				rep[u] = v
			}
		}
	}
	// True distances from every dominator.
	distFrom := make(map[graph.NodeID][]graph.Weight, len(doms))
	for _, r := range doms {
		distFrom[r] = sssp.BFS(g, r).Dist
	}
	out := hub.NewLabeling(n)
	for v := graph.NodeID(0); int(v) < n; v++ {
		for _, h := range exact.Label(v) {
			r := rep[h.Node]
			if d := distFrom[r][v]; d < graph.Infinity {
				out.Add(v, r, d)
			}
		}
	}
	out.Canonicalize()
	return &CollapseResult{
		Labeling:   out,
		Dominators: doms,
		ExactAvg:   exact.ComputeStats().Avg,
		ApproxAvg:  out.ComputeStats().Avg,
	}, nil
}

// Options configures SlackPLL.
type Options struct {
	// Slack is the pruning slack (≥ 1, and small enough that n-1+Slack
	// stays below graph.Infinity). Error is ≤ Slack for (root, v) pairs
	// and measured by VerifyError for the rest.
	Slack graph.Weight
}

// SlackPLL runs pruned landmark labeling with additive pruning slack on an
// unweighted graph, in degree order.
func SlackPLL(g *graph.Graph, opts Options) (*hub.Labeling, error) {
	if opts.Slack < 1 {
		return nil, fmt.Errorf("%w: slack=%d, want ≥ 1", ErrBadParam, opts.Slack)
	}
	if g.Weighted() {
		return nil, fmt.Errorf("%w: weighted graphs not supported", ErrBadParam)
	}
	n := g.NumNodes()
	// An unweighted search reaches du ≤ n-1, and Certified needs its bound
	// du+Slack to stay below Infinity.
	if opts.Slack >= graph.Infinity-graph.Weight(n) {
		return nil, fmt.Errorf("%w: slack=%d on %d vertices can reach Infinity (%d)", ErrBadParam, opts.Slack, n, graph.Infinity)
	}
	order, err := pll.OrderByName(g, "degree", 0)
	if err != nil {
		return nil, err
	}
	labels := make([][]hub.Hub, n)
	rootDist := make([]graph.Weight, n)
	dist := make([]graph.Weight, n)
	for i := range rootDist {
		rootDist[i] = graph.Infinity
		dist[i] = graph.Infinity
	}
	queue := make([]graph.NodeID, 0, n)
	visited := make([]graph.NodeID, 0, n)
	for _, root := range order {
		for _, h := range labels[root] {
			rootDist[h.Node] = h.Dist
		}
		dist[root] = 0
		queue = append(queue[:0], root)
		visited = append(visited[:0], root)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			du := dist[u]
			if pll.Certified(labels[u], rootDist, du+opts.Slack) {
				continue
			}
			labels[u] = append(labels[u], hub.Hub{Node: root, Dist: du})
			for _, v := range g.Neighbors(u) {
				if dist[v] == graph.Infinity {
					dist[v] = du + 1
					queue = append(queue, v)
					visited = append(visited, v)
				}
			}
		}
		for _, h := range labels[root] {
			rootDist[h.Node] = graph.Infinity
		}
		for _, v := range visited {
			dist[v] = graph.Infinity
		}
	}
	l := hub.NewLabeling(n)
	for v := range labels {
		l.SetLabel(graph.NodeID(v), labels[v])
	}
	l.Canonicalize()
	return l, nil
}

// VerifyError measures the additive error over every pair. It fails if any
// pair underestimates (hub distances are real path lengths, so that would
// indicate corruption) or loses connectivity information, and returns the
// histogram of observed errors (index = error) together with the maximum.
func VerifyError(g *graph.Graph, l *hub.Labeling) (hist []int64, maxErr graph.Weight, err error) {
	hist = make([]int64, 1)
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		r := sssp.BFS(g, u)
		for v := u; int(v) < g.NumNodes(); v++ {
			want := r.Dist[v]
			got, ok := l.Query(u, v)
			if want == graph.Infinity {
				if ok {
					return nil, 0, fmt.Errorf("approx: pair (%d,%d) decodes %d, should be unreachable", u, v, got)
				}
				continue
			}
			if !ok {
				return nil, 0, fmt.Errorf("approx: pair (%d,%d) has no common hub", u, v)
			}
			if got < want {
				return nil, 0, fmt.Errorf("approx: pair (%d,%d) underestimates: %d < %d", u, v, got, want)
			}
			e := got - want
			for int(e) >= len(hist) {
				hist = append(hist, 0)
			}
			hist[e]++
			if e > maxErr {
				maxErr = e
			}
		}
	}
	return hist, maxErr, nil
}

// CorrectionBits returns the cost, in bits per vertex, of exact correction
// tables for a maximum error of slack: each pair stores log₂(slack+1) bits
// (the paper's log₂3 for error ≤ 2), with each pair charged to one
// endpoint.
func CorrectionBits(n int, slack graph.Weight) float64 {
	if n == 0 {
		return 0
	}
	bits := 0
	for v := slack; v > 0; v >>= 1 {
		bits++
	}
	pairsPerVertex := float64(n-1) / 2
	return pairsPerVertex * float64(bits)
}
