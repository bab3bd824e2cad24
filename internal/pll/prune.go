package pll

import (
	"hublab/internal/graph"
	"hublab/internal/hub"
)

// This file holds the pruning and parent logic shared by the sequential
// builders (pll.go) and the batched parallel engine (parallel.go). Both
// paths MUST go through these helpers: the parallel build's byte-equality
// guarantee rests on every path applying the exact same prune predicate
// and the exact same (order-canonical, traversal-independent) parent
// choice. The one path that does not call canonicalPred — the sequential
// BFS, which picks the parent while relaxing — computes the same minimum
// over the same set (see buildUnweighted).

// Certified reports whether the labels of a visited vertex, intersected
// with the current root's label (rootDist maps hub id → distance from the
// root, Infinity when absent), already certify a root distance ≤ bound.
// This is the PLL prune predicate: when it holds the vertex gains no entry
// for this root and its search subtree is cut off. The exact builders pass
// the vertex's tentative distance du as the bound; approx.SlackPLL passes
// du+Slack.
//
// The scan is branch-free per entry — it never asks whether the hub is in
// the root's label, a coin flip the branch predictor cannot learn — and
// rests on two invariants (see graph.Infinity):
//
//  1. bound < Infinity, so an absent hub (rootDist = Infinity) can never
//     satisfy Infinity + d ≤ bound;
//  2. every rootDist value and every label distance is in [0, Infinity],
//     so their sum is at most 2·Infinity = 2³⁰ and cannot wrap int32.
func Certified(label []hub.Hub, rootDist []graph.Weight, bound graph.Weight) bool {
	for _, h := range label {
		if rootDist[h.Node]+h.Dist <= bound {
			return true
		}
	}
	return false
}

// canonicalPred returns the order-canonical parent (next hop toward the
// current root) of a labeled vertex v at distance dv: among the neighbors
// u that lie on a shortest root–v path (dist[u]+w(u,v) == dv) and were
// themselves labeled by this root (stamp[u] == cur), prefer those that
// make strict distance progress, then take the minimum id. The choice
// depends only on the graph and the set of labeled vertices — never on
// traversal order — which is what lets the parallel builder reproduce the
// sequential parent column bit for bit.
//
// Such a neighbor always exists: the last edge of any shortest root–v
// path ends at a vertex that is itself on a shortest path, and every
// vertex on a shortest path to a labeled vertex is labeled (pruning it
// would prune v too). Only a zero-weight last edge can force the
// non-strict fallback, matching the documented hub.ErrPathUnpack
// limitation for zero-weight graphs.
func canonicalPred(g *graph.Graph, v graph.NodeID, dv graph.Weight, dist []graph.Weight, stamp []int32, cur int32) graph.NodeID {
	best := graph.NodeID(-1)
	bestStrict := false
	ws := g.NeighborWeights(v)
	for i, u := range g.Neighbors(v) {
		if stamp[u] != cur {
			continue
		}
		w := graph.Weight(1)
		if ws != nil {
			w = ws[i]
		}
		if dist[u]+w != dv {
			continue
		}
		strict := dist[u] < dv
		if best < 0 || (strict && !bestStrict) || (strict == bestStrict && u < best) {
			best, bestStrict = u, strict
		}
	}
	return best
}

// appendCanonicalPreds appends one parent per vertex the current root just
// labeled, in `labeled` order: -1 for the root's self entry, the canonical
// predecessor otherwise. dist must hold the true root distance of every
// labeled vertex and stamp[v] == cur exactly for the labeled set. Only the
// sequential Dijkstra builder calls it (buildWeighted says why).
func appendCanonicalPreds(g *graph.Graph, root graph.NodeID, labeled []graph.NodeID, dist []graph.Weight, stamp []int32, cur int32, parents [][]graph.NodeID) {
	for _, v := range labeled {
		if v == root {
			parents[v] = append(parents[v], -1)
			continue
		}
		parents[v] = append(parents[v], canonicalPred(g, v, dist[v], dist, stamp, cur))
	}
}
