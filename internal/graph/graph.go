// Package graph provides immutable compressed-sparse-row (CSR) graph
// representations used throughout hublab.
//
// Graphs are undirected unless stated otherwise, may carry non-negative
// integer edge weights, and are identified by dense int32 vertex ids in
// [0, N). The zero value of Builder is ready to use.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID identifies a vertex. Valid ids are dense in [0, Graph.NumNodes()).
type NodeID = int32

// Weight is a non-negative integer edge weight or path length.
type Weight = int32

// Infinity is the sentinel distance for unreachable vertices. It is chosen
// well below the int32 overflow threshold so that Infinity+Infinity does not
// wrap around.
//
// The label-scan kernels lean on two invariants instead of testing for the
// sentinel per entry (pll.Certified is the main one): every real distance
// is < Infinity, and a sum of two values that are each ≤ Infinity is
// ≤ 2³⁰ < 2³¹, so "Infinity + d ≤ finite" is simply false and never wraps.
const Infinity Weight = 1 << 29

var (
	// ErrVertexRange reports an out-of-range vertex id.
	ErrVertexRange = errors.New("graph: vertex id out of range")
	// ErrNegativeWeight reports a negative edge weight.
	ErrNegativeWeight = errors.New("graph: negative edge weight")
	// ErrSelfLoop reports a self loop, which hub labelings do not support.
	ErrSelfLoop = errors.New("graph: self loop")
)

// Edge is an undirected edge with an optional weight (1 for unweighted use).
type Edge struct {
	U, V NodeID
	W    Weight
}

// Graph is an immutable undirected graph in CSR form. Construct via Builder
// or the helper constructors in this package.
type Graph struct {
	offsets []int32  // len n+1
	targets []NodeID // len 2m
	weights []Weight // len 2m, nil iff every edge has weight 1
	m       int      // number of undirected edges
}

// NumNodes returns the number of vertices.
func (g *Graph) NumNodes() int { return len(g.offsets) - 1 }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.m }

// Weighted reports whether the graph carries explicit edge weights.
func (g *Graph) Weighted() bool { return g.weights != nil }

// Degree returns the degree of v.
func (g *Graph) Degree(v NodeID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the adjacency list of v sorted by target id. The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.targets[g.offsets[v]:g.offsets[v+1]]
}

// NeighborWeights returns the weights parallel to Neighbors(v). It returns
// nil for unweighted graphs (every weight is 1). The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) NeighborWeights(v NodeID) []Weight {
	if g.weights == nil {
		return nil
	}
	return g.weights[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether the undirected edge {u,v} exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.EdgeWeight(u, v)
	return ok
}

// EdgeWeight returns the weight of edge {u,v} if present.
func (g *Graph) EdgeWeight(u, v NodeID) (Weight, bool) {
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	if i == len(adj) || adj[i] != v {
		return 0, false
	}
	if g.weights == nil {
		return 1, true
	}
	return g.weights[int(g.offsets[u])+i], true
}

// MaxDegree returns the maximum vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(NodeID(v)); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the average vertex degree.
func (g *Graph) AvgDegree() float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(n)
}

// TotalWeight returns the sum of all edge weights (m for unweighted graphs).
func (g *Graph) TotalWeight() int64 {
	if g.weights == nil {
		return int64(g.m)
	}
	var sum int64
	for _, w := range g.weights {
		sum += int64(w)
	}
	return sum / 2
}

// Edges returns all undirected edges with U < V, sorted by (U, V).
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.m)
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		adj := g.Neighbors(u)
		ws := g.NeighborWeights(u)
		for i, v := range adj {
			if u < v {
				w := Weight(1)
				if ws != nil {
					w = ws[i]
				}
				edges = append(edges, Edge{U: u, V: v, W: w})
			}
		}
	}
	return edges
}

// Builder accumulates edges and produces an immutable Graph. The zero value
// is ready to use; set N in advance with Grow for isolated trailing vertices.
type Builder struct {
	edges []Edge
	n     int
	err   error
}

// NewBuilder returns a builder pre-sized for n vertices and capacity for m
// edges.
func NewBuilder(n, m int) *Builder {
	return &Builder{edges: make([]Edge, 0, m), n: n}
}

// Grow ensures the built graph has at least n vertices.
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// NumNodes returns the current number of vertices the built graph will have.
func (b *Builder) NumNodes() int { return b.n }

// AddEdge records the undirected unit-weight edge {u,v}.
func (b *Builder) AddEdge(u, v NodeID) { b.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge records the undirected edge {u,v} with weight w. Errors
// are deferred and reported by Build.
func (b *Builder) AddWeightedEdge(u, v NodeID, w Weight) {
	if b.err != nil {
		return
	}
	switch {
	case u < 0 || v < 0:
		b.err = fmt.Errorf("%w: {%d,%d}", ErrVertexRange, u, v)
		return
	case u == v:
		b.err = fmt.Errorf("%w: vertex %d", ErrSelfLoop, u)
		return
	case w < 0:
		b.err = fmt.Errorf("%w: edge {%d,%d} weight %d", ErrNegativeWeight, u, v, w)
		return
	}
	if int(u) >= b.n {
		b.n = int(u) + 1
	}
	if int(v) >= b.n {
		b.n = int(v) + 1
	}
	b.edges = append(b.edges, Edge{U: u, V: v, W: w})
}

// Build produces the immutable graph. Parallel edges are merged keeping the
// minimum weight. The builder may be reused afterwards.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := b.n
	deg := make([]int32, n+1)
	for _, e := range b.edges {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	offsets := make([]int32, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + deg[i+1]
	}
	targets := make([]NodeID, offsets[n])
	weights := make([]Weight, offsets[n])
	next := make([]int32, n)
	copy(next, offsets[:n])
	weighted := false
	for _, e := range b.edges {
		targets[next[e.U]] = e.V
		weights[next[e.U]] = e.W
		next[e.U]++
		targets[next[e.V]] = e.U
		weights[next[e.V]] = e.W
		next[e.V]++
		if e.W != 1 {
			weighted = true
		}
	}
	g := &Graph{offsets: offsets, targets: targets, weights: weights}
	g.sortAdjacency()
	g.dedupe()
	if !weighted {
		g.weights = nil
	}
	g.m = len(g.targets) / 2
	return g, nil
}

// MustBuild is Build for static program data; it panics on error and is
// intended for tests and internal constructions with validated inputs.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func (g *Graph) sortAdjacency() {
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		adj := adjSorter{t: g.targets[lo:hi], w: g.weights[lo:hi]}
		sort.Sort(adj)
	}
}

// dedupe merges parallel edges in the sorted adjacency arrays keeping the
// minimum weight, rebuilding offsets in place.
func (g *Graph) dedupe() {
	n := g.NumNodes()
	newOffsets := make([]int32, n+1)
	out := int32(0)
	for v := 0; v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		newOffsets[v] = out
		prev := NodeID(-1)
		for i := lo; i < hi; i++ {
			t, w := g.targets[i], g.weights[i]
			if t == prev {
				if w < g.weights[out-1] {
					g.weights[out-1] = w
				}
				continue
			}
			g.targets[out] = t
			g.weights[out] = w
			prev = t
			out++
		}
	}
	newOffsets[n] = out
	g.offsets = newOffsets
	g.targets = g.targets[:out]
	g.weights = g.weights[:out]
}

type adjSorter struct {
	t []NodeID
	w []Weight
}

func (a adjSorter) Len() int           { return len(a.t) }
func (a adjSorter) Less(i, j int) bool { return a.t[i] < a.t[j] }
func (a adjSorter) Swap(i, j int) {
	a.t[i], a.t[j] = a.t[j], a.t[i]
	a.w[i], a.w[j] = a.w[j], a.w[i]
}

// FromEdges builds a graph over n vertices from an edge list.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n, len(edges))
	for _, e := range edges {
		b.AddWeightedEdge(e.U, e.V, e.W)
	}
	return b.Build()
}
