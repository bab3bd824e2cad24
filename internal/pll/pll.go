// Package pll implements pruned landmark labeling (the 2-hop-cover
// construction of Akiba, Iwata and Yoshikawa), the standard practical hub
// labeling algorithm the paper's bounds speak to. Vertices are processed in
// a priority order; from each one a pruned BFS (or pruned Dijkstra on
// weighted graphs) adds the root as a hub exactly where the current labels
// cannot already certify the distance. The result is always a valid
// shortest-path cover, and is minimal with respect to the chosen order.
//
// Two builders produce that cover: a sequential reference (this file) and a
// batched shared-memory parallel engine (parallel.go) that processes roots
// in rank-ordered batches and commits them in rank order, so its output is
// byte-identical to the sequential one for the same order — see DESIGN.md
// ("Parallel build: the commit-order invariant") for why.
package pll

import (
	"errors"
	"fmt"

	"hublab/internal/graph"
	"hublab/internal/hub"
	"hublab/internal/par"
	"hublab/internal/pqueue"
)

// ErrBadOrder reports an order that is not a permutation of the vertices.
var ErrBadOrder = errors.New("pll: order is not a permutation of V")

// Progress carries running counters of a build, delivered to
// Options.Progress so hour-scale builds are observable.
type Progress struct {
	RootsDone int   // roots fully committed so far
	Roots     int   // total roots (= vertices)
	Labels    int64 // label entries committed so far
}

// Options configures Build.
type Options struct {
	// OrderBy selects the landmark processing order by registered name
	// (RegisterOrder; built-ins: "degree", "random", "natural",
	// "betweenness"). Empty means "degree" — hubs first at high-degree
	// vertices, the standard default; random and natural exist for
	// ablations.
	OrderBy string
	// Seed drives the seeded registry orders ("random", "betweenness").
	Seed int64
	// Custom, when non-nil, overrides OrderBy: vertices are processed in
	// the given sequence, which must be a permutation of V.
	Custom []graph.NodeID
	// Workers selects build parallelism: 0 uses the par pool default
	// (NumCPU, or the par.SetWorkers override), 1 forces the sequential
	// reference builder, ≥2 runs the batched parallel engine. Both
	// builders produce byte-identical labelings for the same order.
	Workers int
	// Progress, when non-nil, is called synchronously from the build loop
	// (after each committed batch / every few hundred sequential roots)
	// with running counters. Callers rate-limit display themselves.
	Progress func(Progress)
}

// Build computes a pruned landmark labeling of g, frozen to the flat query
// form.
func Build(g *graph.Graph, opts Options) (*hub.Labeling, error) {
	l, err := BuildUnfrozen(g, opts)
	if err != nil {
		return nil, err
	}
	l.Freeze()
	return l, nil
}

// BuildUnfrozen is Build without the final Freeze: the result is canonical
// (sorted, deduplicated labels with a parallel parent column) but carries
// no flat copy. It exists for the streaming emission path — hubgen builds
// a million-vertex labeling, streams it into a container with
// index.SaveStreaming, and never holds 2× the labeling in RAM. Freeze the
// result (or reload the container) to get the fast in-RAM query form.
func BuildUnfrozen(g *graph.Graph, opts Options) (*hub.Labeling, error) {
	order, err := buildOrder(g, opts)
	if err != nil {
		return nil, err
	}
	w := opts.Workers
	if w == 0 {
		w = par.Workers(g.NumNodes())
	}
	var labels [][]hub.Hub
	var parents [][]graph.NodeID
	if w <= 1 {
		labels, parents = buildSequential(g, order, opts.Progress)
	} else {
		labels, parents = buildParallel(g, order, w, opts.Progress)
	}
	return hub.AssembleSlicesParents(labels, parents), nil
}

func buildOrder(g *graph.Graph, opts Options) ([]graph.NodeID, error) {
	n := g.NumNodes()
	if opts.Custom != nil {
		if len(opts.Custom) != n {
			return nil, fmt.Errorf("%w: got %d vertices, want %d", ErrBadOrder, len(opts.Custom), n)
		}
		seen := make([]bool, n)
		for _, v := range opts.Custom {
			if int(v) < 0 || int(v) >= n || seen[v] {
				return nil, fmt.Errorf("%w: bad or repeated vertex %d", ErrBadOrder, v)
			}
			seen[v] = true
		}
		return opts.Custom, nil
	}
	name := opts.OrderBy
	if name == "" {
		name = "degree"
	}
	return OrderByName(g, name, opts.Seed)
}

// progressStride is how often (in roots) the sequential builder reports
// progress; the parallel engine reports per batch instead.
const progressStride = 256

func buildSequential(g *graph.Graph, order []graph.NodeID, progress func(Progress)) ([][]hub.Hub, [][]graph.NodeID) {
	if g.Weighted() {
		return buildWeighted(g, order, progress)
	}
	return buildUnweighted(g, order, progress)
}

// buildUnweighted runs one pruned BFS per root in priority order.
//
// Labels are accumulated in root-rank order; since pruning only ever
// consults labels of already-ranked roots, a temporary array holding the
// current root's distances makes each prune check O(|label|).
//
// The parent of a labeled vertex is the order-canonical one — the minimum
// id among its labeled neighbours one BFS level up, which is what
// canonicalPred returns — and not the BFS-tree predecessor: the parent
// column must be a pure function of (graph, order) for the parallel engine
// to reproduce it. It is picked while relaxing instead of in a second pass
// over every labeled vertex's neighbours: pred[v] is the minimum over the
// vertices that relaxed v from level dist[v]-1, and that is the same
// minimum over the same set, because only labeled vertices relax and every
// level d-1 vertex is dequeued before any level-d vertex is. pred needs no
// clearing — a search writes pred[v] when it first reaches v.
//
// Every vertex on a shortest path from the root to a labeled vertex is
// itself labeled — pruning it would prune the endpoint too — which is what
// makes the recorded hops unpackable into full paths.
func buildUnweighted(g *graph.Graph, order []graph.NodeID, progress func(Progress)) ([][]hub.Hub, [][]graph.NodeID) {
	n := g.NumNodes()
	labels := make([][]hub.Hub, n)
	parents := make([][]graph.NodeID, n)
	rootDist := make([]graph.Weight, n) // distances from current root's label
	for i := range rootDist {
		rootDist[i] = graph.Infinity
	}
	dist := make([]graph.Weight, n)
	for i := range dist {
		dist[i] = graph.Infinity
	}
	pred := make([]graph.NodeID, n)     // valid wherever dist is finite
	queue := make([]graph.NodeID, 0, n) // doubles as the visited list
	var total int64

	for rank, root := range order {
		// Load the root's current label into rootDist for O(1) lookups.
		for _, h := range labels[root] {
			rootDist[h.Node] = h.Dist
		}
		dist[root] = 0
		pred[root] = -1
		queue = append(queue[:0], root)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			du := dist[u]
			if Certified(labels[u], rootDist, du) {
				continue
			}
			labels[u] = append(labels[u], hub.Hub{Node: root, Dist: du})
			parents[u] = append(parents[u], pred[u])
			total++
			for _, v := range g.Neighbors(u) {
				switch dv := dist[v]; {
				case dv == graph.Infinity:
					dist[v] = du + 1
					pred[v] = u
					queue = append(queue, v)
				case dv == du+1 && u < pred[v]:
					pred[v] = u
				}
			}
		}
		for _, h := range labels[root] {
			rootDist[h.Node] = graph.Infinity
		}
		for _, v := range queue {
			dist[v] = graph.Infinity
		}
		if progress != nil && (rank%progressStride == progressStride-1 || rank == n-1) {
			progress(Progress{RootsDone: rank + 1, Roots: n, Labels: total})
		}
	}
	return labels, parents
}

// buildWeighted is the pruned Dijkstra variant (handles any non-negative
// weights, including the 0-weight auxiliary edges used by degree
// reduction). Those edges are why it assigns parents in a pass after each
// search (appendCanonicalPreds) and not while relaxing: across a 0-weight
// edge a canonical predecessor can be settled after its successor.
func buildWeighted(g *graph.Graph, order []graph.NodeID, progress func(Progress)) ([][]hub.Hub, [][]graph.NodeID) {
	n := g.NumNodes()
	labels := make([][]hub.Hub, n)
	parents := make([][]graph.NodeID, n)
	rootDist := make([]graph.Weight, n)
	for i := range rootDist {
		rootDist[i] = graph.Infinity
	}
	dist := make([]graph.Weight, n)
	for i := range dist {
		dist[i] = graph.Infinity
	}
	stamp := make([]int32, n)
	for i := range stamp {
		stamp[i] = -1
	}
	h := pqueue.New(n)
	visited := make([]graph.NodeID, 0, n)
	labeled := make([]graph.NodeID, 0, n)
	var total int64

	for rank, root := range order {
		for _, e := range labels[root] {
			rootDist[e.Node] = e.Dist
		}
		dist[root] = 0
		h.Reset()
		h.Push(root, 0)
		visited = append(visited[:0], root)
		labeled = labeled[:0]
		for h.Len() > 0 {
			u, du := h.Pop()
			if du > dist[u] {
				continue
			}
			if Certified(labels[u], rootDist, du) {
				continue
			}
			labels[u] = append(labels[u], hub.Hub{Node: root, Dist: du})
			stamp[u] = int32(rank)
			labeled = append(labeled, u)
			ws := g.NeighborWeights(u)
			for i, v := range g.Neighbors(u) {
				w := graph.Weight(1)
				if ws != nil {
					w = ws[i]
				}
				if nd := du + w; nd < dist[v] {
					if dist[v] == graph.Infinity {
						visited = append(visited, v)
					}
					dist[v] = nd
					h.Push(v, nd)
				}
			}
		}
		appendCanonicalPreds(g, root, labeled, dist, stamp, int32(rank), parents)
		total += int64(len(labeled))
		for _, e := range labels[root] {
			rootDist[e.Node] = graph.Infinity
		}
		for _, v := range visited {
			dist[v] = graph.Infinity
		}
		if progress != nil && (rank%progressStride == progressStride-1 || rank == n-1) {
			progress(Progress{RootsDone: rank + 1, Roots: n, Labels: total})
		}
	}
	return labels, parents
}
