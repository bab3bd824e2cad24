// Package hub defines hub labelings (2-hop covers), the paper's central
// object: every vertex v stores a hub set S(v) together with exact
// distances, and the distance between u and v is recovered as
//
//	min_{w ∈ S(u) ∩ S(v)} dist(u,w) + dist(w,v),
//
// which is exact whenever the family {S(v)} is a shortest-path cover.
// The package provides the labeling container, the merge query, cover
// verification, monotone closure (the S* sets of Theorem 2.1's Eq. (1)),
// size statistics and bit-level serialization.
//
// # Freeze/Thaw lifecycle
//
// Labeling is the mutable builder form: construction algorithms Add hubs,
// Canonicalize, and hand the result out. Freeze converts the slice-of-
// slices storage into the immutable FlatLabeling — contiguous CSR offsets
// over structure-of-arrays hub-id/distance columns with sentinel-
// terminated runs — and caches it on the Labeling, so Query and QueryVia
// transparently run the zero-allocation flat merge. Every mutation (Add,
// SetLabel, Canonicalize) drops the cache; Thaw converts a FlatLabeling
// back into a fresh mutable Labeling. All construction paths in this
// module freeze their final result, so consumers get flat-speed queries
// without holding a second type.
package hub

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"hublab/internal/graph"
	"hublab/internal/par"
	"hublab/internal/sssp"
)

// Hub is one entry of a vertex label: a hub vertex and the exact distance
// to it.
type Hub struct {
	Node graph.NodeID
	Dist graph.Weight
}

// Labeling holds one hub set per vertex, each sorted by hub id, enabling
// O(|S(u)|+|S(v)|) merge queries. A frozen flat form (see Freeze) is
// cached after construction and used transparently by the query methods.
//
// A labeling may additionally carry a parent column: for every label entry
// (v, h, d), the next hop from v toward h on one shortest v–h path (-1 for
// the self entry h = v). Builders that run shortest-path searches record it
// for free (PLL, FromSets, canonical HHL); Add-based builders attach it
// after the fact with ComputeParents. The column is what powers
// FlatLabeling.AppendPath; any mutation (Add, SetLabel) discards it along
// with the frozen form.
type Labeling struct {
	labels  [][]Hub
	parents [][]graph.NodeID // nil when absent; parents[v] parallels labels[v]
	flat    *FlatLabeling    // non-nil iff frozen; invalidated by any mutation
}

// ErrNotCover reports that a labeling fails to cover some pair.
var ErrNotCover = errors.New("hub: labeling is not a shortest-path cover")

// CoverError describes a pair witnessing a cover violation.
type CoverError struct {
	U, V graph.NodeID
	Got  graph.Weight // distance decoded from labels (Infinity if no common hub)
	Want graph.Weight // true graph distance
}

func (e *CoverError) Error() string {
	return fmt.Sprintf("hub: pair (%d,%d) decodes to %d, true distance %d", e.U, e.V, e.Got, e.Want)
}

func (e *CoverError) Unwrap() error { return ErrNotCover }

// NewLabeling returns an empty labeling for n vertices.
func NewLabeling(n int) *Labeling {
	return &Labeling{labels: make([][]Hub, n)}
}

// NumVertices returns the number of vertices the labeling covers.
func (l *Labeling) NumVertices() int { return len(l.labels) }

// Add inserts hub h at distance d into S(v). Call Canonicalize after a
// batch of Adds to restore sorted, deduplicated labels. Adding discards
// any frozen flat form and any parent column (re-attach one with
// ComputeParents).
func (l *Labeling) Add(v graph.NodeID, h graph.NodeID, d graph.Weight) {
	l.flat = nil
	l.parents = nil
	l.labels[v] = append(l.labels[v], Hub{Node: h, Dist: d})
}

// Label returns S(v) sorted by hub id. The slice aliases internal storage.
func (l *Labeling) Label(v graph.NodeID) []Hub { return l.labels[v] }

// SetLabel replaces S(v) wholesale (taking ownership of hubs) and discards
// any frozen flat form and any parent column.
func (l *Labeling) SetLabel(v graph.NodeID, hubs []Hub) {
	l.flat = nil
	l.parents = nil
	l.labels[v] = hubs
}

// Canonicalize sorts every label by hub id and merges duplicates keeping
// the minimum distance. It discards any frozen flat form (Freeze again
// afterwards to restore it). A parent column, when present, is permuted
// and deduplicated in lockstep so it stays parallel to the labels.
func (l *Labeling) Canonicalize() {
	l.flat = nil
	var sorter labelSorter
	for v, hubs := range l.labels {
		var parents []graph.NodeID
		if l.parents != nil {
			parents = l.parents[v]
		}
		sorter.sort(hubs, parents)
		keep := 0
		for i, h := range hubs {
			if keep == 0 || h.Node != hubs[keep-1].Node {
				keep++
			} else if h.Dist >= hubs[keep-1].Dist {
				continue
			}
			hubs[keep-1] = h
			if parents != nil {
				parents[keep-1] = parents[i]
			}
		}
		l.labels[v] = hubs[:keep]
		if parents != nil {
			l.parents[v] = parents[:keep]
		}
	}
}

// Query decodes the distance between u and v from their labels alone. It
// returns Infinity and false if the labels share no hub. On a frozen
// labeling the zero-allocation flat merge is used.
func (l *Labeling) Query(u, v graph.NodeID) (graph.Weight, bool) {
	if f := l.flat; f != nil {
		return f.Query(u, v)
	}
	d, _, ok := l.queryViaSlices(u, v)
	return d, ok
}

// QueryVia is Query but also returns the minimizing hub.
func (l *Labeling) QueryVia(u, v graph.NodeID) (graph.Weight, graph.NodeID, bool) {
	if f := l.flat; f != nil {
		return f.QueryVia(u, v)
	}
	return l.queryViaSlices(u, v)
}

// queryViaSlices is the merge query over the mutable slice-of-slices form.
func (l *Labeling) queryViaSlices(u, v graph.NodeID) (graph.Weight, graph.NodeID, bool) {
	a, b := l.labels[u], l.labels[v]
	best := graph.Infinity
	var via graph.NodeID = -1
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Node < b[j].Node:
			i++
		case a[i].Node > b[j].Node:
			j++
		default:
			if d := a[i].Dist + b[j].Dist; d < best {
				best = d
				via = a[i].Node
			}
			i++
			j++
		}
	}
	return best, via, via >= 0
}

// Stats summarizes label sizes.
type Stats struct {
	Vertices int
	Total    int     // sum of |S(v)|
	Max      int     // max |S(v)|
	Avg      float64 // Total / Vertices
}

// ComputeStats returns size statistics for the labeling.
func (l *Labeling) ComputeStats() Stats {
	s := Stats{Vertices: len(l.labels)}
	for _, hubs := range l.labels {
		s.Total += len(hubs)
		if len(hubs) > s.Max {
			s.Max = len(hubs)
		}
	}
	if s.Vertices > 0 {
		s.Avg = float64(s.Total) / float64(s.Vertices)
	}
	return s
}

// verifyQueryFunc returns the query function verification should use
// without mutating the receiver (so a concurrent reader of l is safe):
// the cached flat form when present, a locally built flat form when the
// labels are canonical, and the plain slice merge otherwise.
func (l *Labeling) verifyQueryFunc() func(u, v graph.NodeID) (graph.Weight, bool) {
	if f := l.flat; f != nil {
		return f.Query
	}
	if l.canonical() {
		return l.buildFlat().Query
	}
	return l.Query
}

// VerifyCover exhaustively checks that the labeling decodes the exact
// distance for every vertex pair of g (one SSSP per vertex; intended for
// graphs up to a few thousand vertices). The per-source checks run on a
// runtime.NumCPU()-bounded worker pool over the flat form (built locally
// when the labeling is not already frozen — the receiver is never
// mutated); the reported *CoverError is deterministic — the same first
// violation (lowest u, then lowest v) a sequential scan would find.
func (l *Labeling) VerifyCover(g *graph.Graph) error {
	if len(l.labels) != g.NumNodes() {
		return fmt.Errorf("hub: labeling has %d vertices, graph has %d", len(l.labels), g.NumNodes())
	}
	query := l.verifyQueryFunc()
	n := g.NumNodes()
	return par.FirstError(n, func(i int) error {
		u := graph.NodeID(i)
		r := sssp.Search(g, u)
		for v := u; int(v) < n; v++ {
			if err := checkPairQuery(query, u, v, r.Dist[v]); err != nil {
				return err
			}
		}
		return nil
	})
}

// VerifySampled checks the labeling on `pairs` random vertex pairs. The
// pair sequence is drawn up front from the seed and the checks are
// batched across the worker pool; the reported error is the one a
// sequential scan of the same sequence would hit first. Like VerifyCover
// it never mutates the receiver.
func (l *Labeling) VerifySampled(g *graph.Graph, pairs int, seed int64) error {
	if len(l.labels) != g.NumNodes() {
		return fmt.Errorf("hub: labeling has %d vertices, graph has %d", len(l.labels), g.NumNodes())
	}
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	// Unlike VerifyCover, a sampled check touches only `pairs` pairs, so it
	// never pays to materialize a temporary flat copy of an unfrozen
	// labeling — for a streamed million-vertex build that copy would double
	// peak RSS just to check a few thousand pairs. Use the cached flat form
	// when present and the plain merge otherwise.
	query := l.Query
	if f := l.flat; f != nil {
		query = f.Query
	}
	batch := make([][2]graph.NodeID, pairs)
	for i := range batch {
		batch[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
	}
	return par.FirstError(len(batch), func(i int) error {
		u, v := batch[i][0], batch[i][1]
		return checkPairQuery(query, u, v, sssp.Distance(g, u, v))
	})
}

func checkPairQuery(query func(u, v graph.NodeID) (graph.Weight, bool), u, v graph.NodeID, want graph.Weight) error {
	got, ok := query(u, v)
	if want == graph.Infinity {
		if ok {
			return &CoverError{U: u, V: v, Got: got, Want: want}
		}
		return nil
	}
	if !ok || got != want {
		if !ok {
			got = graph.Infinity
		}
		return &CoverError{U: u, V: v, Got: got, Want: want}
	}
	return nil
}

// FromSets builds a labeling with exact distances from bare hub sets by
// running one shortest-path search per distinct hub. Hubs are processed in
// sorted id order (so construction is deterministic run-to-run) and the
// per-hub searches run on the worker pool; the result is canonical and
// frozen.
func FromSets(g *graph.Graph, sets [][]graph.NodeID) (*Labeling, error) {
	if len(sets) != g.NumNodes() {
		return nil, fmt.Errorf("hub: %d sets for %d vertices", len(sets), g.NumNodes())
	}
	// users[h] = vertices that want h as hub.
	users := make(map[graph.NodeID][]graph.NodeID)
	for v, hubs := range sets {
		for _, h := range hubs {
			if int(h) < 0 || int(h) >= g.NumNodes() {
				return nil, fmt.Errorf("hub: %w: hub %d", graph.ErrVertexRange, h)
			}
			users[h] = append(users[h], graph.NodeID(v))
		}
	}
	order := make([]graph.NodeID, 0, len(users))
	for h := range users {
		order = append(order, h)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	// One search per distinct hub, in parallel; entry lists land in the
	// slot of their hub's rank, so assembly order is deterministic. The
	// search tree also yields the parent column for free: Parent[v] in the
	// tree rooted at h is the next hop from v toward h.
	type entry struct {
		v   graph.NodeID
		d   graph.Weight
		par graph.NodeID
	}
	perHub := make([][]entry, len(order))
	par.For(len(order), func(i int) {
		h := order[i]
		r := sssp.Search(g, h)
		vs := users[h]
		list := make([]entry, 0, len(vs))
		for _, v := range vs {
			if r.Dist[v] < graph.Infinity {
				list = append(list, entry{v, r.Dist[v], r.Parent[v]})
			}
		}
		perHub[i] = list
	})
	n := g.NumNodes()
	labels := make([][]Hub, n)
	parents := make([][]graph.NodeID, n)
	for i, h := range order {
		for _, e := range perHub[i] {
			labels[e.v] = append(labels[e.v], Hub{Node: h, Dist: e.d})
			parents[e.v] = append(parents[e.v], e.par)
		}
	}
	return FromSlicesParents(labels, parents), nil
}

// ComputeParents attaches a parent column to an existing labeling by
// running one shortest-path search per distinct hub: for every entry
// (v, h, d) the recorded parent is the next hop from v toward h along the
// search tree rooted at h. It is the retrofit path for Add-based builders
// (greedy cover, centroid labels, monotone closure); construction
// algorithms that already run per-hub searches record parents inline
// instead. The labeling's stored distances must be the exact graph
// distances — a mismatch is reported as an error and leaves l without a
// parent column. The labeling is re-frozen if it was frozen before.
func (l *Labeling) ComputeParents(g *graph.Graph) error {
	if l.NumVertices() != g.NumNodes() {
		return fmt.Errorf("hub: labeling has %d vertices, graph has %d", l.NumVertices(), g.NumNodes())
	}
	if !l.canonical() {
		l.Canonicalize()
	}
	// users[h] = positions (v, slot) that carry h.
	users := make(map[graph.NodeID][]graph.NodeID)
	for v, hubs := range l.labels {
		for _, h := range hubs {
			users[h.Node] = append(users[h.Node], graph.NodeID(v))
		}
	}
	order := make([]graph.NodeID, 0, len(users))
	for h := range users {
		order = append(order, h)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	parents := make([][]graph.NodeID, len(l.labels))
	for v, hubs := range l.labels {
		parents[v] = make([]graph.NodeID, len(hubs))
	}
	err := par.FirstError(len(order), func(i int) error {
		h := order[i]
		r := sssp.Search(g, h)
		for _, v := range users[h] {
			slot := sort.Search(len(l.labels[v]), func(k int) bool { return l.labels[v][k].Node >= h })
			e := l.labels[v][slot]
			if r.Dist[v] != e.Dist {
				return fmt.Errorf("hub: entry (%d,%d) stores distance %d, graph says %d",
					v, h, e.Dist, r.Dist[v])
			}
			if v == h {
				parents[v][slot] = -1
			} else {
				parents[v][slot] = r.Parent[v]
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	wasFrozen := l.flat != nil
	l.flat = nil
	l.parents = parents
	if wasFrozen {
		l.Freeze()
	}
	return nil
}

// MonotoneClosure returns the monotone labeling {S*(v)}: for every hub
// x ∈ S(v), all vertices of one shortest v-x path (along a fixed
// shortest-path tree rooted at v) are added to S*(v). This is the object
// the paper's Eq. (1) bounds: |S*(v)| ≤ diam · |S(v)|.
func MonotoneClosure(g *graph.Graph, l *Labeling) (*Labeling, error) {
	if l.NumVertices() != g.NumNodes() {
		return nil, fmt.Errorf("hub: labeling has %d vertices, graph has %d", l.NumVertices(), g.NumNodes())
	}
	n := g.NumNodes()
	outLabels := make([][]Hub, n)
	par.For(n, func(i int) {
		v := graph.NodeID(i)
		r := sssp.Search(g, v)
		added := make(map[graph.NodeID]bool, len(l.labels[v]))
		var hubs []Hub
		for _, h := range l.labels[v] {
			// Walk from the hub back to v along the shortest-path tree.
			for x := h.Node; x != -1 && !added[x]; x = r.Parent[x] {
				if r.Dist[x] == graph.Infinity {
					break // hub unreachable from v: keep original entry only
				}
				added[x] = true
				hubs = append(hubs, Hub{Node: x, Dist: r.Dist[x]})
			}
		}
		if !added[v] {
			hubs = append(hubs, Hub{Node: v, Dist: 0})
		}
		outLabels[i] = hubs
	})
	out := FromSlices(outLabels)
	if err := out.ComputeParents(g); err != nil {
		return nil, err
	}
	return out, nil
}
