package index

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hublab/internal/graph"
	"hublab/internal/hub"
	"hublab/internal/par"
	"hublab/internal/pll"
	"hublab/internal/sssp"
)

// The three points of the paper's S·T curve register themselves as
// buildable backends; external packages can Register more.
func init() {
	Register(KindMatrix, func(g *graph.Graph, _ Options) (Index, error) { return NewMatrix(g) })
	Register(KindHubLabels, func(g *graph.Graph, opts Options) (Index, error) {
		l, err := pll.Build(g, pll.Options{Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		return NewHubLabelsFrom(l), nil
	})
	Register(KindSearch, func(g *graph.Graph, _ Options) (Index, error) { return NewSearch(g), nil })
}

// Registered backend kinds.
const (
	KindMatrix    = "matrix"
	KindHubLabels = "hub-labels"
	KindSearch    = "search"
)

// Matrix is the S = n² endpoint: the full distance matrix. It retains the
// input graph so the path capability can materialize a next-hop matrix
// lazily on the first Path query (doubling the stored bytes only for
// deployments that actually report paths).
type Matrix struct {
	dist [][]graph.Weight
	g    *graph.Graph
	// nh[s][x] is the next hop from x toward s (the parent of x in the
	// shortest-path tree rooted at s), built once on demand. The atomic
	// pointer lets SpaceBytes observe the materialization without racing
	// a concurrent first path query.
	nhOnce sync.Once
	nh     atomic.Pointer[[][]graph.NodeID]
}

var (
	_ Index                = (*Matrix)(nil)
	_ PathReporter         = (*Matrix)(nil)
	_ EccentricityReporter = (*Matrix)(nil)
	_ CapabilityWarmer     = (*Matrix)(nil)
)

// MaxMatrixVertices caps matrix indexes at ~1 GiB.
const MaxMatrixVertices = 16384

// NewMatrix precomputes all pairwise distances.
func NewMatrix(g *graph.Graph) (*Matrix, error) {
	if g.NumNodes() > MaxMatrixVertices {
		return nil, fmt.Errorf("%w: %d vertices for a distance matrix", ErrTooLarge, g.NumNodes())
	}
	return &Matrix{dist: sssp.AllPairs(g), g: g}, nil
}

// Distance looks up the precomputed entry. Out-of-range ids return
// Infinity: the serving doors pass client-supplied ids straight through,
// and a hostile id must degrade to "unreachable", never panic the
// process.
func (m *Matrix) Distance(u, v graph.NodeID) graph.Weight {
	if !inRange(u, v, len(m.dist)) {
		return graph.Infinity
	}
	return m.dist[u][v]
}

// inRange reports whether both ids name vertices of an n-vertex index.
func inRange(u, v graph.NodeID, n int) bool {
	return u >= 0 && int(u) < n && v >= 0 && int(v) < n
}

// SpaceBytes counts 4 bytes per matrix entry, doubled once the lazy
// next-hop matrix has been materialized by a path query.
func (m *Matrix) SpaceBytes() int64 {
	n := int64(len(m.dist))
	s := n * n * 4
	if m.nh.Load() != nil {
		s *= 2
	}
	return s
}

// nextHops materializes the next-hop matrix on first use: one search per
// source across the worker pool, reusing each tree's parent array.
func (m *Matrix) nextHops() [][]graph.NodeID {
	m.nhOnce.Do(func() {
		nh := make([][]graph.NodeID, len(m.dist))
		par.For(len(m.dist), func(s int) {
			nh[s] = sssp.Search(m.g, graph.NodeID(s)).Parent
		})
		m.nh.Store(&nh)
	})
	return *m.nh.Load()
}

// WarmPaths implements CapabilityWarmer: it materializes the next-hop
// matrix so the first path query served from a shared worker pays
// nothing.
func (m *Matrix) WarmPaths() { m.nextHops() }

// WarmEccentricity implements CapabilityWarmer (row scans need no
// auxiliary state).
func (m *Matrix) WarmEccentricity() {}

// AppendPath implements PathReporter by chasing next hops toward v.
func (m *Matrix) AppendPath(dst []graph.NodeID, u, v graph.NodeID) ([]graph.NodeID, error) {
	if !inRange(u, v, len(m.dist)) {
		return dst, fmt.Errorf("%w: (%d,%d) outside [0,%d)", graph.ErrVertexRange, u, v, len(m.dist))
	}
	if m.dist[u][v] >= graph.Infinity {
		return dst, nil
	}
	row := m.nextHops()[v]
	for x := u; ; x = row[x] {
		dst = append(dst, x)
		if x == v {
			return dst, nil
		}
	}
}

// Eccentricity implements EccentricityReporter with a row scan.
func (m *Matrix) Eccentricity(v graph.NodeID) (graph.Weight, error) {
	_, d, err := m.farthest(v)
	return d, err
}

// Farthest implements EccentricityReporter: the smallest-id vertex at
// maximum finite distance from v (v itself when nothing else is
// reachable).
func (m *Matrix) Farthest(v graph.NodeID) (graph.NodeID, graph.Weight, error) {
	return m.farthest(v)
}

func (m *Matrix) farthest(v graph.NodeID) (graph.NodeID, graph.Weight, error) {
	if !inRange(v, v, len(m.dist)) {
		return -1, 0, fmt.Errorf("%w: %d outside [0,%d)", graph.ErrVertexRange, v, len(m.dist))
	}
	far, ecc := v, graph.Weight(0)
	for u, d := range m.dist[v] {
		if d < graph.Infinity && d > ecc {
			far, ecc = graph.NodeID(u), d
		}
	}
	return far, ecc, nil
}

// Name implements Index.
func (m *Matrix) Name() string { return KindMatrix }

// Meta implements Index.
func (m *Matrix) Meta() Meta {
	return Meta{Kind: KindMatrix, Vertices: len(m.dist), QueryOps: 1, ResidentBytes: m.SpaceBytes()}
}

// HubLabels is the hub labeling point of the tradeoff. Queries run on a
// frozen hub.LabelStore — the expanded flat CSR form or the compact
// (rank-remapped, delta-encoded) form — so each Distance call is a
// zero-allocation merge, and DistanceBatch interleaves merges per loop.
// Every capability (distances, batches, paths, eccentricities) is
// representation-agnostic: the two forms answer byte-identically. A
// HubLabels index is the only backend with a persistent container form
// (see Load/Save).
type HubLabels struct {
	l *hub.Labeling // nil when loaded from a container
	s hub.LabelStore
	// containerBytes is the on-disk size of the container this index was
	// loaded from (0 for built indexes) — reported in Meta so operators
	// can compare the serving working set against the file.
	containerBytes int64
	// ecc is the inverted farthest-first hub index, built lazily on the
	// first eccentricity query (it costs one pass over the labels and is
	// dead weight for distance-only serving).
	eccOnce sync.Once
	ecc     *hub.EccIndex
}

var (
	_ Index                = (*HubLabels)(nil)
	_ Batcher              = (*HubLabels)(nil)
	_ PathReporter         = (*HubLabels)(nil)
	_ EccentricityReporter = (*HubLabels)(nil)
	_ CapabilityWarmer     = (*HubLabels)(nil)
	_ Releaser             = (*HubLabels)(nil)
)

// NewHubLabels builds a PLL-backed hub-label index.
func NewHubLabels(g *graph.Graph) (*HubLabels, error) {
	l, err := pll.Build(g, pll.Options{})
	if err != nil {
		return nil, err
	}
	return NewHubLabelsFrom(l), nil
}

// NewHubLabelsFrom wraps an existing labeling, freezing it if necessary.
func NewHubLabelsFrom(l *hub.Labeling) *HubLabels { return &HubLabels{l: l, s: l.Freeze()} }

// FromStore wraps any frozen label store — expanded or compact — e.g.
// one loaded from a container in its native representation, without
// ever materializing the mutable form.
func FromStore(s hub.LabelStore) *HubLabels { return &HubLabels{s: s} }

// Distance decodes from the two labels. Out-of-range ids return
// Infinity rather than indexing outside the label offsets.
func (x *HubLabels) Distance(u, v graph.NodeID) graph.Weight {
	if !inRange(u, v, x.s.NumVertices()) {
		return graph.Infinity
	}
	d, ok := x.s.Query(u, v)
	if !ok {
		return graph.Infinity
	}
	return d
}

// DistanceBatch answers pairs[k] into out[k] with the interleaved merge.
// A batch containing out-of-range ids falls back to the bounds-checked
// scalar path (the common all-valid case pays one cheap scan).
func (x *HubLabels) DistanceBatch(pairs [][2]graph.NodeID, out []graph.Weight) {
	n := x.s.NumVertices()
	for _, p := range pairs {
		if !inRange(p[0], p[1], n) {
			for i, q := range pairs {
				out[i] = x.Distance(q[0], q[1])
			}
			return
		}
	}
	x.s.QueryBatch(pairs, out)
}

// AppendPath implements PathReporter by unpacking the meeting hub through
// the labeling's parent column. Indexes loaded from version-1 containers
// (no parent column) report hub.ErrNoParents.
func (x *HubLabels) AppendPath(dst []graph.NodeID, u, v graph.NodeID) ([]graph.NodeID, error) {
	return x.s.AppendPath(dst, u, v)
}

// eccIndex builds the farthest-first inverted index once.
func (x *HubLabels) eccIndex() *hub.EccIndex {
	x.eccOnce.Do(func() { x.ecc = hub.NewEccIndex(x.s) })
	return x.ecc
}

// WarmPaths implements CapabilityWarmer (the parent column needs no
// materialization).
func (x *HubLabels) WarmPaths() {}

// WarmEccentricity implements CapabilityWarmer: it builds the inverted
// eccentricity index up front.
func (x *HubLabels) WarmEccentricity() { x.eccIndex() }

// Eccentricity implements EccentricityReporter via the best-first refined
// hub scan (exact on any shortest-path cover).
func (x *HubLabels) Eccentricity(v graph.NodeID) (graph.Weight, error) {
	if !inRange(v, v, x.s.NumVertices()) {
		return 0, fmt.Errorf("%w: %d outside [0,%d)", graph.ErrVertexRange, v, x.s.NumVertices())
	}
	d, _ := x.eccIndex().Eccentricity(v)
	return d, nil
}

// Farthest implements EccentricityReporter.
func (x *HubLabels) Farthest(v graph.NodeID) (graph.NodeID, graph.Weight, error) {
	if !inRange(v, v, x.s.NumVertices()) {
		return -1, 0, fmt.Errorf("%w: %d outside [0,%d)", graph.ErrVertexRange, v, x.s.NumVertices())
	}
	d, far := x.eccIndex().Eccentricity(v)
	return far, d, nil
}

// SpaceBytes counts the resident label storage exactly, as the store
// accounts it: for the expanded form, 4 bytes per CSR offset plus 8 per
// slot (sentinels included) plus the parent column; for the compact
// form, the remap and escape tables plus one (narrow) or two (wide)
// bytes per entry per column. An honest space report is the point: the
// compressed representation's SpaceBytes is what it actually keeps
// resident, not the expanded equivalent.
func (x *HubLabels) SpaceBytes() int64 { return x.s.SpaceBytes() }

// Name implements Index.
func (x *HubLabels) Name() string { return KindHubLabels }

// Meta implements Index. It is O(1): the average label size falls out of
// the array lengths, so metadata reads never scan the offsets.
func (x *HubLabels) Meta() Meta {
	n := x.s.NumVertices()
	var avg float64
	if n > 0 {
		avg = float64(x.s.NumHubs()) / float64(n)
	}
	return Meta{
		Kind:           KindHubLabels,
		Vertices:       n,
		QueryOps:       2 * avg,
		Representation: x.s.Representation(),
		ResidentBytes:  x.s.SpaceBytes(),
		ContainerBytes: x.containerBytes,
	}
}

// Owned reports whether the index's label storage is heap-owned. A
// mmap-loaded index (LoadMmap over an aligned or compact container)
// returns false: its columns alias the mapped file and carry the
// Release lifetime.
func (x *HubLabels) Owned() bool { return x.s.Owned() }

// Release implements Releaser: it unmaps a view-backed index's container
// (a no-op for heap-owned indexes). The caller owns the contract that no
// query is in flight or issued afterwards; serving layers enforce it by
// refcounting snapshots and releasing only after the last in-flight
// query drains.
func (x *HubLabels) Release() error { return x.s.Release() }

// Labeling exposes the underlying mutable labeling; it is nil for indexes
// loaded from a container (use Store instead).
func (x *HubLabels) Labeling() *hub.Labeling { return x.l }

// Store exposes the frozen label store the queries run on.
func (x *HubLabels) Store() hub.LabelStore { return x.s }

// Flat exposes the frozen flat labeling when the index serves the
// expanded representation; it is nil for a compact index (use Store,
// or Store().Thaw() for a mutable expanded copy).
func (x *HubLabels) Flat() *hub.FlatLabeling {
	f, _ := x.s.(*hub.FlatLabeling)
	return f
}

// Search is the S = O(m) endpoint: store only the graph, search per query.
type Search struct {
	g *graph.Graph
}

var (
	_ Index                = (*Search)(nil)
	_ PathReporter         = (*Search)(nil)
	_ EccentricityReporter = (*Search)(nil)
)

// NewSearch wraps the graph.
func NewSearch(g *graph.Graph) *Search { return &Search{g: g} }

// Distance runs a bidirectional search. Out-of-range ids return
// Infinity, matching the other backends.
func (x *Search) Distance(u, v graph.NodeID) graph.Weight {
	if !inRange(u, v, x.g.NumNodes()) {
		return graph.Infinity
	}
	return sssp.Distance(x.g, u, v)
}

// AppendPath implements PathReporter with its own traversal: one search
// rooted at v, whose parent pointers are next hops toward v, walked
// forward from u (so the path lands in dst already in u→v order).
func (x *Search) AppendPath(dst []graph.NodeID, u, v graph.NodeID) ([]graph.NodeID, error) {
	if !inRange(u, v, x.g.NumNodes()) {
		return dst, fmt.Errorf("%w: (%d,%d) outside [0,%d)", graph.ErrVertexRange, u, v, x.g.NumNodes())
	}
	r := sssp.Search(x.g, v)
	if r.Dist[u] >= graph.Infinity {
		return dst, nil
	}
	for w := u; ; w = r.Parent[w] {
		dst = append(dst, w)
		if w == v {
			return dst, nil
		}
	}
}

// Eccentricity implements EccentricityReporter with one search.
func (x *Search) Eccentricity(v graph.NodeID) (graph.Weight, error) {
	_, d, err := x.Farthest(v)
	return d, err
}

// Farthest implements EccentricityReporter: the smallest-id vertex at
// maximum finite distance from v.
func (x *Search) Farthest(v graph.NodeID) (graph.NodeID, graph.Weight, error) {
	if !inRange(v, v, x.g.NumNodes()) {
		return -1, 0, fmt.Errorf("%w: %d outside [0,%d)", graph.ErrVertexRange, v, x.g.NumNodes())
	}
	r := sssp.Search(x.g, v)
	far, ecc := v, graph.Weight(0)
	for u, d := range r.Dist {
		if d < graph.Infinity && d > ecc {
			far, ecc = graph.NodeID(u), d
		}
	}
	return far, ecc, nil
}

// SpaceBytes counts the CSR arrays: 8 bytes per directed edge entry plus
// 4 per offset.
func (x *Search) SpaceBytes() int64 {
	return int64(x.g.NumEdges())*2*8 + int64(x.g.NumNodes()+1)*4
}

// Name implements Index.
func (x *Search) Name() string { return KindSearch }

// Meta implements Index.
func (x *Search) Meta() Meta {
	return Meta{
		Kind:          KindSearch,
		Vertices:      x.g.NumNodes(),
		QueryOps:      float64(2 * x.g.NumEdges()),
		ResidentBytes: x.SpaceBytes(),
	}
}
