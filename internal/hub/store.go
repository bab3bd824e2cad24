package hub

import (
	"io"

	"hublab/internal/graph"
)

// LabelStore is the pluggable label-storage abstraction the serving
// layers query through: a frozen, immutable hub labeling in some
// concrete representation. Two representations exist —
//
//   - FlatLabeling ("expanded"): sentinel-terminated int32 CSR columns,
//     the fastest merge kernel and the expanded (version-3) container;
//   - CompactLabeling ("compact"): frequency-ranked hub-id remapping
//     over narrow delta-encoded byte columns with escape slots, the
//     version-4 container, roughly 3–4× smaller resident bytes at a
//     modest merge-cost premium.
//
// Every implementation answers the same queries with identical results
// on the same labeling (pinned by the indextest property harness): the
// decoded distances, the unpacked witness paths, and the eccentricities
// agree entry for entry. What differs is storage layout, SpaceBytes,
// and the per-representation invariants documented on each method.
//
// Both representations answer distances through one merge core
// (merge.go), which needs two hub-sorted runs each followed by a
// sentinel slot. What each representation may assume to feed it is
// part of the concrete type's contract, not of this interface: the
// flat layout passes column tails and relies only on offsets validated
// by validateOffsets, whose final slot holds the sentinel; the compact
// layout decodes runs into scratch and appends the sentinel itself,
// relying on monotone entry/escape CSRs and a remap table validated to
// be a permutation, and bounds-checks every escape-slot read. Both
// therefore stay memory-safe on quick-validated mmap views with hostile
// interiors — wrong answers are possible there, out-of-bounds access is
// not (see OpenStoreMmap for the trust model).
type LabelStore interface {
	// NumVertices returns the number of vertices the labeling covers.
	NumVertices() int
	// NumHubs returns the total label entries across all vertices
	// (sentinels and encoding overhead excluded), in O(1).
	NumHubs() int
	// LabelLen returns |S(v)|.
	LabelLen(v graph.NodeID) int
	// Label returns the hub ids and distances of S(v), using idBuf/dBuf
	// as backing storage when the representation must decode (pass nil
	// to allocate, or reuse growing buffers across calls). The expanded
	// representation returns aliasing views of its columns and ignores
	// the buffers. Hub ids are always original vertex ids; the entry
	// ORDER is representation-specific (expanded: ascending id; compact:
	// ascending frequency rank) — callers needing a fixed order must
	// sort.
	Label(v graph.NodeID, idBuf []graph.NodeID, dBuf []graph.Weight) ([]graph.NodeID, []graph.Weight)
	// Query returns the exact distance between u and v (false when the
	// labels share no hub). Zero allocations.
	Query(u, v graph.NodeID) (graph.Weight, bool)
	// QueryVia is Query but also returns the minimizing hub as an
	// original vertex id, ties broken toward the smallest id (-1/false
	// when none) — both representations agree exactly, which is what
	// keeps unpacked paths identical across them.
	QueryVia(u, v graph.NodeID) (graph.Weight, graph.NodeID, bool)
	// QueryBatch answers pairs[k] into out[k], Infinity for no common
	// hub. out must have at least len(pairs) entries.
	QueryBatch(pairs [][2]graph.NodeID, out []graph.Weight)
	// HasParents reports whether the parent column for path unpacking is
	// present.
	HasParents() bool
	// NextHop returns the stored next hop from v toward hub h (-1 for
	// the self entry); ok is false when h ∉ S(v) or there are no parents.
	NextHop(v, h graph.NodeID) (graph.NodeID, bool)
	// AppendPath appends one shortest u–v path to dst (see
	// FlatLabeling.AppendPath for the full contract and error cases).
	AppendPath(dst []graph.NodeID, u, v graph.NodeID) ([]graph.NodeID, error)
	// ComputeStats returns label-size statistics.
	ComputeStats() Stats
	// SpaceBytes returns the exact resident storage of the
	// representation's arrays, in bytes — heap or mapped.
	SpaceBytes() int64
	// QueryBytes returns the resident working set of a distance-only
	// workload: every column the merge kernel reads, excluding the
	// parent column (on a mapped container only path queries fault
	// those pages in).
	QueryBytes() int64
	// Validate runs the full structural audit (every interior entry, not
	// just the O(n) quick-open checks).
	Validate() error
	// Owned reports whether storage is heap-owned; false for mmap views,
	// which carry the Release lifetime.
	Owned() bool
	// Release unmaps a view's container (no-op when owned). No query may
	// be in flight or issued afterwards.
	Release() error
	// Thaw materializes a mutable Labeling as a deep copy — never
	// aliasing a mapped container, in any representation.
	Thaw() *Labeling
	// WriteContainer serializes the labeling in the container format
	// selected by opts, converting representation as needed.
	WriteContainer(w io.Writer, opts ContainerOptions) (int64, error)
	// Representation names the concrete storage form: RepExpanded or
	// RepCompact.
	Representation() string
}

// Representation names returned by LabelStore.Representation.
const (
	RepExpanded = "expanded"
	RepCompact  = "compact"
)

var (
	_ LabelStore = (*FlatLabeling)(nil)
	_ LabelStore = (*CompactLabeling)(nil)
)

// Label implements LabelStore for the expanded representation: the
// returned slices alias the flat columns (the buffers are ignored) and
// are sorted ascending by hub id.
func (f *FlatLabeling) Label(v graph.NodeID, _ []graph.NodeID, _ []graph.Weight) ([]graph.NodeID, []graph.Weight) {
	return f.LabelIDs(v), f.LabelDists(v)
}

// Representation implements LabelStore.
func (f *FlatLabeling) Representation() string { return RepExpanded }
