package hub

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"hublab/internal/graph"
	"hublab/internal/mmapio"
	"hublab/internal/par"
	"hublab/internal/sssp"
)

// flatSentinel terminates every per-vertex run in the flat arrays. It
// compares greater than any real hub id, so the merge scan needs no bounds
// or length checks: when one side reaches its sentinel the other side
// advances until both sides agree on the sentinel.
const flatSentinel = graph.NodeID(math.MaxInt32)

// FlatLabeling is the frozen CSR/structure-of-arrays form of a Labeling:
// one contiguous offsets array plus parallel hub-id and distance arrays.
// The layout is chosen for the merge-query hot path — the scan touches
// only the hub-id array until ids match, every label is terminated by a
// sentinel id so the inner loop carries no length comparisons, and a query
// performs zero allocations.
//
// FlatLabeling is immutable. Obtain one with Labeling.Freeze and convert
// back to the mutable builder form with Thaw. Labels must be canonical
// (sorted by hub id, no duplicates); Freeze canonicalizes first when
// needed.
//
// A FlatLabeling is either owned — its arrays live on the Go heap — or a
// view, whose arrays point directly into a memory-mapped container (see
// OpenStoreMmap). Views answer queries identically but add a
// lifetime contract: Release must not run before the last query on the
// view finishes, Thaw always deep-copies (the mutable form never aliases
// the mapping), and the in-place mutation owned labelings allow
// (ComputeParents) is refused — copy-on-write via CopyOwned instead. See
// Owned, Release.
type FlatLabeling struct {
	offsets []int32        // len n+1; label of v occupies [offsets[v], offsets[v+1]-1), sentinel at offsets[v+1]-1
	hubIDs  []graph.NodeID // len Total + n, sentinel-terminated runs
	dists   []graph.Weight // parallel to hubIDs (sentinel slots hold Infinity)
	// parents, when non-nil, parallels hubIDs: the next hop from the
	// vertex toward each hub on one shortest path (-1 for self entries and
	// sentinel slots). It is what AppendPath unpacks witness paths from.
	parents []graph.NodeID
	// ref, when non-nil, is the mapped container at least one of the
	// columns above aliases; the labeling is then a view (see Owned).
	ref *mmapio.Mapping
}

// Owned reports whether the labeling's arrays are heap-owned. A view
// (Owned() == false) aliases a mapped container: it is immutable shared
// memory with an explicit lifetime — see Release.
func (f *FlatLabeling) Owned() bool { return f.ref == nil }

// Release ends a view's lifetime and unmaps its container. The caller
// owns the contract that no query (and no slice obtained from LabelIDs,
// LabelDists or Thaw-free accessors) is in flight or used afterwards —
// the serving layer enforces it by refcounting snapshots and releasing
// only after the last in-flight query drains. Release on an owned
// labeling, and any call after the first, is a no-op returning nil.
func (f *FlatLabeling) Release() error {
	if f.ref == nil {
		return nil
	}
	return f.ref.Close()
}

// CopyOwned returns a deep, heap-owned copy of f — the copy-on-write
// escape hatch for views: the copy answers identically, allows the
// in-place mutations views refuse, and survives Release of the original.
func (f *FlatLabeling) CopyOwned() *FlatLabeling {
	c := &FlatLabeling{
		offsets: append([]int32(nil), f.offsets...),
		hubIDs:  append([]graph.NodeID(nil), f.hubIDs...),
		dists:   append([]graph.Weight(nil), f.dists...),
	}
	if f.parents != nil {
		c.parents = append([]graph.NodeID(nil), f.parents...)
	}
	return c
}

// ErrViewImmutable reports an in-place mutation attempted on a
// view-backed labeling. The mapped container may be shared with other
// processes and is read-only; CopyOwned first, then mutate the copy.
var ErrViewImmutable = errors.New("hub: labeling is a read-only mmap view (CopyOwned first)")

// Freeze builds the flat CSR/SoA form of the labeling and caches it, so
// subsequent Query/QueryVia calls on l run on the flat representation.
// Labels are canonicalized first if any label is unsorted or contains
// duplicates. The returned FlatLabeling is immutable and safe for
// concurrent queries; any later mutation of l (Add, SetLabel,
// Canonicalize) discards the cache.
func (l *Labeling) Freeze() *FlatLabeling {
	if l.flat != nil {
		return l.flat
	}
	if !l.canonical() {
		l.Canonicalize()
	}
	l.flat = l.buildFlat()
	return l.flat
}

// buildFlat constructs the flat arrays from the (canonical) labels without
// touching the cache — a pure read of l, so it is safe while other
// goroutines query l.
func (l *Labeling) buildFlat() *FlatLabeling {
	n := len(l.labels)
	total := 0
	for _, hubs := range l.labels {
		total += len(hubs)
	}
	f := &FlatLabeling{
		offsets: make([]int32, n+1),
		hubIDs:  make([]graph.NodeID, total+n),
		dists:   make([]graph.Weight, total+n),
	}
	if l.parents != nil {
		f.parents = make([]graph.NodeID, total+n)
	}
	pos := int32(0)
	for v, hubs := range l.labels {
		f.offsets[v] = pos
		for i, h := range hubs {
			f.hubIDs[pos] = h.Node
			f.dists[pos] = h.Dist
			if f.parents != nil {
				f.parents[pos] = l.parents[v][i]
			}
			pos++
		}
		f.hubIDs[pos] = flatSentinel
		f.dists[pos] = graph.Infinity
		if f.parents != nil {
			f.parents[pos] = -1
		}
		pos++
	}
	f.offsets[n] = pos
	return f
}

// Frozen reports whether l currently carries a flat representation (and
// thus answers queries on it).
func (l *Labeling) Frozen() bool { return l.flat != nil }

// canonical reports whether every label is strictly sorted by hub id.
func (l *Labeling) canonical() bool {
	for _, hubs := range l.labels {
		for i := 1; i < len(hubs); i++ {
			if hubs[i-1].Node >= hubs[i].Node {
				return false
			}
		}
	}
	return true
}

// Thaw materializes a mutable Labeling holding a copy of the flat labels
// (including the parent column, when present). The copy is always deep —
// in particular, thawing a view never aliases the mapped container, so
// the result (and anything computed from it, e.g. ComputeParents) stays
// valid after Release and never writes through the shared mapping.
func (f *FlatLabeling) Thaw() *Labeling {
	n := f.NumVertices()
	l := NewLabeling(n)
	if f.parents != nil {
		l.parents = make([][]graph.NodeID, n)
	}
	for v := 0; v < n; v++ {
		lo, hi := f.offsets[v], f.offsets[v+1]-1
		hubs := make([]Hub, hi-lo)
		for i := lo; i < hi; i++ {
			hubs[i-lo] = Hub{Node: f.hubIDs[i], Dist: f.dists[i]}
		}
		l.labels[v] = hubs
		if f.parents != nil {
			l.parents[v] = append([]graph.NodeID(nil), f.parents[lo:hi]...)
		}
	}
	return l
}

// HasParents reports whether the labeling carries the parent column that
// path unpacking (AppendPath) requires.
func (f *FlatLabeling) HasParents() bool { return f.parents != nil }

// ComputeParents attaches a parent column in place by one shortest-path
// search per distinct hub — the retrofit for labelings loaded from
// parentless containers, without a Thaw round-trip through
// the mutable form. The stored distances must be the exact graph
// distances; a mismatch is reported and leaves f unchanged.
//
// A view-backed labeling (Owned() == false) is immutable shared memory:
// the call returns ErrViewImmutable instead of writing anywhere near the
// mapping. Copy-on-write callers do f.CopyOwned().ComputeParents(g).
func (f *FlatLabeling) ComputeParents(g *graph.Graph) error {
	if !f.Owned() {
		return ErrViewImmutable
	}
	n := f.NumVertices()
	if n != g.NumNodes() {
		return fmt.Errorf("hub: labeling has %d vertices, graph has %d", n, g.NumNodes())
	}
	// users[h] = vertices whose label carries hub h.
	users := make(map[graph.NodeID][]graph.NodeID)
	for v := 0; v < n; v++ {
		for _, h := range f.LabelIDs(graph.NodeID(v)) {
			users[h] = append(users[h], graph.NodeID(v))
		}
	}
	order := make([]graph.NodeID, 0, len(users))
	for h := range users {
		order = append(order, h)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	col := make([]graph.NodeID, len(f.hubIDs))
	for i := range col {
		col[i] = -1 // sentinel and self slots stay -1
	}
	err := par.FirstError(len(order), func(i int) error {
		h := order[i]
		r := sssp.Search(g, h)
		for _, v := range users[h] {
			ids := f.LabelIDs(v)
			slot := sort.Search(len(ids), func(k int) bool { return ids[k] >= h })
			pos := int(f.offsets[v]) + slot
			if r.Dist[v] != f.dists[pos] {
				return fmt.Errorf("hub: entry (%d,%d) stores distance %d, graph says %d",
					v, h, f.dists[pos], r.Dist[v])
			}
			if v != h {
				col[pos] = r.Parent[v]
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	f.parents = col
	return nil
}

// NumVertices returns the number of vertices the labeling covers.
func (f *FlatLabeling) NumVertices() int { return len(f.offsets) - 1 }

// LabelLen returns |S(v)|.
func (f *FlatLabeling) LabelLen(v graph.NodeID) int {
	return int(f.offsets[v+1] - f.offsets[v] - 1)
}

// LabelIDs returns the hub ids of S(v) sorted ascending, excluding the
// sentinel. The slice aliases internal storage and must not be modified.
func (f *FlatLabeling) LabelIDs(v graph.NodeID) []graph.NodeID {
	return f.hubIDs[f.offsets[v] : f.offsets[v+1]-1]
}

// LabelDists returns the distances parallel to LabelIDs(v). The slice
// aliases internal storage and must not be modified.
func (f *FlatLabeling) LabelDists(v graph.NodeID) []graph.Weight {
	return f.dists[f.offsets[v] : f.offsets[v+1]-1]
}

// Query decodes the distance between u and v by merging the two
// sentinel-terminated runs with the shared merge core (merge.go):
// balanced pairs take the branch-reduced linear scan, skewed pairs — one
// run at least gallopRatio× longer than the other — the galloping probe.
// It performs zero allocations and returns Infinity and false when the
// labels share no hub.
func (f *FlatLabeling) Query(u, v graph.NodeID) (graph.Weight, bool) {
	best := f.mergeRest(int(f.offsets[u]), int(f.offsets[u+1])-1,
		int(f.offsets[v]), int(f.offsets[v+1])-1, graph.Infinity)
	return best, best < graph.Infinity
}

// QueryVia is Query but also returns the minimizing hub (-1 when none).
// Like Query it routes skewed pairs to the galloping kernel; both
// kernels break distance ties toward the smallest hub id, so the
// witness never depends on which kernel the skew selected.
func (f *FlatLabeling) QueryVia(u, v graph.NodeID) (graph.Weight, graph.NodeID, bool) {
	i, j := int(f.offsets[u]), int(f.offsets[v])
	iEnd, jEnd := int(f.offsets[u+1])-1, int(f.offsets[v+1])-1
	ids, ds := f.hubIDs, f.dists
	if swap, ok := skewed(iEnd-i, jEnd-j); ok {
		var best graph.Weight
		var via graph.NodeID
		if swap {
			best, via = mergeGallopVia(ids[j:jEnd], ds[j:jEnd], ids[i:iEnd], ds[i:iEnd], graph.Infinity)
		} else {
			best, via = mergeGallopVia(ids[i:iEnd], ds[i:iEnd], ids[j:jEnd], ds[j:jEnd], graph.Infinity)
		}
		return best, via, via >= 0
	}
	best := graph.Infinity
	via := graph.NodeID(-1)
	for {
		a, b := ids[i], ids[j]
		if a == b {
			if a == flatSentinel {
				break
			}
			if d := ds[i] + ds[j]; d < best {
				best = d
				via = a
			}
			i++
			j++
			continue
		}
		lt := int(uint64(int64(a)-int64(b)) >> 63)
		i += lt
		j += 1 - lt
	}
	return best, via, via >= 0
}

// queryStream is the saved state of one in-flight merge inside
// QueryBatch: cursors, run ends (exclusive of the sentinel — the hot
// interleave never reads them, only the skew dispatch in mergeRest
// does), the running minimum, and the batch slot the result belongs to.
type queryStream struct {
	i, j, o    int
	iEnd, jEnd int
	best       graph.Weight
}

// QueryBatch answers pairs[k] = (u, v) into out[k] for every k, writing
// graph.Infinity for pairs with no common hub. out must have at least
// len(pairs) entries.
//
// Three merges are kept in flight at all times, their scans interleaved
// in one loop: the merge is latency-bound on its load→compare→advance
// dependency chain, so three independent chains overlap in the pipeline
// and roughly double throughput over repeated Query calls. Whenever one
// merge completes, the next pair of the batch is loaded into the freed
// stream. Zero allocations.
func (f *FlatLabeling) QueryBatch(pairs [][2]graph.NodeID, out []graph.Weight) {
	if len(pairs) < 3 {
		for k, p := range pairs {
			out[k], _ = f.Query(p[0], p[1])
		}
		return
	}
	ids, ds := f.hubIDs, f.dists
	var s [3]queryStream
	for t := 0; t < 3; t++ {
		s[t] = queryStream{
			i: int(f.offsets[pairs[t][0]]), j: int(f.offsets[pairs[t][1]]),
			iEnd: int(f.offsets[pairs[t][0]+1]) - 1, jEnd: int(f.offsets[pairs[t][1]+1]) - 1,
			o: t, best: graph.Infinity,
		}
	}
	k := 3 // next pair to feed into a freed stream
	for active := 3; active == 3; {
		// Hoist stream state into scalars so the hot loop runs on
		// registers; the refill bookkeeping only touches the array.
		i0, j0, b0 := s[0].i, s[0].j, s[0].best
		i1, j1, b1 := s[1].i, s[1].j, s[1].best
		i2, j2, b2 := s[2].i, s[2].j, s[2].best
		fin := -1
		for fin < 0 {
			a0, c0 := ids[i0], ids[j0]
			a1, c1 := ids[i1], ids[j1]
			a2, c2 := ids[i2], ids[j2]
			if a0 == c0 {
				// The sentinel only ever surfaces as a match, so stream
				// completion rides the rare match branch instead of
				// costing a comparison every iteration.
				if a0 == flatSentinel {
					fin = 0
					break
				}
				if d := ds[i0] + ds[j0]; d < b0 {
					b0 = d
				}
				i0++
				j0++
			} else {
				lt := int(uint64(int64(a0)-int64(c0)) >> 63)
				i0 += lt
				j0 += 1 - lt
			}
			if a1 == c1 {
				if a1 == flatSentinel {
					fin = 1
					break
				}
				if d := ds[i1] + ds[j1]; d < b1 {
					b1 = d
				}
				i1++
				j1++
			} else {
				lt := int(uint64(int64(a1)-int64(c1)) >> 63)
				i1 += lt
				j1 += 1 - lt
			}
			if a2 == c2 {
				if a2 == flatSentinel {
					fin = 2
					break
				}
				if d := ds[i2] + ds[j2]; d < b2 {
					b2 = d
				}
				i2++
				j2++
			} else {
				lt := int(uint64(int64(a2)-int64(c2)) >> 63)
				i2 += lt
				j2 += 1 - lt
			}
		}
		s[0].i, s[0].j, s[0].best = i0, j0, b0
		s[1].i, s[1].j, s[1].best = i1, j1, b1
		s[2].i, s[2].j, s[2].best = i2, j2, b2
		out[s[fin].o] = s[fin].best
		if k < len(pairs) {
			s[fin] = queryStream{
				i: int(f.offsets[pairs[k][0]]), j: int(f.offsets[pairs[k][1]]),
				iEnd: int(f.offsets[pairs[k][0]+1]) - 1, jEnd: int(f.offsets[pairs[k][1]+1]) - 1,
				o: k, best: graph.Infinity,
			}
			k++
		} else {
			s[fin] = s[2]
			active = 2
		}
	}
	// Batch exhausted: drain the two remaining streams single-file.
	out[s[0].o] = f.mergeRest(s[0].i, s[0].iEnd, s[0].j, s[0].jEnd, s[0].best)
	out[s[1].o] = f.mergeRest(s[1].i, s[1].iEnd, s[1].j, s[1].jEnd, s[1].best)
}

// mergeRest continues a single merge from saved cursors (run ends
// exclusive of the sentinel) through the shared dispatch. The tails it
// passes run to the end of the columns, not to the run ends, so the
// linear scan's termination rests only on the final sentinel that
// validateOffsets guarantees even on a quick-validated view.
func (f *FlatLabeling) mergeRest(i, iEnd, j, jEnd int, best graph.Weight) graph.Weight {
	ids, ds := f.hubIDs, f.dists
	return mergeRuns(ids[i:], ds[i:], iEnd-i, ids[j:], ds[j:], jEnd-j, best)
}

// ComputeStats returns size statistics for the flat labeling (sentinels
// excluded).
func (f *FlatLabeling) ComputeStats() Stats {
	s := Stats{Vertices: f.NumVertices()}
	for v := 0; v < s.Vertices; v++ {
		sz := f.LabelLen(graph.NodeID(v))
		s.Total += sz
		if sz > s.Max {
			s.Max = sz
		}
	}
	if s.Vertices > 0 {
		s.Avg = float64(s.Total) / float64(s.Vertices)
	}
	return s
}

// NumHubs returns the total number of label entries across all vertices,
// sentinels excluded, in O(1) — it equals ComputeStats().Total.
func (f *FlatLabeling) NumHubs() int { return len(f.hubIDs) - f.NumVertices() }

// SpaceBytes returns the exact storage of the flat arrays: 4 bytes per
// offset plus 8 bytes per slot (hub id + distance), sentinels included,
// plus 4 more per slot when the parent column is present.
func (f *FlatLabeling) SpaceBytes() int64 {
	return int64(len(f.offsets))*4 + int64(len(f.hubIDs))*4 + int64(len(f.dists))*4 +
		int64(len(f.parents))*4
}

// QueryBytes returns the bytes a distance merge can touch — the offsets
// and the hub/distance columns, excluding the parent column (see the
// LabelStore contract; E24 compares this figure across representations).
func (f *FlatLabeling) QueryBytes() int64 {
	return f.SpaceBytes() - 4*int64(len(f.parents))
}

// FromSlices builds a canonical, frozen Labeling directly from raw
// per-vertex hub slices, taking ownership of them. It is the emit path the
// construction algorithms use so their output carries the flat
// representation without an extra copy of the mutable form.
func FromSlices(labels [][]Hub) *Labeling {
	l := &Labeling{labels: labels}
	l.Canonicalize()
	l.Freeze()
	return l
}

// FromSlicesParents is FromSlices for builders that also recorded the
// parent column during their shortest-path passes: parents[v][i] is the
// next hop from v toward labels[v][i] (-1 for self entries). Both slices
// are owned by the result and canonicalized in lockstep.
func FromSlicesParents(labels [][]Hub, parents [][]graph.NodeID) *Labeling {
	if len(parents) != len(labels) {
		panic("hub: parent column does not parallel the labels")
	}
	for v := range labels {
		if len(parents[v]) != len(labels[v]) {
			panic(fmt.Sprintf("hub: vertex %d has %d parents for %d hubs", v, len(parents[v]), len(labels[v])))
		}
	}
	l := &Labeling{labels: labels, parents: parents}
	l.Canonicalize()
	l.Freeze()
	return l
}

// AssembleSlicesParents is FromSlicesParents without the final Freeze: the
// result is canonical but carries no flat copy. It is the emit path for
// builds that stream straight into a container (index.SaveStreaming) —
// freezing a million-vertex labeling just to write it out would double
// peak RSS for nothing. Freeze the result when in-RAM queries are needed.
func AssembleSlicesParents(labels [][]Hub, parents [][]graph.NodeID) *Labeling {
	if len(parents) != len(labels) {
		panic("hub: parent column does not parallel the labels")
	}
	for v := range labels {
		if len(parents[v]) != len(labels[v]) {
			panic(fmt.Sprintf("hub: vertex %d has %d parents for %d hubs", v, len(parents[v]), len(labels[v])))
		}
	}
	l := &Labeling{labels: labels, parents: parents}
	l.Canonicalize()
	return l
}

// labelSorter sorts one label at a time by hub id, reusing its scratch
// across labels. Each entry becomes one uint64 key — hub id in the high
// half, position in the low half — so the sort is the standard library's
// ordered-integer pdqsort with inlined compares (no interface or function
// call per comparison), it is stable, and applying it to the label and to
// its parent column is one gather through the low halves.
type labelSorter struct {
	keys    []uint64
	hubs    []Hub
	parents []graph.NodeID
}

// sort orders hubs by hub id, entries of equal id keeping their relative
// order, and permutes parents (when non-nil) in lockstep.
func (s *labelSorter) sort(hubs []Hub, parents []graph.NodeID) {
	s.keys = s.keys[:0]
	for i, h := range hubs {
		s.keys = append(s.keys, uint64(uint32(h.Node))<<32|uint64(i))
	}
	if slices.IsSorted(s.keys) {
		return
	}
	slices.Sort(s.keys)
	s.hubs = append(s.hubs[:0], hubs...)
	for i, k := range s.keys {
		hubs[i] = s.hubs[uint32(k)]
	}
	if parents != nil {
		s.parents = append(s.parents[:0], parents...)
		for i, k := range s.keys {
			parents[i] = s.parents[uint32(k)]
		}
	}
}

// validate asserts the full structural invariants of the flat arrays. It
// must stay fully defensive — ReadContainerStore runs it on untrusted input
// after the checksum passes, so every index derived from the data is
// bounds-checked before use. It is validateRuns plus validateEntries;
// the split exists for the mmap open path, which runs only the O(n) run
// checks (see OpenStoreMmap for why that suffices for memory
// safety) and leaves the O(slots) entry scan to Validate callers.
func (f *FlatLabeling) validate() error {
	if err := f.validateRuns(); err != nil {
		return err
	}
	return f.validateEntries()
}

// Validate checks every structural invariant of the labeling — the runs
// and every interior entry. Decoded containers are always validated on
// load; for mmap views, which are opened with only the cheap run checks,
// Validate is the opt-in full audit.
func (f *FlatLabeling) Validate() error { return f.validate() }

// validateOffsets asserts the invariants that make every query path
// memory-safe on arbitrary column data, touching only the offsets column
// (a few KB) plus one final slot — never the label pages themselves.
// This is the whole validation budget of the zero-copy open, so the
// safety argument is spelled out:
//
//   - lengths agree and offsets form a monotone, in-bounds cover with
//     non-empty runs, so every slice a query takes (LabelIDs, LabelDists,
//     nextHop, Thaw, the gallop windows) is within the arrays;
//   - the very last slot holds the sentinel, the maximum signed int32.
//     A merge cursor advances only while strictly below the other
//     cursor's value under overflow-safe signed comparison (the widened
//     advance in mergeLinear and the QueryVia/QueryBatch scans — a
//     hostile negative id must order below the sentinel, not wrap past
//     it), or on an equal non-sentinel match; a cursor sitting on the
//     final slot therefore carries the maximum value and can never
//     advance again, and two cursors meeting there terminate the scan. A
//     cursor that overran its run leaves mergeRest a negative remaining
//     length, which mergeRuns answers without slicing. No interior
//     sentinel is needed for safety — interior checks exist for
//     integrity, in validateRuns and validateEntries.
//
// Hostile interiors past these checks can only produce wrong answers
// (the quick-open trust model, see OpenStoreMmap), never an
// out-of-bounds access.
func (f *FlatLabeling) validateOffsets() error {
	n := f.NumVertices()
	if n < 0 {
		return fmt.Errorf("hub: flat labeling missing offsets array")
	}
	if len(f.hubIDs) != len(f.dists) {
		return fmt.Errorf("hub: flat arrays disagree: %d ids, %d dists", len(f.hubIDs), len(f.dists))
	}
	if f.parents != nil && len(f.parents) != len(f.hubIDs) {
		return fmt.Errorf("hub: parent column has %d slots, labels have %d", len(f.parents), len(f.hubIDs))
	}
	if f.offsets[0] != 0 {
		return fmt.Errorf("hub: first offset is %d, want 0", f.offsets[0])
	}
	if int(f.offsets[n]) != len(f.hubIDs) {
		return fmt.Errorf("hub: last offset %d does not cover %d slots", f.offsets[n], len(f.hubIDs))
	}
	for v := 0; v < n; v++ {
		lo, hi := f.offsets[v], f.offsets[v+1]
		if hi <= lo || lo < 0 || int(hi) > len(f.hubIDs) {
			return fmt.Errorf("hub: vertex %d has invalid run [%d,%d)", v, lo, hi)
		}
	}
	if last := len(f.hubIDs) - 1; last >= 0 && f.hubIDs[last] != flatSentinel {
		return fmt.Errorf("hub: final slot holds %d, not the sentinel", f.hubIDs[last])
	}
	return nil
}

// validateRuns asserts the O(n) shape invariants: validateOffsets plus
// every per-vertex run sentinel-terminated (with Infinity, and -1 in the
// parent column).
func (f *FlatLabeling) validateRuns() error {
	if err := f.validateOffsets(); err != nil {
		return err
	}
	n := f.NumVertices()
	for v := 0; v < n; v++ {
		hi := f.offsets[v+1]
		if f.hubIDs[hi-1] != flatSentinel || f.dists[hi-1] != graph.Infinity {
			return fmt.Errorf("hub: vertex %d run not sentinel-terminated", v)
		}
		if f.parents != nil && f.parents[hi-1] != -1 {
			return fmt.Errorf("hub: vertex %d sentinel slot carries parent %d", v, f.parents[hi-1])
		}
	}
	return nil
}

// validateEntries asserts the O(slots) interior invariants (ids sorted
// and in range, distances in range, parents in range). It assumes
// validateRuns already passed.
func (f *FlatLabeling) validateEntries() error {
	n := f.NumVertices()
	for v := 0; v < n; v++ {
		lo, hi := f.offsets[v], f.offsets[v+1]
		for i := lo; i < hi-1; i++ {
			// Hubs are vertices of the same graph, so ids must lie in
			// [0, n) — merely being below the sentinel still lets a
			// hostile container smuggle out-of-graph ids that panic any
			// caller indexing adjacency by hub.
			if f.hubIDs[i] < 0 || int(f.hubIDs[i]) >= n {
				return fmt.Errorf("hub: vertex %d hub id out of range at slot %d", v, i)
			}
			if i > lo && f.hubIDs[i-1] >= f.hubIDs[i] {
				return fmt.Errorf("hub: vertex %d label unsorted at slot %d", v, i)
			}
			// Distances above Infinity could overflow the int32 sum in the
			// merge; negatives would serve nonsense. Infinity itself is
			// allowed (and overflow-safe by its choice of value).
			if f.dists[i] < 0 || f.dists[i] > graph.Infinity {
				return fmt.Errorf("hub: vertex %d distance out of range at slot %d", v, i)
			}
			if f.parents != nil {
				// A self entry (hub == vertex) has no hop and must store -1;
				// every other entry names a real next-hop vertex distinct
				// from v — AppendPath indexes labels by it, so a hostile
				// container must not smuggle ids that escape [0, n) or
				// self-loop the walk.
				p := f.parents[i]
				if f.hubIDs[i] == graph.NodeID(v) {
					if p != -1 {
						return fmt.Errorf("hub: vertex %d self entry carries parent %d", v, p)
					}
				} else if p < 0 || int(p) >= n || p == graph.NodeID(v) {
					return fmt.Errorf("hub: vertex %d parent out of range at slot %d", v, i)
				}
			}
		}
	}
	return nil
}
