package hub

import (
	"fmt"
	"io"
	"slices"

	"hublab/internal/graph"
	"hublab/internal/mmapio"
)

// CompactLabeling is the compressed queryable representation of a hub
// labeling — the second LabelStore implementation, and what the
// version-4 container stores.
//
// Three ideas compose:
//
//   - Frequency-ranked hub-id remapping. Hub ids are renamed so the hubs
//     carried by the most labels get the smallest ids (rank 0 = hottest).
//     remap[rank] is the original id, inv[orig] the rank. Label entries
//     are stored sorted by rank, which concentrates almost every run in
//     a tiny id range and makes consecutive-rank deltas small.
//   - Narrow delta columns with escape slots. Per entry, one byte stores
//     the rank delta to the previous entry minus one (0xFF escapes to a
//     raw int32 in the shared esc array), and one byte (or two, when the
//     wide flag is set) stores the zig-zag delta of the distance to the
//     previous entry's distance (0xFF / 0xFFFF escapes to the raw
//     distance). Escapes land in the esc array interleaved in decode
//     order, CSR'd per vertex by escOff, so decoding is one forward
//     scan with no random access.
//   - Canonical encoding. An escape is used exactly when the value does
//     not fit the narrow code; Validate rejects any non-canonical byte,
//     so a given labeling has exactly one compact encoding — the
//     byte-identity guarantees between the freeze-path and streaming
//     writers rest on this.
//
// At two bytes per entry (narrow distances) against the expanded form's
// eight, the resident working set shrinks ~4×. A distance query decodes
// both runs into pooled scratch, each closed by a sentinel slot, and
// then runs the flat layout's merge core on ranks (merge.go), so both
// layouts share one set of merge kernels and one skew dispatch. On
// hostile (quick-validated mmap) interiors every escape-slot read is
// bounds-checked and rank/distance accumulators may wrap, producing
// wrong answers but never an out-of-bounds access.
//
// The parent column, when present, is stored raw (one int32 per entry,
// original-id space, entry order): parents are near-incompressible
// next-hop ids, and keeping them columnar means a distance-only workload
// never faults their pages in.
//
// A CompactLabeling is immutable and safe for concurrent queries. Like
// FlatLabeling it is either owned or an mmap view (see Owned, Release);
// inv is always heap-owned — it is rebuilt (and remap verified to be a
// permutation) at every open, which is what keeps remap lookups
// in-bounds even on forged containers.
type CompactLabeling struct {
	n       int
	offsets []int32 // len n+1: entry CSR (no sentinels; empty runs allowed)
	remap   []graph.NodeID
	inv     []int32
	escOff  []int32 // len n+1: CSR into esc
	// hubDelta[k] codes entry k's rank; distDelta codes its distance
	// (stride 1, or 2 little-endian when wide).
	hubDelta  []byte
	distDelta []byte
	esc       []int32
	parents   []graph.NodeID // len entries or nil
	wide      bool
	ref       *mmapio.Mapping
}

// Compact byte-code constants: a one-byte code stores values in
// [0, maxDelta8]; escByte (and escWord for two-byte codes, up to
// maxZig16) marks an escape to the raw int32 in the esc array.
const (
	escByte   = 0xFF
	escWord   = 0xFFFF
	maxDelta8 = 254
	maxZig16  = 65534
)

// zig32 maps a signed delta to its zig-zag code (0, -1, 1, -2, … →
// 0, 1, 2, 3, …) so small negative deltas stay in the narrow byte range.
func zig32(d int32) uint32 { return uint32(d)<<1 ^ uint32(d>>31) }

// unzig32 inverts zig32.
func unzig32(z uint32) graph.Weight { return graph.Weight(int32(z>>1) ^ -int32(z&1)) }

// NumVertices returns the number of vertices the labeling covers.
func (c *CompactLabeling) NumVertices() int { return c.n }

// NumHubs returns the total label entries, in O(1).
func (c *CompactLabeling) NumHubs() int { return len(c.hubDelta) }

// LabelLen returns |S(v)|.
func (c *CompactLabeling) LabelLen(v graph.NodeID) int {
	return int(c.offsets[v+1] - c.offsets[v])
}

// Wide reports whether the distance column uses two-byte codes.
func (c *CompactLabeling) Wide() bool { return c.wide }

// Owned reports whether the labeling's arrays are heap-owned; false for
// mmap views (see FlatLabeling.Owned for the lifetime contract).
func (c *CompactLabeling) Owned() bool { return c.ref == nil }

// Release ends a view's lifetime and unmaps its container (no-op when
// owned or already released). See FlatLabeling.Release.
func (c *CompactLabeling) Release() error {
	if c.ref == nil {
		return nil
	}
	return c.ref.Close()
}

// Representation implements LabelStore.
func (c *CompactLabeling) Representation() string { return RepCompact }

// HasParents reports whether the parent column is present.
func (c *CompactLabeling) HasParents() bool { return c.parents != nil }

// SpaceBytes returns the exact resident storage: the three CSR arrays,
// the remap table and its heap-built inverse, the narrow delta columns,
// the escape slots and the optional parent column.
func (c *CompactLabeling) SpaceBytes() int64 {
	return 4*(int64(len(c.offsets))+int64(len(c.remap))+int64(len(c.inv))+
		int64(len(c.escOff))+int64(len(c.esc))+int64(len(c.parents))) +
		int64(len(c.hubDelta)) + int64(len(c.distDelta))
}

// QueryBytes returns the bytes a distance merge can touch — everything
// except the parent column. This is the resident working set of a
// distance-only serving workload on a mapped container (parent pages are
// only ever faulted in by path queries); E24 reports it next to the
// expanded form's equivalent.
func (c *CompactLabeling) QueryBytes() int64 {
	return c.SpaceBytes() - 4*int64(len(c.parents))
}

// ComputeStats returns size statistics (entries only; no sentinels
// exist in this representation).
func (c *CompactLabeling) ComputeStats() Stats {
	s := Stats{Vertices: c.n}
	for v := 0; v < c.n; v++ {
		sz := int(c.offsets[v+1] - c.offsets[v])
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

// escSlot reads escape slot e, returning the raw value and the advanced
// cursor. The read is bounds-checked rather than trusted: on a
// quick-validated mmap view a hostile escOff interior can aim e past the
// escape section, and the merge must degrade to a wrong value (zero),
// never an out-of-bounds read. Outlined from the step decoders so they
// stay within the inlining budget.
func escSlot(esc []int32, e int32) (int32, int32) {
	if int(e) < len(esc) {
		return esc[e], e + 1
	}
	return 0, e
}

// stepHub decodes the hub byte of entry k, advancing the rank
// accumulator r and the escape cursor e. k is trusted (the caller
// ranges it over a validated offsets run). Split from the distance
// half so each piece fits the compiler's inlining budget — the run
// decoders (decodeRunNarrow/Wide) take this path on escapes and must not
// pay a function call for it.
func stepHub(hd []byte, esc []int32, k int, e, r int32) (int32, int32) {
	if b := hd[k]; b != escByte {
		return e, r + int32(b) + 1
	}
	r, e = escSlot(esc, e)
	return e, r
}

// stepDistNarrow decodes the one-byte distance code of entry k,
// advancing the distance accumulator d and the escape cursor e.
// Inlinable, like stepHub.
func stepDistNarrow(dd []byte, esc []int32, k int, e int32, d graph.Weight) (int32, graph.Weight) {
	if b := dd[k]; b != escByte {
		return e, d + unzig32(uint32(b))
	}
	raw, e := escSlot(esc, e)
	return e, graph.Weight(raw)
}

// stepDistWide is stepDistNarrow for the two-byte distance layout.
func stepDistWide(dd []byte, esc []int32, k int, e int32, d graph.Weight) (int32, graph.Weight) {
	if z := uint32(dd[2*k]) | uint32(dd[2*k+1])<<8; z != escWord {
		return e, d + unzig32(z)
	}
	raw, e := escSlot(esc, e)
	return e, graph.Weight(raw)
}

// stepNarrow decodes entry k of the narrow (one-byte distance) layout —
// the hub half then the distance half. The cold decode paths (Label,
// path unpacking, expansion, audits) call it for clarity; the run
// decoders call the two halves directly so both inline.
func stepNarrow(hd, dd []byte, esc []int32, k, e, r int32, d graph.Weight) (int32, int32, graph.Weight) {
	e, r = stepHub(hd, esc, int(k), e, r)
	e, d = stepDistNarrow(dd, esc, int(k), e, d)
	return e, r, d
}

// stepWide is stepNarrow for the two-byte distance layout.
func stepWide(hd, dd []byte, esc []int32, k, e, r int32, d graph.Weight) (int32, int32, graph.Weight) {
	e, r = stepHub(hd, esc, int(k), e, r)
	e, d = stepDistWide(dd, esc, int(k), e, d)
	return e, r, d
}

// Query decodes both runs into pooled scratch (see compact_batch.go)
// and answers the pair with the shared merge core — the same dispatch,
// kernels and sentinel-terminated scan as FlatLabeling.Query, run over
// ranks instead of ids. Zero allocations in steady state; returns
// Infinity and false when the labels share no hub.
func (c *CompactLabeling) Query(u, v graph.NodeID) (graph.Weight, bool) {
	sc := batchScratchPool.Get().(*batchScratch)
	idA, dA := c.decodeRun(u, sc.id[0], sc.d[0])
	idB, dB := c.decodeRun(v, sc.id[1], sc.d[1])
	sc.id[0], sc.d[0], sc.id[1], sc.d[1] = idA, dA, idB, dB
	best := mergeRuns(idA, dA, len(idA)-1, idB, dB, len(idB)-1, graph.Infinity)
	batchScratchPool.Put(sc)
	return best, best < graph.Infinity
}

// QueryVia is Query but also returns the minimizing hub as an original
// vertex id. The runs are scanned in rank order, not id order, so ties
// on the distance are broken explicitly toward the smallest original
// id — exactly the hub the expanded kernel's first-strict-improvement
// scan settles on. This is what keeps unpacked witness paths identical
// between the two representations.
func (c *CompactLabeling) QueryVia(u, v graph.NodeID) (graph.Weight, graph.NodeID, bool) {
	step := stepNarrow
	if c.wide {
		step = stepWide
	}
	hd, dd, esc := c.hubDelta, c.distDelta, c.esc
	i, iEnd := c.offsets[u], c.offsets[u+1]
	j, jEnd := c.offsets[v], c.offsets[v+1]
	if i == iEnd || j == jEnd {
		return graph.Infinity, -1, false
	}
	eA, eB := c.escOff[u], c.escOff[v]
	ra, da := int32(-1), graph.Weight(0)
	rb, db := int32(-1), graph.Weight(0)
	best := graph.Infinity
	via := graph.NodeID(-1)
	eA, ra, da = step(hd, dd, esc, i, eA, ra, da)
	i++
	eB, rb, db = step(hd, dd, esc, j, eB, rb, db)
	j++
	for {
		if ra == rb {
			// Hostile ranks outside [0, n) (possible only on a
			// quick-validated view) cannot name a hub; they still update
			// best so Query and QueryVia agree on the distance.
			if d := da + db; d < best || (d == best && via >= 0) {
				if orig := graph.NodeID(-1); ra >= 0 && int(ra) < c.n {
					orig = c.remap[ra]
					if d < best || orig < via {
						via = orig
					}
				}
				if d < best {
					best = d
				}
			}
			if i >= iEnd || j >= jEnd {
				break
			}
			eA, ra, da = step(hd, dd, esc, i, eA, ra, da)
			i++
			eB, rb, db = step(hd, dd, esc, j, eB, rb, db)
			j++
		} else if ra < rb {
			if i >= iEnd {
				break
			}
			eA, ra, da = step(hd, dd, esc, i, eA, ra, da)
			i++
		} else {
			if j >= jEnd {
				break
			}
			eB, rb, db = step(hd, dd, esc, j, eB, rb, db)
			j++
		}
	}
	return best, via, via >= 0
}

// QueryBatch answers pairs[k] into out[k] by decoding each pair's runs
// into pooled scratch and merging balanced pairs two at a time in
// lockstep so their load→advance chains overlap (see compact_batch.go).
// Empty and skewed pairs are answered by the shared dispatch instead of
// joining the lockstep, which would burn lockstep iterations on the long
// run. Measured on gnm10k (E25) this brings the batched compact premium
// over the expanded batch to ~1.33–1.40×, down from 1.46× for a serial
// decode-then-merge and ~1.9× for an interleave of byte-decoding
// merges, whose dependent decode chains never overlap.
func (c *CompactLabeling) QueryBatch(pairs [][2]graph.NodeID, out []graph.Weight) {
	if len(pairs) == 0 {
		return
	}
	sc := batchScratchPool.Get().(*batchScratch)
	c.queryBatchLockstep(sc, pairs, out)
	batchScratchPool.Put(sc)
}

// Label implements LabelStore: the run of v is decoded into the
// provided buffers (grown as needed) with hub ids mapped back to
// original vertex ids. The order is rank order — ascending hub
// frequency rank, not ascending id.
func (c *CompactLabeling) Label(v graph.NodeID, idBuf []graph.NodeID, dBuf []graph.Weight) ([]graph.NodeID, []graph.Weight) {
	ids, ds := idBuf[:0], dBuf[:0]
	step := stepNarrow
	if c.wide {
		step = stepWide
	}
	i, iEnd := c.offsets[v], c.offsets[v+1]
	e := c.escOff[v]
	r, d := int32(-1), graph.Weight(0)
	for ; i < iEnd; i++ {
		e, r, d = step(c.hubDelta, c.distDelta, c.esc, i, e, r, d)
		// A rank outside [0, n) can only come from a hostile
		// quick-validated interior; it names no hub, so it must surface as
		// the invalid id -1 — the same loud failure every other hostile
		// path produces — never as the raw rank, which a caller could
		// mistake for a real (and wrong) vertex id.
		orig := graph.NodeID(-1)
		if r >= 0 && int(r) < c.n {
			orig = c.remap[r]
		}
		ids = append(ids, orig)
		ds = append(ds, d)
	}
	return ids, ds
}

// NextHop returns the stored next hop from v toward hub h (-1 for the
// self entry); ok is false when h ∉ S(v) or there is no parent column.
// The run is decoded forward until the rank of h is met — O(|S(v)|).
func (c *CompactLabeling) NextHop(v, h graph.NodeID) (graph.NodeID, bool) {
	if c.parents == nil {
		return -1, false
	}
	return c.hopToward(v, h)
}

func (c *CompactLabeling) hopToward(v, h graph.NodeID) (graph.NodeID, bool) {
	if h < 0 || int(h) >= c.n {
		return -1, false
	}
	target := c.inv[h]
	step := stepNarrow
	if c.wide {
		step = stepWide
	}
	i, iEnd := c.offsets[v], c.offsets[v+1]
	e := c.escOff[v]
	r, d := int32(-1), graph.Weight(0)
	for ; i < iEnd; i++ {
		e, r, d = step(c.hubDelta, c.distDelta, c.esc, i, e, r, d)
		if r >= target {
			if r == target {
				return c.parents[i], true
			}
			return -1, false
		}
	}
	return -1, false
}

// AppendPath unpacks one shortest u–v path through the parent column;
// see FlatLabeling.AppendPath for the full contract. The walk is the
// shared two-ended kernel, so the unpacked path is identical to the
// expanded representation's.
func (c *CompactLabeling) AppendPath(dst []graph.NodeID, u, v graph.NodeID) ([]graph.NodeID, error) {
	return appendPathOver(c, dst, u, v)
}

// Path returns one shortest u–v path as a fresh slice.
func (c *CompactLabeling) Path(u, v graph.NodeID) ([]graph.NodeID, error) {
	return c.AppendPath(nil, u, v)
}

// Thaw materializes a mutable Labeling as a deep copy (never aliasing a
// mapped container), with labels in canonical id order.
func (c *CompactLabeling) Thaw() *Labeling { return c.Expand().Thaw() }

// expandEntry is one decoded label entry during Expand.
type expandEntry struct {
	orig   graph.NodeID
	dist   graph.Weight
	parent graph.NodeID
}

// Expand decodes the compact labeling into an owned FlatLabeling —
// original-id-sorted sentinel-terminated runs, exactly what Freeze of
// the same labeling builds, so the two representations' containers
// round-trip into byte-identical expanded forms. Expand of a view is a
// deep copy and stays valid after Release. The output's structural
// invariants hold even when c is a quick-validated hostile view (the
// decoded values may then be garbage, but the flat arrays are
// well-formed).
func (c *CompactLabeling) Expand() *FlatLabeling {
	n := c.n
	entries := len(c.hubDelta)
	f := &FlatLabeling{
		offsets: make([]int32, n+1),
		hubIDs:  make([]graph.NodeID, entries+n),
		dists:   make([]graph.Weight, entries+n),
	}
	if c.parents != nil {
		f.parents = make([]graph.NodeID, entries+n)
	}
	step := stepNarrow
	if c.wide {
		step = stepWide
	}
	var es []expandEntry
	pos := int32(0)
	for v := 0; v < n; v++ {
		i, iEnd := c.offsets[v], c.offsets[v+1]
		e := c.escOff[v]
		r, d := int32(-1), graph.Weight(0)
		es = es[:0]
		for ; i < iEnd; i++ {
			e, r, d = step(c.hubDelta, c.distDelta, c.esc, i, e, r, d)
			// Hostile out-of-range ranks surface as -1, matching Label —
			// the raw rank must never leak as a fake hub id.
			ent := expandEntry{orig: graph.NodeID(-1), dist: d, parent: -1}
			if r >= 0 && int(r) < n {
				ent.orig = c.remap[r]
			}
			if c.parents != nil {
				ent.parent = c.parents[i]
			}
			es = append(es, ent)
		}
		slices.SortFunc(es, func(a, b expandEntry) int {
			if a.orig != b.orig {
				if a.orig < b.orig {
					return -1
				}
				return 1
			}
			if a.dist != b.dist {
				if a.dist < b.dist {
					return -1
				}
				return 1
			}
			return 0
		})
		f.offsets[v] = pos
		for _, ent := range es {
			f.hubIDs[pos] = ent.orig
			f.dists[pos] = ent.dist
			if f.parents != nil {
				f.parents[pos] = ent.parent
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

// compactPlan is the deterministic global layout of a compact encoding:
// the frequency-ranked remap table, the distance-column width, and the
// exact entry and escape-slot totals. The freeze-path writer and the
// streaming writer compute identical plans from the same labeling, which
// is one half of the byte-identity guarantee (the shared per-vertex
// encoder is the other).
type compactPlan struct {
	remap   []graph.NodeID
	inv     []int32
	wide    bool
	entries int64
	escs    int64
}

// compactEntry is one label entry in rank space, the unit the per-vertex
// encoder consumes (sorted ascending by rank).
type compactEntry struct {
	rank   int32
	dist   graph.Weight
	parent graph.NodeID
}

// sortCompactEntries orders a vertex's entries by rank. Ranks within one
// vertex are distinct (the remap is a bijection over distinct hub ids),
// so the order — and with it the encoded bytes — is deterministic.
func sortCompactEntries(es []compactEntry) {
	slices.SortFunc(es, func(a, b compactEntry) int {
		if a.rank < b.rank {
			return -1
		}
		if a.rank > b.rank {
			return 1
		}
		return 0
	})
}

// planCompactFrom computes the compact plan for n vertices whose labels
// the callback yields (ids in [0, n), any order; the returned slices are
// only read before the next call). Two passes: hub frequencies → remap,
// then a per-vertex rank-sort to count escapes exactly. The distance
// column goes wide when more than 1 in 8 entries would escape a one-byte
// zig-zag delta — past that, paying one extra byte on every entry is
// cheaper than four on every escape, and the threshold is deterministic
// so every writer picks the same width.
func planCompactFrom(n int, label func(v int) ([]graph.NodeID, []graph.Weight)) *compactPlan {
	freq := make([]int64, n)
	var entries int64
	for v := 0; v < n; v++ {
		ids, _ := label(v)
		for _, h := range ids {
			freq[h]++
		}
		entries += int64(len(ids))
	}
	remap := make([]graph.NodeID, n)
	for i := range remap {
		remap[i] = graph.NodeID(i)
	}
	slices.SortFunc(remap, func(a, b graph.NodeID) int {
		if freq[a] != freq[b] {
			if freq[a] > freq[b] {
				return -1
			}
			return 1
		}
		if a < b {
			return -1
		}
		if a > b {
			return 1
		}
		return 0
	})
	inv := make([]int32, n)
	for r, h := range remap {
		inv[h] = int32(r)
	}
	var hubEsc, dist8Esc, dist16Esc int64
	var es []compactEntry
	for v := 0; v < n; v++ {
		ids, ds := label(v)
		es = es[:0]
		for k, h := range ids {
			es = append(es, compactEntry{rank: inv[h], dist: ds[k]})
		}
		sortCompactEntries(es)
		prevRank, prevDist := int32(-1), graph.Weight(0)
		for _, ent := range es {
			if ent.rank-prevRank-1 > maxDelta8 {
				hubEsc++
			}
			z := zig32(int32(ent.dist - prevDist))
			if z > maxDelta8 {
				dist8Esc++
			}
			if z > maxZig16 {
				dist16Esc++
			}
			prevRank, prevDist = ent.rank, ent.dist
		}
	}
	p := &compactPlan{remap: remap, inv: inv, entries: entries}
	p.wide = dist8Esc*8 > entries
	if p.wide {
		p.escs = hubEsc + dist16Esc
	} else {
		p.escs = hubEsc + dist8Esc
	}
	return p
}

// planCompactLabeling is planCompactFrom over the mutable (canonical)
// labeling form — the streaming writer's entry point.
func planCompactLabeling(l *Labeling) *compactPlan {
	var idBuf []graph.NodeID
	var dBuf []graph.Weight
	return planCompactFrom(len(l.labels), func(v int) ([]graph.NodeID, []graph.Weight) {
		idBuf, dBuf = idBuf[:0], dBuf[:0]
		for _, h := range l.labels[v] {
			idBuf = append(idBuf, h.Node)
			dBuf = append(dBuf, h.Dist)
		}
		return idBuf, dBuf
	})
}

// appendVertexCompact encodes one vertex's rank-sorted entries onto the
// compact columns, appending to the passed slices and returning them.
// It is THE encoder — both the freeze-path writer (CompactFromFlat) and
// the streaming writer feed their per-vertex entries through it, so the
// emitted bytes cannot diverge. Escapes are canonical: used exactly when
// the value does not fit the narrow code.
func appendVertexCompact(hd, dd []byte, esc []int32, par []graph.NodeID,
	es []compactEntry, wide, withParents bool) ([]byte, []byte, []int32, []graph.NodeID) {
	prevRank, prevDist := int32(-1), graph.Weight(0)
	for _, ent := range es {
		if delta := ent.rank - prevRank - 1; delta >= 0 && delta <= maxDelta8 {
			hd = append(hd, byte(delta))
		} else {
			hd = append(hd, escByte)
			esc = append(esc, ent.rank)
		}
		z := zig32(int32(ent.dist - prevDist))
		if !wide {
			if z <= maxDelta8 {
				dd = append(dd, byte(z))
			} else {
				dd = append(dd, escByte)
				esc = append(esc, int32(ent.dist))
			}
		} else {
			if z <= maxZig16 {
				dd = append(dd, byte(z), byte(z>>8))
			} else {
				dd = append(dd, escByte, escByte)
				esc = append(esc, int32(ent.dist))
			}
		}
		if withParents {
			par = append(par, ent.parent)
		}
		prevRank, prevDist = ent.rank, ent.dist
	}
	return hd, dd, esc, par
}

// CompactFromFlat re-encodes a flat labeling into the compact
// representation. f must be structurally valid (every freshly built or
// decoded labeling is; run Validate first on labelings of unknown
// provenance — hub ids outside [0, n) cannot be rank-mapped).
func CompactFromFlat(f *FlatLabeling) *CompactLabeling {
	n := f.NumVertices()
	plan := planCompactFrom(n, func(v int) ([]graph.NodeID, []graph.Weight) {
		return f.LabelIDs(graph.NodeID(v)), f.LabelDists(graph.NodeID(v))
	})
	c := &CompactLabeling{
		n:       n,
		offsets: make([]int32, n+1),
		remap:   plan.remap,
		inv:     plan.inv,
		escOff:  make([]int32, n+1),
		wide:    plan.wide,
	}
	c.hubDelta = make([]byte, 0, plan.entries)
	stride := int64(1)
	if plan.wide {
		stride = 2
	}
	c.distDelta = make([]byte, 0, stride*plan.entries)
	c.esc = make([]int32, 0, plan.escs)
	withParents := f.HasParents()
	if withParents {
		c.parents = make([]graph.NodeID, 0, plan.entries)
	}
	var es []compactEntry
	for v := 0; v < n; v++ {
		c.offsets[v] = int32(len(c.hubDelta))
		c.escOff[v] = int32(len(c.esc))
		ids, ds := f.LabelIDs(graph.NodeID(v)), f.LabelDists(graph.NodeID(v))
		es = es[:0]
		for k, h := range ids {
			ent := compactEntry{rank: plan.inv[h], dist: ds[k], parent: -1}
			if withParents {
				ent.parent = f.parents[int(f.offsets[v])+k]
			}
			es = append(es, ent)
		}
		sortCompactEntries(es)
		c.hubDelta, c.distDelta, c.esc, c.parents =
			appendVertexCompact(c.hubDelta, c.distDelta, c.esc, c.parents, es, c.wide, withParents)
	}
	c.offsets[n] = int32(len(c.hubDelta))
	c.escOff[n] = int32(len(c.esc))
	return c
}

// WriteContainer serializes the labeling: Compact emits the compact
// layout natively; otherwise the labeling is expanded first (an
// O(entries) decode) and written in the expanded layout.
func (c *CompactLabeling) WriteContainer(w io.Writer, opts ContainerOptions) (int64, error) {
	if !opts.Compact {
		return writeSections(w, c.Expand())
	}
	return writeSections(w, c)
}

// buildInv verifies that remap is a permutation of [0, n) and returns
// its heap-owned inverse. Run at every open of a compact container: it
// is what makes remap[rank] lookups in QueryVia/Label/Expand, and
// inv[h] lookups in NextHop, unconditionally in-bounds afterwards — part
// of the O(n) quick-open validation budget.
func (c *CompactLabeling) buildInv() error {
	inv := make([]int32, c.n)
	seen := make([]bool, c.n)
	for r, h := range c.remap {
		if h < 0 || int(h) >= c.n || seen[h] {
			return fmt.Errorf("hub: remap table is not a permutation (rank %d maps to %d)", r, h)
		}
		seen[h] = true
		inv[h] = int32(r)
	}
	c.inv = inv
	return nil
}

// validateQuick asserts the O(n) invariants that make every compact
// query path memory-safe on arbitrary interior data — the whole
// validation budget of the zero-copy open (the compact analogue of
// FlatLabeling.validateOffsets):
//
//   - column lengths agree with the entry CSR and the declared stride;
//   - offsets is a monotone cover of [0, entries] (empty runs are legal:
//     there are no sentinels), so every entry index a kernel derives is
//     in range for hubDelta, distDelta and parents;
//   - escOff is a monotone cover of [0, len(esc)], so escape cursors
//     start in range (every subsequent escape read is bounds-checked in
//     the step functions);
//   - remap is a permutation of [0, n) (buildInv), so unremapping and
//     inverse lookups are always in-bounds.
//
// Rank and distance accumulators are intentionally NOT validated here:
// they can wrap on hostile deltas, which yields wrong answers but never
// an out-of-bounds access (the merge terminates on entry counters, not
// values). Validate adds the full interior audit.
func (c *CompactLabeling) validateQuick() error {
	n := c.n
	if n < 0 || len(c.offsets) != n+1 || len(c.escOff) != n+1 || len(c.remap) != n {
		return fmt.Errorf("hub: compact arrays disagree with %d vertices", n)
	}
	entries := len(c.hubDelta)
	stride := 1
	if c.wide {
		stride = 2
	}
	if len(c.distDelta) != stride*entries {
		return fmt.Errorf("hub: distance column has %d bytes for %d entries (stride %d)", len(c.distDelta), entries, stride)
	}
	if c.parents != nil && len(c.parents) != entries {
		return fmt.Errorf("hub: parent column has %d slots, labels have %d entries", len(c.parents), entries)
	}
	if c.offsets[0] != 0 || int(c.offsets[n]) != entries {
		return fmt.Errorf("hub: entry CSR covers [%d,%d], want [0,%d]", c.offsets[0], c.offsets[n], entries)
	}
	if c.escOff[0] != 0 || int(c.escOff[n]) != len(c.esc) {
		return fmt.Errorf("hub: escape CSR covers [%d,%d], want [0,%d]", c.escOff[0], c.escOff[n], len(c.esc))
	}
	for v := 0; v < n; v++ {
		if c.offsets[v+1] < c.offsets[v] {
			return fmt.Errorf("hub: vertex %d entry run [%d,%d) is not monotone", v, c.offsets[v], c.offsets[v+1])
		}
		if c.escOff[v+1] < c.escOff[v] {
			return fmt.Errorf("hub: vertex %d escape run [%d,%d) is not monotone", v, c.escOff[v], c.escOff[v+1])
		}
	}
	if len(c.inv) != n {
		return c.buildInv()
	}
	return nil
}

// Validate runs the full structural audit: validateQuick plus a decode
// of every entry checking rank monotonicity and range, distance range,
// exact per-vertex escape-slot consumption, parent-column invariants,
// and encoding canonicality (an escape byte where the narrow code would
// have fit, or vice versa, is rejected — each labeling has exactly one
// valid compact encoding). Decoded containers always pass through here;
// for mmap views it is the opt-in audit.
func (c *CompactLabeling) Validate() error {
	if err := c.validateQuick(); err != nil {
		return err
	}
	n := int32(c.n)
	for v := 0; v < c.n; v++ {
		i, iEnd := c.offsets[v], c.offsets[v+1]
		e, eEnd := c.escOff[v], c.escOff[v+1]
		prevRank, prevDist := int32(-1), graph.Weight(0)
		for ; i < iEnd; i++ {
			var rank int32
			if b := c.hubDelta[i]; b != escByte {
				rank = prevRank + 1 + int32(b)
			} else {
				if e >= eEnd {
					return fmt.Errorf("hub: vertex %d escape slots overrun at entry %d", v, i)
				}
				rank = c.esc[e]
				e++
				if rank-prevRank-1 <= maxDelta8 {
					return fmt.Errorf("hub: vertex %d entry %d escapes a rank delta that fits the narrow code", v, i)
				}
			}
			if rank <= prevRank || rank >= n {
				return fmt.Errorf("hub: vertex %d entry %d rank %d out of order or range", v, i, rank)
			}
			var dist graph.Weight
			var z uint32
			var zmax uint32 = maxDelta8
			if !c.wide {
				z = uint32(c.distDelta[i])
			} else {
				z = uint32(c.distDelta[2*i]) | uint32(c.distDelta[2*i+1])<<8
				zmax = maxZig16
			}
			if z != zmax+1 { // zmax+1 == escByte / escWord
				dist = prevDist + unzig32(z)
			} else {
				if e >= eEnd {
					return fmt.Errorf("hub: vertex %d escape slots overrun at entry %d", v, i)
				}
				dist = graph.Weight(c.esc[e])
				e++
				if zig32(int32(dist-prevDist)) <= zmax {
					return fmt.Errorf("hub: vertex %d entry %d escapes a distance delta that fits the narrow code", v, i)
				}
			}
			if dist < 0 || dist > graph.Infinity {
				return fmt.Errorf("hub: vertex %d entry %d distance %d out of range", v, i, dist)
			}
			if c.parents != nil {
				p := c.parents[i]
				if orig := c.remap[rank]; orig == graph.NodeID(v) {
					if p != -1 {
						return fmt.Errorf("hub: vertex %d self entry carries parent %d", v, p)
					}
				} else if p < 0 || p >= graph.NodeID(n) || p == graph.NodeID(v) {
					return fmt.Errorf("hub: vertex %d parent out of range at entry %d", v, i)
				}
			}
			prevRank, prevDist = rank, dist
		}
		if e != eEnd {
			return fmt.Errorf("hub: vertex %d consumes %d of its %d escape slots", v, e-c.escOff[v], eEnd-c.escOff[v])
		}
	}
	return nil
}
