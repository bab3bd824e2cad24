package hub

import (
	"sync"

	"hublab/internal/graph"
)

// Compact queries: decode, then run the shared merge core.
//
// A fused kernel that decodes bytes inside the merge pays for every
// entry twice — a dependent byte-decode chain (delta add, escape test,
// zig-zag) feeding an unpredictable three-way merge branch — and two
// such merges interleaved hide none of the stall: the decode chain
// blocks at the head of the reorder window regardless of how many
// merges are in flight (the refilled-interleave variant ran at a ~1.9×
// premium over the expanded batch on gnm10k).
//
// Splitting the phases wins instead. Each run is decoded by a tight
// sequential loop into pooled scratch (the chain shrinks to a one-add
// prefix sum over bytes the hardware prefetcher streams, ~1.15 µs/query
// on gnm10k) and closed with a flatSentinel slot, so the merge then runs
// over L1-hot int32 scratch with exactly the kernels, dispatch and
// termination argument of the flat layout (merge.go). Query does this
// for one pair. QueryBatch keeps two balanced pairs in flight and merges
// them in lockstep, since two independent merges' load→advance chains
// overlap in the pipeline: on the gnm10k fixture (1024 random pairs,
// min-of-10 alternating rounds) expanded batch ~2.4 µs/q,
// decode+serial merge ~3.6 µs/q, decode+lockstep pair ~3.3 µs/q.
//
// Variants tried and rejected by the same harness: lazy distance
// decode (stop at the last matching rank — random pairs share hubs
// deep into both runs, so the lazy prefix covered nearly everything
// and the extra passes doubled the cost); three lockstep streams
// (register spills, 1.46); sorting four pairs by decoded length to
// pair like-sized merges (no change); a shared decode arena with
// integer cursors instead of slice headers (no change, 1.47).
// Empty and skewed pairs never enter the lockstep at all — fillStream
// answers them through mergeRuns, the same dispatch flat queries use.

// batchScratch holds the decoded runs of the two pairs a batch keeps
// in flight: slots 0,1 for stream 0, slots 2,3 for stream 1 (a single
// Query uses slots 0,1). Buffers grow to the longest run seen and are
// recycled through a pool so concurrent server shards never share or
// reallocate them.
type batchScratch struct {
	id [4][]graph.NodeID
	d  [4][]graph.Weight
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// decodeRun decodes vertex v's run into ids/ds (grown as needed) and
// closes it with a sentinel slot (flatSentinel, Infinity), returning the
// filled slices — LabelLen(v)+1 entries long, so the merge core can run
// on them unchanged. Escape codes take the outlined slow path;
// everything else is a two-byte load and two adds per entry.
// Bounds come from the validated offsets/escOff arrays, so on a
// hostile quick-validated view this degrades to wrong decoded values,
// never to out-of-bounds access: a hostile value equal to the sentinel
// can only end a linear merge early, since each decoded run still ends
// in a real sentinel slot.
func (c *CompactLabeling) decodeRun(v graph.NodeID, ids []graph.NodeID, ds []graph.Weight) ([]graph.NodeID, []graph.Weight) {
	if c.wide {
		return c.decodeRunWide(v, ids, ds)
	}
	return c.decodeRunNarrow(v, ids, ds)
}

func (c *CompactLabeling) decodeRunNarrow(v graph.NodeID, ids []graph.NodeID, ds []graph.Weight) ([]graph.NodeID, []graph.Weight) {
	i0, i1 := c.offsets[v], c.offsets[v+1]
	hd, dd := c.hubDelta[i0:i1], c.distDelta[i0:i1]
	esc, e := c.esc, c.escOff[v]
	ln := len(hd)
	dd = dd[:ln] // equal lengths, restated so the loop's dd loads need no bounds checks
	if cap(ids) <= ln {
		ids = make([]graph.NodeID, ln+1)
		ds = make([]graph.Weight, ln+1)
	}
	ids, ds = ids[:ln+1], ds[:ln+1]
	ids[ln], ds[ln] = flatSentinel, graph.Infinity
	r, d := int32(-1), graph.Weight(0)
	k := 0
	for ; k+1 < ln; k += 2 {
		hb0, db0 := hd[k], dd[k]
		hb1, db1 := hd[k+1], dd[k+1]
		if hb0 == escByte || db0 == escByte || hb1 == escByte || db1 == escByte {
			e, r = stepHub(hd, esc, k, e, r)
			e, d = stepDistNarrow(dd, esc, k, e, d)
			ids[k] = r
			ds[k] = d
			e, r = stepHub(hd, esc, k+1, e, r)
			e, d = stepDistNarrow(dd, esc, k+1, e, d)
			ids[k+1] = r
			ds[k+1] = d
			continue
		}
		r += int32(hb0) + 1
		d += unzig32(uint32(db0))
		ids[k] = r
		ds[k] = d
		r += int32(hb1) + 1
		d += unzig32(uint32(db1))
		ids[k+1] = r
		ds[k+1] = d
	}
	for ; k < ln; k++ {
		e, r = stepHub(hd, esc, k, e, r)
		e, d = stepDistNarrow(dd, esc, k, e, d)
		ids[k] = r
		ds[k] = d
	}
	return ids, ds
}

func (c *CompactLabeling) decodeRunWide(v graph.NodeID, ids []graph.NodeID, ds []graph.Weight) ([]graph.NodeID, []graph.Weight) {
	i0, i1 := c.offsets[v], c.offsets[v+1]
	hd, dd := c.hubDelta[i0:i1], c.distDelta[2*i0:2*i1]
	esc, e := c.esc, c.escOff[v]
	ln := len(hd)
	if cap(ids) <= ln {
		ids = make([]graph.NodeID, ln+1)
		ds = make([]graph.Weight, ln+1)
	}
	ids, ds = ids[:ln+1], ds[:ln+1]
	ids[ln], ds[ln] = flatSentinel, graph.Infinity
	r, d := int32(-1), graph.Weight(0)
	for k := 0; k < ln; k++ {
		hb := hd[k]
		z := uint32(dd[2*k]) | uint32(dd[2*k+1])<<8
		if hb == escByte || z == escWord {
			e, r = stepHub(hd, esc, k, e, r)
			e, d = stepDistWide(dd, esc, k, e, d)
		} else {
			r += int32(hb) + 1
			d += unzig32(z)
		}
		ids[k] = r
		ds[k] = d
	}
	return ids, ds
}

// fillStream decodes the next mergeable pair into slot group s,
// answering empty and skewed pairs inline through mergeRuns; returns the
// pair index and the next cursor, or ok=false when the batch is
// exhausted.
func (c *CompactLabeling) fillStream(sc *batchScratch, pairs [][2]graph.NodeID, out []graph.Weight, next, s int) (o, nxt int, ok bool) {
	for next < len(pairs) {
		p := pairs[next]
		o = next
		next++
		sc.id[s], sc.d[s] = c.decodeRun(p[0], sc.id[s], sc.d[s])
		sc.id[s+1], sc.d[s+1] = c.decodeRun(p[1], sc.id[s+1], sc.d[s+1])
		la, lb := len(sc.id[s])-1, len(sc.id[s+1])-1
		if _, sk := skewed(la, lb); la > 0 && lb > 0 && !sk {
			return o, next, true
		}
		out[o] = mergeRuns(sc.id[s], sc.d[s], la, sc.id[s+1], sc.d[s+1], lb, graph.Infinity)
	}
	return 0, next, false
}

// mergeLockstepPair runs slots 0,1 and 2,3 in lockstep until any run
// is exhausted, then drains each pair's tails through mergeRuns, like
// the flat batch's mergeRest: the exhausted pair returns at once
// instead of walking its other run's tail to the sentinel (measurably
// slower than stopping, on gnm10k), and a skewed tail gallops. The two
// merges carry no data dependence on each other, so their load→advance
// chains overlap in the pipeline — the overlap the byte-decoding
// interleave could never reach.
func mergeLockstepPair(sc *batchScratch) (graph.Weight, graph.Weight) {
	b0, b1 := graph.Infinity, graph.Infinity
	idA0, dA0, idB0, dB0 := sc.id[0], sc.d[0], sc.id[1], sc.d[1]
	idA1, dA1, idB1, dB1 := sc.id[2], sc.d[2], sc.id[3], sc.d[3]
	la0, lb0, la1, lb1 := len(idA0)-1, len(idB0)-1, len(idA1)-1, len(idB1)-1
	i0, j0, i1, j1 := 0, 0, 0, 0
	for i0 < la0 && j0 < lb0 && i1 < la1 && j1 < lb1 {
		a0, c0 := idA0[i0], idB0[j0]
		a1, c1 := idA1[i1], idB1[j1]
		if a0 == c0 {
			if d := dA0[i0] + dB0[j0]; d < b0 {
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
			if d := dA1[i1] + dB1[j1]; d < b1 {
				b1 = d
			}
			i1++
			j1++
		} else {
			lt := int(uint64(int64(a1)-int64(c1)) >> 63)
			i1 += lt
			j1 += 1 - lt
		}
	}
	b0 = mergeRuns(idA0[i0:], dA0[i0:], la0-i0, idB0[j0:], dB0[j0:], lb0-j0, b0)
	b1 = mergeRuns(idA1[i1:], dA1[i1:], la1-i1, idB1[j1:], dB1[j1:], lb1-j1, b1)
	return b0, b1
}

// queryBatchLockstep answers pairs two at a time: decode both pairs'
// runs into scratch, lockstep-merge them, repeat. An odd trailing pair
// drains serially.
func (c *CompactLabeling) queryBatchLockstep(sc *batchScratch, pairs [][2]graph.NodeID, out []graph.Weight) {
	next := 0
	for {
		o0, nxt, ok := c.fillStream(sc, pairs, out, next, 0)
		if !ok {
			return
		}
		o1, nxt2, ok := c.fillStream(sc, pairs, out, nxt, 2)
		if !ok {
			out[o0] = mergeLinear(sc.id[0], sc.d[0], sc.id[1], sc.d[1], graph.Infinity)
			return
		}
		next = nxt2
		out[o0], out[o1] = mergeLockstepPair(sc)
	}
}
