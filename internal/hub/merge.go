package hub

import "hublab/internal/graph"

// The merge core: the distance kernels both label layouts run. A flat
// query hands them tails of its hub-id/distance columns; a compact query
// hands them the runs it decoded into scratch. Either way the input is a
// pair of hub-id-sorted runs, each followed somewhere by a flatSentinel
// slot, and the kernels answer min over common hubs h of dA(h) + dB(h).

// gallopRatio is the length-ratio threshold at which the merge switches
// from the branch-reduced linear scan to a galloping probe of the longer
// run. Frequency-ranked orderings leave real workloads full of skewed
// pairs — a leaf's handful of hubs against a high-degree vertex's
// hundreds — and past this ratio the O(s·log l) gallop beats the O(s+l)
// scan.
//
// The value is picked by measurement, not theory:
// BenchmarkE25SkewCrossover times both kernels on the same run pair
// (a 16-entry short run) across ratios. On a 2-vCPU Xeon, with the
// gallop sharing mergeGallopVia's witness-tracking body, the gallop is
// 1.2× ahead at ratio 2 (128 vs 108 ns), 1.6× at 4, 2.5× at 8 and
// 11× at 64 — binary-search mispredicts cost it a constant per probed
// element, which the skipped elements repay almost immediately. The
// parity point moves with the box and the build (it has read above
// ratio 2 on the same machine), so 4 keeps one doubling of margin over
// it and the E25 gate "gallop never slower than linear beyond the
// threshold" holds on slower branch predictors.
const gallopRatio = 4

// mergeRuns is the one dispatch every distance query goes through.
// idA/dA and idB/dB start at the two merge cursors and reach at least one
// flatSentinel slot; la and lb count the entries left in each run before
// its own sentinel. An exhausted run (la or lb ≤ 0 — negative only when a
// cursor overran a run on a hostile view) returns the carried best,
// skewed runs gallop over exactly their la/lb entries, and balanced runs
// take the sentinel-terminated linear scan.
func mergeRuns(idA []graph.NodeID, dA []graph.Weight, la int, idB []graph.NodeID, dB []graph.Weight, lb int, best graph.Weight) graph.Weight {
	if la <= 0 || lb <= 0 {
		return best
	}
	if swap, ok := skewed(la, lb); ok {
		if swap {
			return mergeGallop(idB[:lb], dB[:lb], idA[:la], dA[:la], best)
		}
		return mergeGallop(idA[:la], dA[:la], idB[:lb], dB[:lb], best)
	}
	return mergeLinear(idA, dA, idB, dB, best)
}

// mergeLinear scans idA and idB from their starts until both cursors sit
// on a flatSentinel, folding every common hub's distance sum into best.
//
// The scan is branch-reduced: hub ids of distinct labels compare
// unpredictably, so the advance of the smaller cursor is computed from
// the sign bit of the id difference instead of a data-dependent branch;
// the only branches left (match, sentinel) are rare and well predicted.
// The sentinel is the maximum id, so no length checks are needed: when
// one run is exhausted the other side advances to its own sentinel and
// the cursors meet there.
//
// The slices may run past the current run to the end of a column — a
// flat query passes tails that do, because on a quick-validated mmap
// view only the column's final sentinel is guaranteed (see
// validateOffsets for the termination argument). The id difference is
// widened to int64 so it can never overflow: the sentinel is the maximum
// signed id, and overflow-correct ordering is exactly what pins each
// cursor at or before the last slot of its slice on hostile data.
func mergeLinear(idA []graph.NodeID, dA []graph.Weight, idB []graph.NodeID, dB []graph.Weight, best graph.Weight) graph.Weight {
	i, j := 0, 0
	for {
		a, b := idA[i], idB[j]
		if a == b {
			if a == flatSentinel {
				return best
			}
			if d := dA[i] + dB[j]; d < best {
				best = d
			}
			i++
			j++
			continue
		}
		// lt = 1 iff a < b.
		lt := int(uint64(int64(a)-int64(b)) >> 63)
		i += lt
		j += 1 - lt
	}
}

// mergeGallop is mergeGallopVia without the witness.
func mergeGallop(idS []graph.NodeID, dS []graph.Weight, idL []graph.NodeID, dL []graph.Weight, best graph.Weight) graph.Weight {
	best, _ = mergeGallopVia(idS, dS, idL, dL, best)
	return best
}

// mergeGallopVia merges the short run idS against the long run idL by
// galloping: for each short-run hub, an exponential probe of the long
// run followed by a binary search back over the overshot window. It
// returns the improved best and the hub that set it (-1 when the
// carried-in best was never improved). The short run is scanned in
// ascending-id order and only strict improvements update the witness,
// so ties break toward the smallest hub id — the same rule as the
// linear QueryVia scan, which keeps unpacked paths identical no matter
// which kernel a pair's skew selects.
//
// Both windows exclude their sentinels — termination rides the slice
// lengths, not the sentinel values, because binary search on a hostile
// quick-validated interior cannot rely on order at all. The outer loop
// advances si every iteration and the probe/search indices are clamped
// to len(idL), so the scan finishes in O(len(idS)·log len(idL)) steps
// regardless of the values it reads: hostile interiors degrade to wrong
// answers, never to out-of-bounds access.
func mergeGallopVia(idS []graph.NodeID, dS []graph.Weight, idL []graph.NodeID, dL []graph.Weight, best graph.Weight) (graph.Weight, graph.NodeID) {
	via := graph.NodeID(-1)
	si, li := 0, 0
	for si < len(idS) && li < len(idL) {
		h := idS[si]
		if idL[li] < h {
			// Exponential probe: double the step until the long run
			// reaches or overshoots h, then binary-search the last window.
			step := 1
			for li+step < len(idL) && idL[li+step] < h {
				li += step
				step <<= 1
			}
			lo, hi := li+1, li+step
			if hi > len(idL) {
				hi = len(idL)
			}
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if idL[mid] < h {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			li = lo
			if li >= len(idL) {
				break
			}
		}
		if idL[li] == h {
			if d := dS[si] + dL[li]; d < best {
				best = d
				via = h
			}
			li++
		}
		si++
	}
	return best, via
}

// skewed reports whether the pair of run lengths is lopsided enough for
// the gallop, and orders them short-first. The comparison is widened to
// int64 so a pathological (hostile-view) length cannot overflow the
// multiply on 32-bit platforms.
func skewed(la, lb int) (swap, ok bool) {
	if la <= lb {
		return false, int64(lb) >= int64(la)*gallopRatio
	}
	return true, int64(la) >= int64(lb)*gallopRatio
}
