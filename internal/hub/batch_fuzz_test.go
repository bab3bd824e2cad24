package hub

import (
	"math/rand"
	"testing"

	"hublab/internal/graph"
)

// fuzzBatchLabeling builds a small labeling whose shape is selected by
// the fuzzed seed: narrow or wide (escape-heavy) distance columns,
// uniform or skewed run lengths, plus vertices with no label at all
// (every query touching them is disconnected) — the full edge-case
// surface of the batch kernels.
func fuzzBatchLabeling(t testing.TB, seed int64) *FlatLabeling {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n = 48
	maxDist := int32(60)
	if seed%2 == 0 {
		maxDist = 1 << 27 // forces distance escapes and the wide layout
	}
	l := NewLabeling(n)
	for v := 0; v < n; v++ {
		if v%7 == 3 {
			continue // empty label: disconnected from everything, even itself
		}
		vid := graph.NodeID(v)
		l.Add(vid, vid, 0)
		per := 1 + rng.Intn(5)
		if seed%3 == 0 && v%11 == 0 {
			per = 10 * gallopRatio // skewed runs: exercises the gallop drain
		}
		seen := map[graph.NodeID]bool{vid: true}
		for k := 0; k < per; k++ {
			h := graph.NodeID(rng.Intn(n))
			if seen[h] {
				continue
			}
			seen[h] = true
			l.Add(vid, h, graph.Weight(rng.Int31n(maxDist)))
		}
	}
	l.Canonicalize()
	return l.Freeze()
}

// FuzzQueryBatchEquivalence is the differential harness pinning every
// batch kernel to the scalar Query it must be indistinguishable from:
// flat (3-stream interleave + gallop-aware drain, and the <3 scalar
// fallback) and compact (2-stream interleave in both widths, and the <2
// fallback) across arbitrary pair sequences — u==v, repeated pairs, and
// disconnected vertices included. The fuzzed bytes choose the labeling
// shape and the pair list, so batch lengths sweep every stream count and
// every refill/drain path.
func FuzzQueryBatchEquivalence(f *testing.F) {
	f.Add(int64(0), []byte{})
	f.Add(int64(1), []byte{1, 2})
	f.Add(int64(2), []byte{0, 0, 3, 3, 3, 10})
	f.Add(int64(3), []byte{5, 9, 5, 9, 5, 9, 1, 44, 17, 3, 0, 33})
	f.Add(int64(6), []byte{11, 2, 11, 4, 11, 8, 22, 1, 33, 0, 44, 7, 3, 3})
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		if len(raw) > 512 {
			t.Skip("bounded workload")
		}
		fl := fuzzBatchLabeling(t, seed)
		c := CompactFromFlat(fl)
		n := fl.NumVertices()
		pairs := make([][2]graph.NodeID, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			pairs = append(pairs, [2]graph.NodeID{
				graph.NodeID(int(raw[i]) % n), graph.NodeID(int(raw[i+1]) % n),
			})
		}
		outFlat := make([]graph.Weight, len(pairs))
		outCompact := make([]graph.Weight, len(pairs))
		fl.QueryBatch(pairs, outFlat)
		c.QueryBatch(pairs, outCompact)
		for k, p := range pairs {
			want, _ := fl.Query(p[0], p[1])
			if outFlat[k] != want {
				t.Fatalf("flat batch[%d] (%d,%d) = %d, scalar says %d",
					k, p[0], p[1], outFlat[k], want)
			}
			wantC, _ := c.Query(p[0], p[1])
			if wantC != want {
				t.Fatalf("compact scalar (%d,%d) = %d, flat says %d", p[0], p[1], wantC, want)
			}
			if outCompact[k] != want {
				t.Fatalf("compact batch[%d] (%d,%d) = %d, scalar says %d",
					k, p[0], p[1], outCompact[k], want)
			}
		}
	})
}

// TestQueryBatchKernels runs every pair of each seed's labeling — both
// widths, empty labels, and (seeds divisible by 3) skewed runs on either
// side of the pair — through flat and compact Query and QueryBatch, and
// checks all four kernels answer identically.
func TestQueryBatchKernels(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		fl := fuzzBatchLabeling(t, seed)
		c := CompactFromFlat(fl)
		n := fl.NumVertices()
		pairs := make([][2]graph.NodeID, 0, n*n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				pairs = append(pairs, [2]graph.NodeID{graph.NodeID(u), graph.NodeID(v)})
			}
		}
		outFlat := make([]graph.Weight, len(pairs))
		outCompact := make([]graph.Weight, len(pairs))
		fl.QueryBatch(pairs, outFlat)
		c.QueryBatch(pairs, outCompact)
		for k, p := range pairs {
			want, _ := fl.Query(p[0], p[1])
			got, _ := c.Query(p[0], p[1])
			if got != want || outFlat[k] != want || outCompact[k] != want {
				t.Fatalf("seed %d (%d,%d): flat %d, compact %d, flat batch %d, compact batch %d",
					seed, p[0], p[1], want, got, outFlat[k], outCompact[k])
			}
		}
	}
}
