package hub

import (
	"fmt"
	"testing"

	"hublab/internal/graph"
)

// skewPairFixture builds a two-run fixture: vertex 0 carries shortLen
// hubs strided evenly across vertex 1's longLen consecutive hubs, so
// every short entry matches somewhere inside the long run and both
// kernels do their full work.
func skewPairFixture(tb testing.TB, shortLen, longLen int) *FlatLabeling {
	tb.Helper()
	n := longLen + 2
	l := NewLabeling(n)
	l.Add(0, 0, 0)
	l.Add(1, 1, 0)
	for k := 0; k < longLen; k++ {
		l.Add(1, graph.NodeID(2+k), graph.Weight(1+k%64))
	}
	stride := longLen / shortLen
	for k := 0; k < shortLen; k++ {
		l.Add(0, graph.NodeID(2+k*stride), graph.Weight(1+k%64))
	}
	l.Canonicalize()
	return l.Freeze()
}

var benchSkewSink graph.Weight

// BenchmarkE25SkewCrossover measures the linear and galloping kernels
// head-to-head on the same run pair across length ratios — the
// measurement gallopRatio in skew.go is picked from. The dispatch in
// Query is bypassed so both kernels are timed at every ratio, including
// below the production threshold.
func BenchmarkE25SkewCrossover(b *testing.B) {
	const shortLen = 16
	for _, ratio := range []int{2, 4, 8, 16, 32, 64} {
		f := skewPairFixture(b, shortLen, shortLen*ratio)
		ids, ds := f.hubIDs, f.dists
		i0, i1 := int(f.offsets[0]), int(f.offsets[1])-1
		j0, j1 := int(f.offsets[1]), int(f.offsets[2])-1
		b.Run(fmt.Sprintf("linear/r%d", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSkewSink = mergeLinear(ids[i0:], ds[i0:], ids[j0:], ds[j0:], graph.Infinity)
			}
		})
		b.Run(fmt.Sprintf("gallop/r%d", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSkewSink = mergeGallop(ids[i0:i1], ds[i0:i1], ids[j0:j1], ds[j0:j1], graph.Infinity)
			}
		})
	}
}

// BenchmarkE25SkewQuery times the dispatching Query on a realistically
// skewed labeling — the end-to-end effect of the threshold.
func BenchmarkE25SkewQuery(b *testing.B) {
	f := skewedFlat(b, 4000, 5)
	n := f.NumVertices()
	var pairs [][2]graph.NodeID
	for v := 0; v < n; v += 31 {
		pairs = append(pairs, [2]graph.NodeID{graph.NodeID(v), graph.NodeID((v*7 + 13) % n)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		benchSkewSink, _ = f.Query(p[0], p[1])
	}
}
