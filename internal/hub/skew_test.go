package hub

import (
	"math/rand"
	"testing"

	"hublab/internal/graph"
)

// skewedFlat builds a labeling with extreme run-length skew: most
// vertices carry a handful of hubs, every 31st carries hundreds — the
// shape frequency-ranked orderings produce, and the one that routes
// pairs through the galloping kernel. Hub 0 is shared by everyone so
// queries stay connected; a sprinkle of private hubs creates matches at
// unpredictable positions inside the long runs.
func skewedFlat(t testing.TB, n int, seed int64) *FlatLabeling {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := NewLabeling(n)
	for v := 0; v < n; v++ {
		vid := graph.NodeID(v)
		l.Add(vid, vid, 0)
		l.Add(vid, 0, graph.Weight(1+rng.Int31n(50)))
		per := 1 + rng.Intn(3)
		if v%31 == 0 {
			per = 20*gallopRatio + rng.Intn(100)
		}
		seen := map[graph.NodeID]bool{vid: true, 0: true}
		for k := 0; k < per; k++ {
			h := graph.NodeID(rng.Intn(n))
			if seen[h] {
				continue
			}
			seen[h] = true
			l.Add(vid, h, graph.Weight(rng.Int31n(1000)))
		}
	}
	l.Canonicalize()
	return l.Freeze()
}

// refQueryVia is the quadratic reference merge: scan both full labels,
// keep the minimum distance with ties broken toward the smallest hub id
// — the contract both the linear and the galloping kernels must meet.
func refQueryVia(f *FlatLabeling, u, v graph.NodeID) (graph.Weight, graph.NodeID) {
	idsU, dsU := f.LabelIDs(u), f.LabelDists(u)
	idsV, dsV := f.LabelIDs(v), f.LabelDists(v)
	best, via := graph.Infinity, graph.NodeID(-1)
	for i, h := range idsU {
		for j, g := range idsV {
			if h != g {
				continue
			}
			if d := dsU[i] + dsV[j]; d < best || (d == best && via >= 0 && h < via) {
				best, via = d, h
			}
		}
	}
	return best, via
}

// TestSkewQueryMatchesReference drives Query/QueryVia/QueryBatch over a
// heavily skewed labeling and checks every answer (distance and
// witness) against the quadratic reference. It also counts how many
// probed pairs actually crossed the gallop threshold, so threshold
// drift can never quietly turn this into a linear-kernel-only test.
func TestSkewQueryMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		f := skewedFlat(t, 400, seed)
		rng := rand.New(rand.NewSource(seed * 977))
		n := f.NumVertices()
		var pairs [][2]graph.NodeID
		for k := 0; k < 600; k++ {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			if k%3 == 0 {
				u = graph.NodeID((rng.Intn(n/31) * 31) % n) // hot vertex: long run
			}
			pairs = append(pairs, [2]graph.NodeID{u, v})
		}
		galloped := 0
		for _, p := range pairs {
			if _, ok := skewed(f.LabelLen(p[0]), f.LabelLen(p[1])); ok {
				galloped++
			}
			wantD, wantVia := refQueryVia(f, p[0], p[1])
			gotD, ok := f.Query(p[0], p[1])
			if gotD != wantD || ok != (wantD < graph.Infinity) {
				t.Fatalf("Query(%d,%d) = %d,%v want %d", p[0], p[1], gotD, ok, wantD)
			}
			gotD, gotVia, ok := f.QueryVia(p[0], p[1])
			if gotD != wantD || gotVia != wantVia || ok != (wantVia >= 0) {
				t.Fatalf("QueryVia(%d,%d) = %d,%d,%v want %d,%d",
					p[0], p[1], gotD, gotVia, ok, wantD, wantVia)
			}
		}
		if galloped == 0 {
			t.Fatal("no probed pair crossed the gallop threshold — the skew kernel went untested")
		}
		out := make([]graph.Weight, len(pairs))
		f.QueryBatch(pairs, out)
		for k, p := range pairs {
			if want, _ := refQueryVia(f, p[0], p[1]); out[k] != want {
				t.Fatalf("QueryBatch[%d] (%d,%d) = %d want %d", k, p[0], p[1], out[k], want)
			}
		}
	}
}

// TestGallopKernelDirect pins the galloping kernel itself (both
// short-first orderings, empty windows, running best carried in) against
// the reference, independent of the dispatch threshold.
func TestGallopKernelDirect(t *testing.T) {
	f := skewedFlat(t, 300, 3)
	n := f.NumVertices()
	rng := rand.New(rand.NewSource(99))
	for k := 0; k < 400; k++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		iu, ju := int(f.offsets[u]), int(f.offsets[u+1])-1
		iv, jv := int(f.offsets[v]), int(f.offsets[v+1])-1
		idU, dU := f.hubIDs[iu:ju], f.dists[iu:ju]
		idV, dV := f.hubIDs[iv:jv], f.dists[iv:jv]
		want, _ := refQueryVia(f, u, v)
		if got := mergeGallop(idU, dU, idV, dV, graph.Infinity); got != want {
			t.Fatalf("mergeGallop(u-short) (%d,%d) = %d want %d", u, v, got, want)
		}
		if got := mergeGallop(idV, dV, idU, dU, graph.Infinity); got != want {
			t.Fatalf("mergeGallop(v-short) (%d,%d) = %d want %d", u, v, got, want)
		}
		if got, via := mergeGallopVia(idU, dU, idV, dV, graph.Infinity); got != want {
			t.Fatalf("mergeGallopVia (%d,%d) = %d,%d want %d", u, v, got, via, want)
		}
		// A best carried in from a partial linear scan must only improve.
		if got := mergeGallop(idU, dU, idV, dV, 1); got > 1 {
			t.Fatalf("mergeGallop ignored carried-in best: %d", got)
		}
	}
	// Empty windows terminate immediately with the carried best.
	end0 := int(f.offsets[1]) - 1
	if got := mergeGallop(f.hubIDs[3:3], f.dists[3:3], f.hubIDs[:end0], f.dists[:end0], 42); got != 42 {
		t.Fatalf("empty short window: %d want 42", got)
	}
	if got := mergeGallop(f.hubIDs[:end0], f.dists[:end0], f.hubIDs[5:5], f.dists[5:5], 42); got != 42 {
		t.Fatalf("empty long window: %d want 42", got)
	}
}
