package hub

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hublab/internal/graph"
)

// pathAncestorLabeling builds an exact cover on the path graph
// 0-1-…-(n-1): S(v) = {v..n-1} when desc (so the remap reverses vertex
// order — hub n-1 is hottest), else S(v) = {0..v}. Dists are exact path
// distances; no parent column.
func pathAncestorLabeling(n int, desc bool) *FlatLabeling {
	l := NewLabeling(n)
	for v := 0; v < n; v++ {
		if desc {
			for h := v; h < n; h++ {
				l.Add(graph.NodeID(v), graph.NodeID(h), graph.Weight(h-v))
			}
		} else {
			for h := 0; h <= v; h++ {
				l.Add(graph.NodeID(v), graph.NodeID(h), graph.Weight(v-h))
			}
		}
	}
	return l.Freeze()
}

// randomFlat builds a canonical pseudo-random labeling: sorted distinct
// hub ids spread over [0, n) (rank deltas routinely exceed 254 → hub
// escapes) and distances bounded by maxDist (large bounds force distance
// escapes and, past the 1-in-8 threshold, the wide column).
func randomFlat(t testing.TB, n, perVertex int, maxDist int32, seed int64) *FlatLabeling {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := NewLabeling(n)
	for v := 0; v < n; v++ {
		seen := map[graph.NodeID]bool{graph.NodeID(v): true}
		l.Add(graph.NodeID(v), graph.NodeID(v), 0)
		for k := rng.Intn(perVertex); k > 0; k-- {
			h := graph.NodeID(rng.Intn(n))
			if seen[h] {
				continue
			}
			seen[h] = true
			l.Add(graph.NodeID(v), h, graph.Weight(rng.Int31n(maxDist)))
		}
	}
	l.Canonicalize()
	return l.Freeze()
}

type compactFixture struct {
	name string
	f    *FlatLabeling
}

func compactFixtures(t testing.TB) []compactFixture {
	t.Helper()
	_, star := parentFixture(t)
	return []compactFixture{
		{"container", containerFixture(t)},
		{"parents-star", star},
		{"empty", NewLabeling(0).Freeze()},
		{"one-vertex", NewLabeling(1).Freeze()},
		{"path-asc", pathAncestorLabeling(24, false)},
		{"path-desc", pathAncestorLabeling(24, true)},
		{"random-narrow", randomFlat(t, 700, 12, 40, 1)},
		{"random-escapes", randomFlat(t, 700, 12, 1<<27, 2)},
	}
}

// TestCompactExpandRoundTrip pins CompactFromFlat ∘ Expand as the
// identity on the flat arrays (including the parent column), and that
// every compact encoding passes its own full validation.
func TestCompactExpandRoundTrip(t *testing.T) {
	for _, tc := range compactFixtures(t) {
		t.Run(tc.name, func(t *testing.T) {
			c := CompactFromFlat(tc.f)
			if err := c.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			got := c.Expand()
			if !flatEqual(got, tc.f) {
				t.Fatal("Expand(CompactFromFlat(f)) differs from f")
			}
			if c.HasParents() != tc.f.HasParents() {
				t.Fatalf("HasParents %v, want %v", c.HasParents(), tc.f.HasParents())
			}
			if tc.f.HasParents() && !slices.Equal(got.parents, tc.f.parents) {
				t.Fatal("parent column did not round-trip")
			}
			if c.NumHubs() != tc.f.NumHubs() {
				t.Fatalf("NumHubs %d, want %d", c.NumHubs(), tc.f.NumHubs())
			}
			if c.ComputeStats() != tc.f.ComputeStats() {
				t.Fatalf("stats %+v, want %+v", c.ComputeStats(), tc.f.ComputeStats())
			}
		})
	}
}

// TestCompactRemapIsFrequencyRanked pins the remap order on a labeling
// with strictly decreasing hub frequencies under the reversed id order:
// hub n-1 (carried by everyone) must get rank 0.
func TestCompactRemapIsFrequencyRanked(t *testing.T) {
	n := 24
	c := CompactFromFlat(pathAncestorLabeling(n, true))
	for r := 0; r < n; r++ {
		if want := graph.NodeID(n - 1 - r); c.remap[r] != want {
			t.Fatalf("rank %d maps to %d, want %d", r, c.remap[r], want)
		}
	}
	if c.wide {
		t.Fatal("unit-weight path labeling should not select the wide column")
	}
}

// TestCompactWideSelection pins the deterministic width choice: huge
// random distances push the 8-bit escape fraction past 1/8 and flip the
// distance column to 16-bit codes.
func TestCompactWideSelection(t *testing.T) {
	if c := CompactFromFlat(randomFlat(t, 700, 12, 1<<27, 2)); !c.wide {
		t.Fatal("escape-heavy labeling should select the wide distance column")
	}
	if c := CompactFromFlat(randomFlat(t, 700, 12, 40, 1)); c.wide {
		t.Fatal("small-distance labeling should stay narrow")
	}
}

// TestCompactQueryAgreement pins Query/QueryVia/QueryBatch/Label
// answers byte-identical between the two representations on every
// fixture, sampling all pairs on the small ones.
func TestCompactQueryAgreement(t *testing.T) {
	fixtures := append(compactFixtures(t),
		compactFixture{"skewed-empty-narrow", skewedEmptyFlat(t, 60)},
		compactFixture{"skewed-empty-wide", skewedEmptyFlat(t, 1<<27)})
	for _, tc := range fixtures {
		t.Run(tc.name, func(t *testing.T) {
			c := CompactFromFlat(tc.f)
			n := tc.f.NumVertices()
			pairs := make([][2]graph.NodeID, 0, 1024)
			rng := rand.New(rand.NewSource(7))
			for k := 0; k < 1024; k++ {
				if n == 0 {
					break
				}
				pairs = append(pairs, [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))})
			}
			if strings.HasPrefix(tc.name, "skewed-empty") {
				pairs = append(pairs, skewAndEmptyPairs(t, tc.f, c)...)
			}
			for _, p := range pairs {
				fd, fok := tc.f.Query(p[0], p[1])
				cd, cok := c.Query(p[0], p[1])
				if fd != cd || fok != cok {
					t.Fatalf("Query(%d,%d): compact (%d,%v), expanded (%d,%v)", p[0], p[1], cd, cok, fd, fok)
				}
				fd, fvia, fok := tc.f.QueryVia(p[0], p[1])
				cd, cvia, cok := c.QueryVia(p[0], p[1])
				if fd != cd || fvia != cvia || fok != cok {
					t.Fatalf("QueryVia(%d,%d): compact (%d,%d,%v), expanded (%d,%d,%v)",
						p[0], p[1], cd, cvia, cok, fd, fvia, fok)
				}
			}
			fout := make([]graph.Weight, len(pairs))
			cout := make([]graph.Weight, len(pairs))
			tc.f.QueryBatch(pairs, fout)
			c.QueryBatch(pairs, cout)
			if !slices.Equal(fout, cout) {
				t.Fatal("QueryBatch answers differ")
			}
			var idBuf []graph.NodeID
			var dBuf []graph.Weight
			for v := 0; v < n; v++ {
				fids, fds := tc.f.Label(graph.NodeID(v), nil, nil)
				cids, cds := c.Label(graph.NodeID(v), idBuf, dBuf)
				if c.LabelLen(graph.NodeID(v)) != len(fids) || len(cids) != len(fids) {
					t.Fatalf("vertex %d label length %d, want %d", v, len(cids), len(fids))
				}
				// Entry order is representation-specific; compare as sets of
				// (id, dist) pairs.
				type ent struct {
					id graph.NodeID
					d  graph.Weight
				}
				fe := make([]ent, len(fids))
				ce := make([]ent, len(cids))
				for i := range fids {
					fe[i] = ent{fids[i], fds[i]}
					ce[i] = ent{cids[i], cds[i]}
				}
				cmp := func(a, b ent) int {
					if a.id != b.id {
						return int(a.id - b.id)
					}
					return int(a.d - b.d)
				}
				slices.SortFunc(ce, cmp)
				slices.SortFunc(fe, cmp)
				if !slices.Equal(fe, ce) {
					t.Fatalf("vertex %d label entries differ", v)
				}
				idBuf, dBuf = cids[:0], cds[:0]
			}
		})
	}
}

// skewedEmptyFlat builds the dispatch edge cases of the merge core:
// every 9th vertex has an empty label, every 13th a run far longer than
// gallopRatio times the 1–4 entries the others carry. Hub 1 is shared
// by every non-empty label so most pairs connect. maxDist picks the
// compact distance column: small bounds stay narrow, 1<<27 goes wide.
func skewedEmptyFlat(t testing.TB, maxDist int32) *FlatLabeling {
	t.Helper()
	const n = 300
	rng := rand.New(rand.NewSource(int64(maxDist)))
	l := NewLabeling(n)
	for v := 0; v < n; v++ {
		if v%9 == 0 {
			continue
		}
		vid := graph.NodeID(v)
		l.Add(vid, vid, 0)
		if v != 1 {
			l.Add(vid, 1, graph.Weight(1+rng.Int31n(maxDist)))
		}
		per := 1 + rng.Intn(4)
		if v%13 == 0 {
			per = 40 * gallopRatio
		}
		for k := 0; k < per; k++ {
			if h := graph.NodeID(rng.Intn(n)); h != vid && h != 1 {
				l.Add(vid, h, graph.Weight(rng.Int31n(maxDist)))
			}
		}
	}
	l.Canonicalize()
	return l.Freeze()
}

// skewAndEmptyPairs pairs every vertex with the longest-run vertex in
// both orientations, and checks the list reaches the dispatch cases
// the random pairs might miss: skewed pairs (each appended with the
// long run first and second) and an empty run. It also pins the width
// the fixture was built for.
func skewAndEmptyPairs(t *testing.T, f *FlatLabeling, c *CompactLabeling) [][2]graph.NodeID {
	t.Helper()
	n := f.NumVertices()
	long := graph.NodeID(0)
	for v := graph.NodeID(0); int(v) < n; v++ {
		if f.LabelLen(v) > f.LabelLen(long) {
			long = v
		}
	}
	var pairs [][2]graph.NodeID
	var skewedPairs, empty int
	for v := graph.NodeID(0); int(v) < n; v++ {
		pairs = append(pairs, [2]graph.NodeID{long, v}, [2]graph.NodeID{v, long})
		if lb := f.LabelLen(v); lb == 0 {
			empty++
		} else if _, ok := skewed(f.LabelLen(long), lb); ok {
			skewedPairs++
		}
	}
	if skewedPairs == 0 || empty == 0 {
		t.Fatalf("pairs miss a dispatch case: %d skewed, %d empty", skewedPairs, empty)
	}
	if wantWide := strings.HasSuffix(t.Name(), "wide"); c.Wide() != wantWide {
		t.Fatalf("fixture built for wide=%v encodes wide=%v", wantWide, c.Wide())
	}
	return pairs
}

// TestCompactQueryAllocs pins compact Query's steady state at zero
// allocations in both widths and on the skewed (gallop) path: the
// decode scratch comes from a pool and is only grown, never replaced.
func TestCompactQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race-mode sync.Pool drops Puts, so pooled scratch shows phantom allocations")
	}
	for _, maxDist := range []int32{60, 1 << 27} {
		f := skewedEmptyFlat(t, maxDist)
		c := CompactFromFlat(f)
		pairs := [][2]graph.NodeID{{13, 14}, {14, 13}, {2, 3}, {9, 10}, {26, 39}}
		for _, p := range pairs {
			c.Query(p[0], p[1]) // grow the pooled scratch
		}
		allocs := testing.AllocsPerRun(200, func() {
			for _, p := range pairs {
				c.Query(p[0], p[1])
			}
		})
		if allocs != 0 {
			t.Fatalf("wide=%v: compact Query allocates %.1f per round", c.Wide(), allocs)
		}
	}
}

// TestCompactPathAgreement pins NextHop and full path unpacking
// identical across representations — parents must chase correctly under
// remapped hub ids.
func TestCompactPathAgreement(t *testing.T) {
	_, f := parentFixture(t)
	c := CompactFromFlat(f)
	n := f.NumVertices()
	for v := 0; v < n; v++ {
		for h := -1; h <= n; h++ {
			fp, fok := f.NextHop(graph.NodeID(v), graph.NodeID(h))
			cp, cok := c.NextHop(graph.NodeID(v), graph.NodeID(h))
			if fp != cp || fok != cok {
				t.Fatalf("NextHop(%d,%d): compact (%d,%v), expanded (%d,%v)", v, h, cp, cok, fp, fok)
			}
		}
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			fp, ferr := f.Path(graph.NodeID(u), graph.NodeID(v))
			cp, cerr := c.Path(graph.NodeID(u), graph.NodeID(v))
			if !errors.Is(cerr, ferr) || !slices.Equal(fp, cp) {
				t.Fatalf("Path(%d,%d): compact %v (%v), expanded %v (%v)", u, v, cp, cerr, fp, ferr)
			}
		}
	}
	// A labeling without parents answers ErrNoParents through both doors.
	noPar := CompactFromFlat(pathAncestorLabeling(8, false))
	if _, err := noPar.Path(0, 3); !errors.Is(err, ErrNoParents) {
		t.Fatalf("Path without parents: %v, want ErrNoParents", err)
	}
	if _, ok := noPar.NextHop(0, 0); ok {
		t.Fatal("NextHop without parents must report !ok")
	}
}

// TestCompactEccAgreement pins the eccentricity index — bounds and
// exact queries — identical over the two representations.
func TestCompactEccAgreement(t *testing.T) {
	for _, tc := range compactFixtures(t) {
		if tc.f.NumVertices() == 0 || tc.f.NumVertices() > 100 {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			fe := NewEccIndex(tc.f)
			ce := NewEccIndex(CompactFromFlat(tc.f))
			for v := 0; v < tc.f.NumVertices(); v++ {
				if fb, cb := fe.EccentricityUpperBound(graph.NodeID(v)), ce.EccentricityUpperBound(graph.NodeID(v)); fb != cb {
					t.Fatalf("EccentricityUpperBound(%d): compact %d, expanded %d", v, cb, fb)
				}
				fd, fu := fe.Eccentricity(graph.NodeID(v))
				cd, cu := ce.Eccentricity(graph.NodeID(v))
				if fd != cd || fu != cu {
					t.Fatalf("Eccentricity(%d): compact (%d,%d), expanded (%d,%d)", v, cd, cu, fd, fu)
				}
			}
		})
	}
}

// TestCompactContainerRoundTrip pins the v4 container through both
// doors: the decode and the mmap open return compact stores that expand
// to the original flat labeling exactly.
func TestCompactContainerRoundTrip(t *testing.T) {
	for _, tc := range compactFixtures(t) {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			wrote, err := tc.f.WriteContainer(&buf, ContainerOptions{Compact: true})
			if err != nil {
				t.Fatalf("WriteContainer: %v", err)
			}
			if wrote != int64(buf.Len()) {
				t.Fatalf("reported %d bytes, wrote %d", wrote, buf.Len())
			}
			if v := binary.LittleEndian.Uint16(buf.Bytes()[8:10]); v != 4 {
				t.Fatalf("compact container has version %d, want 4", v)
			}

			s, err := ReadContainerStore(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("ReadContainerStore: %v", err)
			}
			dec, ok := s.(*CompactLabeling)
			if !ok {
				t.Fatalf("decoded store is %T, want *CompactLabeling", s)
			}
			if !dec.Owned() {
				t.Fatal("decoded store must be owned")
			}
			if !flatEqual(dec.Expand(), tc.f) {
				t.Fatal("decoded store expands to a different labeling")
			}

			mm, err := openStoreBytes(bytes.Clone(buf.Bytes()))
			if err != nil {
				t.Fatalf("openStore: %v", err)
			}
			view, ok := mm.(*CompactLabeling)
			if !ok {
				t.Fatalf("mapped store is %T, want *CompactLabeling", mm)
			}
			if tc.f.NumHubs() > 0 && view.Owned() {
				t.Fatal("mapped compact store should be a view")
			}
			if err := view.Validate(); err != nil {
				t.Fatalf("mapped view Validate: %v", err)
			}
			if !flatEqual(view.Expand(), tc.f) {
				t.Fatal("mapped view expands to a different labeling")
			}
			if err := view.Release(); err != nil {
				t.Fatalf("Release: %v", err)
			}

		})
	}
}

// TestCompactStreamingByteIdentity pins the streaming writer's v4 bytes
// against the freeze-path writer's for every compact fixture. The
// fixtures include labelings built from unsorted Adds (canonicalized),
// so Canonicalize ordering is part of what round-trips.
func TestCompactStreamingByteIdentity(t *testing.T) {
	for _, tc := range compactFixtures(t) {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.f.Thaw()
			var want bytes.Buffer
			if _, err := l.Freeze().WriteContainer(&want, ContainerOptions{Compact: true}); err != nil {
				t.Fatalf("WriteContainer: %v", err)
			}
			var got memWriterAt
			wrote, err := l.WriteContainerStreaming(&got, ContainerOptions{Compact: true})
			if err != nil {
				t.Fatalf("WriteContainerStreaming: %v", err)
			}
			if wrote != int64(len(got.buf)) || !bytes.Equal(got.buf, want.Bytes()) {
				t.Fatalf("streamed v4 bytes differ (%d vs %d bytes)", len(got.buf), want.Len())
			}
		})
	}
}

// TestCompactThawDeepCopy pins Thaw semantics on the compressed
// representation: the thawed labeling owns every byte, survives the
// view's release, and mutating it leaves the view's answers unchanged.
func TestCompactThawDeepCopy(t *testing.T) {
	f := randomFlat(t, 200, 8, 1000, 3)
	var buf bytes.Buffer
	if _, err := f.WriteContainer(&buf, ContainerOptions{Compact: true}); err != nil {
		t.Fatal(err)
	}
	s, err := openStoreBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	view := s.(*CompactLabeling)
	d0, ok0 := view.Query(1, 2)

	l := view.Thaw()
	l.Add(1, 199, 1)
	l.Canonicalize()
	if d, ok := view.Query(1, 2); d != d0 || ok != ok0 {
		t.Fatal("mutating the thawed labeling changed the view's answers")
	}

	l2 := view.Thaw()
	if err := view.Release(); err != nil {
		t.Fatal(err)
	}
	if !flatEqual(l2.Freeze(), f) {
		t.Fatal("thawed labeling differs from the original after Release")
	}
}

// TestCompactOptionConflicts pins how the one option set that used to
// conflict resolves: Aligned is inert, so {Compact, Aligned} is
// {Compact} — the same bytes on every write door, never an error.
func TestCompactOptionConflicts(t *testing.T) {
	_, f := parentFixture(t)
	want := compactBytes(t, f)
	both := ContainerOptions{Compact: true, Aligned: true}
	var fromFlat, fromCompact bytes.Buffer
	var streamed memWriterAt
	if _, err := f.WriteContainer(&fromFlat, both); err != nil {
		t.Fatalf("flat WriteContainer: %v", err)
	}
	if _, err := CompactFromFlat(f).WriteContainer(&fromCompact, both); err != nil {
		t.Fatalf("compact WriteContainer: %v", err)
	}
	if _, err := f.Thaw().WriteContainerStreaming(&streamed, both); err != nil {
		t.Fatalf("WriteContainerStreaming: %v", err)
	}
	for door, got := range map[string][]byte{"flat": fromFlat.Bytes(), "compact": fromCompact.Bytes(), "streaming": streamed.buf} {
		if !bytes.Equal(got, want) {
			t.Errorf("%s door: {Compact, Aligned} wrote different bytes than {Compact}", door)
		}
	}
}

// TestCompactWriteContainerConverts pins the representation-conversion
// write paths: a compact store still writes the expanded layout (via
// expansion), byte-identical to the flat store's, under both spellings
// of the expanded options — so every (store, option) pair serializes.
func TestCompactWriteContainerConverts(t *testing.T) {
	_, f := parentFixture(t)
	c := CompactFromFlat(f)
	for _, tc := range []struct {
		name string
		opts ContainerOptions
	}{
		{"raw", ContainerOptions{}},
		{"aligned", ContainerOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fromCompact, fromFlat bytes.Buffer
			if _, err := c.WriteContainer(&fromCompact, tc.opts); err != nil {
				t.Fatalf("compact WriteContainer: %v", err)
			}
			if _, err := f.WriteContainer(&fromFlat, tc.opts); err != nil {
				t.Fatalf("flat WriteContainer: %v", err)
			}
			if !bytes.Equal(fromCompact.Bytes(), fromFlat.Bytes()) {
				t.Fatal("compact store writes different expanded bytes than the flat store")
			}
			if !bytes.Equal(fromFlat.Bytes(), alignedBytes(t, f)) {
				t.Fatal("the two spellings of the expanded options write different bytes")
			}
		})
	}
}
