package hub

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"hublab/internal/graph"
)

// goldenTree is the deterministic fixture behind every golden artifact:
// the ancestor labeling of a weighted heap-shaped tree on 40 vertices
// (S(v) = v's root path; vertex 17 deliberately left with an empty
// label). Shortest paths in a tree are unique, so distances and the
// parent column follow from the graph alone — no seed, no tie-breaking.
// The legacy files under testdata/legacy were written from exactly this
// labeling by the last commit that could still write versions 1 and 2.
func goldenTree(tb testing.TB, parents bool) *FlatLabeling {
	tb.Helper()
	const n = 40
	b := graph.NewBuilder(n, n-1)
	for v := 1; v < n; v++ {
		b.AddWeightedEdge(graph.NodeID((v-1)/2), graph.NodeID(v), graph.Weight(1+(7*v)%13))
	}
	g := b.MustBuild()
	sets := make([][]graph.NodeID, n)
	for v := range sets {
		if v == 17 {
			continue
		}
		for a := v; ; a = (a - 1) / 2 {
			sets[v] = append(sets[v], graph.NodeID(a))
			if a == 0 {
				break
			}
		}
	}
	l, err := FromSets(g, sets)
	if err != nil {
		tb.Fatal(err)
	}
	f := l.Freeze()
	if !f.HasParents() {
		tb.Fatal("golden fixture has no parent column")
	}
	if !parents {
		f = f.CopyOwned()
		f.parents = nil
	}
	return f
}

// legacyGolden reads one of testdata/legacy/{v1,v1-gamma,v2,v2-gamma}.hli:
// goldenTree without (v1) or with (v2) parents, raw or gamma payload.
func legacyGolden(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "legacy", name+".hli"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// slotPatch overwrites one slot of one flat column — the unit of the
// hostile-writer tests, applicable both to a labeling about to be
// written and to the bytes of a raw legacy container.
type slotPatch struct {
	col  string // "hubIDs", "dists" or "parents"
	slot int
	val  int32
}

func (p slotPatch) apply(f *FlatLabeling) {
	map[string][]int32{"hubIDs": f.hubIDs, "dists": f.dists, "parents": f.parents}[p.col][p.slot] = p.val
}

// applyLegacyRaw patches a raw (non-gamma) version-1/2 container in
// place: its columns sit back to back after the 32-byte header.
func (p slotPatch) applyLegacyRaw(data []byte) {
	n := int(binary.LittleEndian.Uint64(data[16:24]))
	slots := int(binary.LittleEndian.Uint64(data[24:32]))
	col := map[string]int{"hubIDs": 0, "dists": 1, "parents": 2}[p.col]
	off := containerHeaderLen + 4*(n+1) + 4*slots*col + 4*p.slot
	binary.LittleEndian.PutUint32(data[off:], uint32(p.val))
}

// TestContainerGoldenHashes pins the bytes of both layouts: the SHA-256
// of each container below was recorded with the writers of the commit
// before the five write paths were folded into one (its
// {Aligned: true} and {Compact: true}), so a pass proves the fold moved
// no byte of version 3 or version 4.
func TestContainerGoldenHashes(t *testing.T) {
	fixtures := map[string]*FlatLabeling{
		"tree-parents":  goldenTree(t, true),
		"tree":          goldenTree(t, false),
		"empty":         NewLabeling(0).Freeze(),
		"random-narrow": randomFlat(t, 700, 12, 40, 1),
		"random-wide":   randomFlat(t, 700, 12, 1<<27, 2),
	}
	for _, tc := range []struct {
		fixture string
		compact bool
		size    int
		sha     string
	}{
		{"tree-parents", false, 2988, "45df7e8ae367ec16e7589c98714751c09c9647c6bfb696328547b9e381373e3e"},
		{"tree-parents", true, 1868, "b95080fbdb0e613639e3c514c1c38a2c96a14ae5d7767f36299ccd299001e8fe"},
		{"tree", false, 2092, "2f9212d83f46af9574d5d421b93824460425bd055fb2ee79e4300fdb7452b121"},
		{"tree", true, 1156, "7ced465d824628bb5c5d7a635c9f325ac4130364f3cae752d622ed8e767f8ee8"},
		{"empty", false, 196, "668b724f138dbbe563f26461f57379e388fc7b1d3c983af88e31afe03cc0fdad"},
		{"empty", true, 324, "a91b8a11037ddb64e69ed908440d0f481e4fc60569b83fea0adf1e04725463a8"},
		{"random-narrow", false, 45676, "829fa2a235540c17fb358d84aae7ae9bd43503628dffa2c1d380172cd5218c8e"},
		{"random-narrow", true, 18952, "435d6948d872206ac0bc870c5646db74005f07ad617ac28a1b11c6a0c9fc2e24"},
		{"random-wide", false, 45524, "2823d12affdda6c472b57ad0720dc6e6863fa02f31d457db68d72c5b7cc5587e"},
		{"random-wide", true, 41424, "4148071bb4925e2be954f47d5b1c89cfac133434430ad505b2f4e669f466a53a"},
	} {
		var buf bytes.Buffer
		if _, err := fixtures[tc.fixture].WriteContainer(&buf, ContainerOptions{Compact: tc.compact}); err != nil {
			t.Fatalf("%s compact=%v: %v", tc.fixture, tc.compact, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != tc.size || got != tc.sha {
			t.Errorf("%s compact=%v: %d bytes sha256 %s, golden %d bytes %s",
				tc.fixture, tc.compact, buf.Len(), got, tc.size, tc.sha)
		}
	}
	if c := CompactFromFlat(fixtures["random-wide"]); !c.wide || len(c.esc) == 0 {
		t.Error("the wide-distance fixture no longer exercises the wide column and the escape array")
	}
}

// syntheticFlat builds a structurally valid labeling straight into the
// flat arrays: n vertices with k hubs each at stride-3 ids, small
// distances (narrow compact codes) and a parent column.
func syntheticFlat(n, k int) *FlatLabeling {
	slots := n * (k + 1)
	f := &FlatLabeling{
		offsets: make([]int32, n+1),
		hubIDs:  make([]graph.NodeID, 0, slots),
		dists:   make([]graph.Weight, 0, slots),
		parents: make([]graph.NodeID, 0, slots),
	}
	for v := 0; v < n; v++ {
		f.offsets[v] = int32(len(f.hubIDs))
		base := (v * 7) % (n - 3*k)
		for j := 0; j < k; j++ {
			h, p := graph.NodeID(base+3*j), graph.NodeID((v+1)%n)
			if int(h) == v {
				p = -1
			}
			f.hubIDs = append(f.hubIDs, h)
			f.dists = append(f.dists, graph.Weight((5*j+v)%200))
			f.parents = append(f.parents, p)
		}
		f.hubIDs = append(f.hubIDs, flatSentinel)
		f.dists = append(f.dists, graph.Infinity)
		f.parents = append(f.parents, -1)
	}
	f.offsets[n] = int32(len(f.hubIDs))
	return f
}

// TestReadContainerStoreTransientMemory pins the heap reader's
// allocation: decoding a ≥ 20 MB store may allocate at most 1.25× the
// store's own resident bytes — the columns themselves plus one bounded
// conversion chunk, never a section-sized staging copy per column
// (which read 2.0× expanded / 1.67× compact before the single section
// reader). resident_mb on the serving benchmarks sits directly on this
// number.
func TestReadContainerStoreTransientMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates ~150 MB")
	}
	f := syntheticFlat(60000, 60)
	if err := f.Validate(); err != nil {
		t.Fatalf("synthetic fixture invalid: %v", err)
	}
	for _, compact := range []bool{false, true} {
		var buf bytes.Buffer
		if _, err := f.WriteContainer(&buf, ContainerOptions{Compact: compact}); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s, err := ReadContainerStore(bytes.NewReader(buf.Bytes()))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("compact=%v: %v", compact, err)
		}
		space := s.SpaceBytes()
		if space < 20<<20 {
			t.Fatalf("compact=%v: fixture is only %d resident bytes, want ≥ 20 MB", compact, space)
		}
		alloc := int64(after.TotalAlloc - before.TotalAlloc)
		t.Logf("compact=%v: allocated %d bytes for %d resident (%.2f×)", compact, alloc, space, float64(alloc)/float64(space))
		if alloc > space+space/4 {
			t.Errorf("compact=%v: ReadContainerStore allocated %d bytes for a %d-byte store (%.2f× > 1.25×)",
				compact, alloc, space, float64(alloc)/float64(space))
		}
	}
}
