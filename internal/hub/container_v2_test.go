package hub

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"hublab/internal/graph"
)

// parentFixture builds a star labeling ({v, center} hub sets — an exact
// cover on a star) whose parent column comes from real search trees.
func parentFixture(t testing.TB) (*graph.Graph, *FlatLabeling) {
	t.Helper()
	b := graph.NewBuilder(6, 5)
	for v := graph.NodeID(1); v < 6; v++ {
		b.AddEdge(0, v)
	}
	g := b.MustBuild()
	sets := make([][]graph.NodeID, 6)
	for v := range sets {
		sets[v] = []graph.NodeID{graph.NodeID(v), 0}
	}
	l, err := FromSets(g, sets)
	if err != nil {
		t.Fatal(err)
	}
	f := l.Freeze()
	if !f.HasParents() {
		t.Fatal("fixture has no parent column")
	}
	return g, f
}

// TestContainerParentsRoundTrip: the legacy version-2 containers, raw and
// gamma, still load with their parent column intact, and paths unpack
// after the load exactly as on the labeling they were written from.
func TestContainerParentsRoundTrip(t *testing.T) {
	f := goldenTree(t, true)
	for name, file := range map[string]string{"raw": "v2", "gamma": "v2-gamma"} {
		t.Run(name, func(t *testing.T) {
			data := legacyGolden(t, file)
			if v := binary.LittleEndian.Uint16(data[8:10]); v != 2 {
				t.Fatalf("golden %s has version %d, want 2", file, v)
			}
			got, err := readFlat(data)
			if err != nil {
				t.Fatalf("ReadContainerStore: %v", err)
			}
			if !got.HasParents() {
				t.Fatal("parent column lost in the load")
			}
			if !flatEqual(f, got) {
				t.Fatal("legacy container decodes to a different labeling")
			}
			if !slices.Equal(f.parents, got.parents) {
				t.Fatal("parent column differs after the load")
			}
			want, err1 := f.Path(1, 5)
			back, err2 := got.Path(1, 5)
			if err1 != nil || err2 != nil || len(want) != 4 || !slices.Equal(want, back) {
				t.Fatalf("paths diverge after reload: %v/%v vs %v/%v", want, err1, back, err2)
			}
		})
	}
}

// TestContainerV1ReadByV2Code: a legacy version-1 container (no parent
// column) loads cleanly, and Path reports the documented ErrNoParents.
func TestContainerV1ReadByV2Code(t *testing.T) {
	for _, file := range []string{"v1", "v1-gamma"} {
		data := legacyGolden(t, file)
		if v := binary.LittleEndian.Uint16(data[8:10]); v != 1 {
			t.Fatalf("golden %s has version %d, want 1", file, v)
		}
		got, err := readFlat(data)
		if err != nil {
			t.Fatalf("ReadContainerStore(%s): %v", file, err)
		}
		if got.HasParents() {
			t.Fatal("v1 container grew a parent column")
		}
		if !flatEqual(goldenTree(t, false), got) {
			t.Fatalf("%s decodes to a different labeling", file)
		}
		if _, err := got.Path(0, 3); !errors.Is(err, ErrNoParents) {
			t.Errorf("Path on v1 load = %v, want ErrNoParents", err)
		}
	}
}

// TestContainerRejectsInvalidParents: checksum-valid containers whose
// parent column violates the invariants must be rejected, not served —
// by the expanded decoder (forged through the writer) and by the legacy
// one (the raw golden patched in place). Slots refer to goldenTree:
// vertex 1 owns [2,5) — hub 0 (hop 0), its self entry, its sentinel.
func TestContainerRejectsInvalidParents(t *testing.T) {
	for _, m := range []struct {
		name  string
		patch slotPatch
	}{
		{"parent out of range", slotPatch{"parents", 2, 100}},
		{"parent below -1", slotPatch{"parents", 2, -7}},
		{"self entry with parent", slotPatch{"parents", 3, 0}},
		// A non-self entry whose stored hop is the vertex itself would
		// loop the unpacking walk forever.
		{"hop to itself", slotPatch{"parents", 2, 1}},
		{"parent on sentinel slot", slotPatch{"parents", 4, 3}},
	} {
		t.Run(m.name, func(t *testing.T) {
			forged := goldenTree(t, true)
			m.patch.apply(forged)
			if _, err := readFlat(alignedBytes(t, forged)); err == nil {
				t.Fatal("expanded container with invalid parent column accepted")
			}
			legacy := legacyGolden(t, "v2")
			m.patch.applyLegacyRaw(legacy)
			if _, err := readFlat(refreshCRC(legacy)); err == nil {
				t.Fatal("legacy container with invalid parent column accepted")
			}
		})
	}
}

// TestContainerParentsTruncated: cutting the stream inside or right before
// the parent column must error, never load a half-filled column.
func TestContainerParentsTruncated(t *testing.T) {
	f := goldenTree(t, true)
	for _, data := range [][]byte{legacyGolden(t, "v2"), legacyGolden(t, "v2-gamma"), alignedBytes(t, f)} {
		for _, cut := range []int{4, 1 + 4*len(f.parents)/2, 4 * len(f.parents)} {
			trunc := data[:len(data)-4-cut] // drop the trailer and cut into parents
			if _, err := readFlat(trunc); err == nil {
				t.Fatalf("version %d cut=%d: truncated parent column accepted", data[8], cut)
			}
		}
	}
}

// TestContainerParentsFlagWithoutVersion2: flag bit 1 on a version-1
// header must be rejected — v1 readers never defined it.
func TestContainerParentsFlagWithoutVersion2(t *testing.T) {
	data := legacyGolden(t, "v2")
	data[8] = 1 // version 2 → 1, parents flag now unknown
	// Fix the checksum so only the flag check can reject.
	if _, err := readFlat(refreshCRC(data)); err == nil {
		t.Fatal("version-1 container with parents flag accepted")
	}
}
