package hub

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"hublab/internal/graph"
)

// memWriterAt is an in-memory io.WriterAt that grows on demand, for
// comparing streamed bytes against the reference writer.
type memWriterAt struct {
	buf []byte
}

func (m *memWriterAt) WriteAt(p []byte, off int64) (int, error) {
	if need := off + int64(len(p)); need > int64(len(m.buf)) {
		m.buf = append(m.buf, make([]byte, need-int64(len(m.buf)))...)
	}
	copy(m.buf[off:], p)
	return len(p), nil
}

func TestCrc32Combine(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, split := range []struct{ a, b int }{
		{0, 0}, {0, 17}, {17, 0}, {1, 1}, {13, 4096}, {4096, 13}, {100000, 3}, {7, 1 << 20},
	} {
		data := make([]byte, split.a+split.b)
		rng.Read(data)
		want := crc32.Checksum(data, castagnoli)
		crcA := crc32.Checksum(data[:split.a], castagnoli)
		crcB := crc32.Checksum(data[split.a:], castagnoli)
		if got := crc32Combine(crcA, crcB, int64(split.b)); got != want {
			t.Errorf("combine(%d,%d): got %#x, want %#x", split.a, split.b, got, want)
		}
	}
}

// streamTestLabeling builds a small canonical labeling with a parent
// column: hub sets are downward-closed prefixes {0..k} so parents can
// point at hub 0 trivially while staying structurally valid.
func streamTestLabeling(t *testing.T, n int, withParents bool) *Labeling {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	labels := make([][]Hub, n)
	parents := make([][]graph.NodeID, n)
	for v := 0; v < n; v++ {
		k := rng.Intn(5)
		for h := 0; h <= k && h < n; h++ {
			d := graph.Weight(rng.Intn(50))
			p := graph.NodeID(-1)
			if graph.NodeID(h) != graph.NodeID(v) {
				d++ // non-self entries get a nonzero distance for variety
				p = graph.NodeID((v + 1) % n)
				if p == graph.NodeID(v) {
					p = graph.NodeID((v + 2) % n)
				}
			} else {
				d = 0
			}
			labels[v] = append(labels[v], Hub{Node: graph.NodeID(h), Dist: d})
			parents[v] = append(parents[v], p)
		}
	}
	if !withParents {
		l := &Labeling{labels: labels}
		l.Canonicalize()
		return l
	}
	return AssembleSlicesParents(labels, parents)
}

// TestContainerWriterByteIdentical is the producers × layouts matrix: for
// each fixture shape and each layout, the three producers — the expanded
// store, the compact store, and the per-vertex streaming feeder over a
// never-frozen labeling — must emit pairwise-identical bytes, and those
// bytes must load through both doors to the fixture's labels.
func TestContainerWriterByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		parents bool
		opts    ContainerOptions
	}{
		{"v3-aligned", 40, true, ContainerOptions{}},
		{"v3-aligned-no-parents", 40, false, ContainerOptions{}},
		{"v3-empty", 0, true, ContainerOptions{}},
		{"v3-large", 3000, true, ContainerOptions{}},
		{"v4-compact", 40, true, ContainerOptions{Compact: true}},
		{"v4-compact-no-parents", 40, false, ContainerOptions{Compact: true}},
		{"v4-empty", 0, true, ContainerOptions{Compact: true}},
		{"v4-large", 3000, true, ContainerOptions{Compact: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flat := streamTestLabeling(t, tc.n, tc.parents).Freeze()
			var want bytes.Buffer
			if _, err := flat.WriteContainer(&want, tc.opts); err != nil {
				t.Fatalf("FlatLabeling.WriteContainer: %v", err)
			}
			var fromCompact bytes.Buffer
			if _, err := CompactFromFlat(flat).WriteContainer(&fromCompact, tc.opts); err != nil {
				t.Fatalf("CompactLabeling.WriteContainer: %v", err)
			}
			if !bytes.Equal(fromCompact.Bytes(), want.Bytes()) {
				t.Fatalf("compact store writes different bytes than the expanded store (%d vs %d)", fromCompact.Len(), want.Len())
			}
			// Stream from a never-frozen twin so the flat form cannot leak in.
			var got memWriterAt
			total, err := streamTestLabeling(t, tc.n, tc.parents).WriteContainerStreaming(&got, tc.opts)
			if err != nil {
				t.Fatalf("WriteContainerStreaming: %v", err)
			}
			if total != int64(len(got.buf)) {
				t.Errorf("reported %d bytes, wrote %d", total, len(got.buf))
			}
			if !bytes.Equal(got.buf, want.Bytes()) {
				t.Fatalf("streamed container differs from reference (%d vs %d bytes)", len(got.buf), want.Len())
			}
			// And the bytes load through both doors to the same labels.
			dec, err := ReadContainerStore(bytes.NewReader(got.buf))
			if err != nil {
				t.Fatalf("ReadContainerStore: %v", err)
			}
			view, err := OpenStoreMmap(writeTemp(t, got.buf))
			if err != nil {
				t.Fatalf("OpenStoreMmap: %v", err)
			}
			defer view.Release()
			for door, s := range map[string]LabelStore{"decode": dec, "mmap": view} {
				wantRep := RepExpanded
				if tc.opts.Compact {
					wantRep = RepCompact
				}
				if s.Representation() != wantRep {
					t.Errorf("%s door serves %q, want %q", door, s.Representation(), wantRep)
				}
				if back := storeFlat(s); !flatEqual(back, flat) || !slices.Equal(back.parents, flat.parents) {
					t.Errorf("%s door loads different labels", door)
				}
			}
		})
	}
}

// TestContainerWriterContractErrors pins the two nets under the
// streaming writer. The validation pass: a labeling no reader would load
// — unsorted or out-of-range hubs, an out-of-range distance, a parent
// column that is short, missing or invalid — is refused under both
// layouts before the first byte lands. And finish: cursors fed fewer or
// more bytes than the layout declares fail the save instead of emitting
// a container whose section table lies.
func TestContainerWriterContractErrors(t *testing.T) {
	for name, l := range map[string]*Labeling{
		"unsorted-label":   {labels: [][]Hub{{{Node: 1, Dist: 1}, {Node: 0, Dist: 1}}, nil}},
		"hub-out-of-range": {labels: [][]Hub{{{Node: 0, Dist: 0}, {Node: 2, Dist: 1}}, nil}},
		"bad-distance":     {labels: [][]Hub{{{Node: 0, Dist: 0}, {Node: 1, Dist: graph.Infinity}}, nil}},
		"parents-mismatch": {
			labels:  [][]Hub{{{Node: 0, Dist: 0}}},
			parents: [][]graph.NodeID{nil},
		},
		"bad-parent": {
			labels:  [][]Hub{{{Node: 0, Dist: 0}, {Node: 1, Dist: 3}}, nil},
			parents: [][]graph.NodeID{{-1, 5}, nil},
		},
		"self-entry-with-parent": {
			labels:  [][]Hub{{{Node: 0, Dist: 0}}, nil},
			parents: [][]graph.NodeID{{1}, nil},
		},
	} {
		t.Run(name, func(t *testing.T) {
			for _, opts := range []ContainerOptions{{}, {Compact: true}} {
				var w memWriterAt
				if _, err := l.WriteContainerStreaming(&w, opts); err == nil {
					t.Fatalf("compact=%v: invalid labeling accepted", opts.Compact)
				}
				if len(w.buf) != 0 {
					t.Fatalf("compact=%v: %d bytes landed before the refusal", opts.Compact, len(w.buf))
				}
			}
		})
	}
	// The layout below declares 2 vertices holding 3 entries; each feed
	// delivers something else.
	for name, fed := range map[string]*Labeling{
		"short-finish":      {labels: [][]Hub{{{Node: 0}, {Node: 1, Dist: 1}, {Node: 2, Dist: 1}}}},
		"entries-mismatch":  {labels: [][]Hub{{{Node: 0}}, nil}},
		"too-many-vertices": {labels: [][]Hub{{{Node: 0}}, {{Node: 1}}, {{Node: 2}}}},
	} {
		t.Run(name, func(t *testing.T) {
			sc := newSectionCursors(&memWriterAt{}, expandedLayout(2, 5, false))
			fed.feedExpanded(sc)
			if _, err := sc.finish(); err == nil {
				t.Fatal("finish accepted cursors that do not fill their sections exactly")
			}
		})
	}
}
