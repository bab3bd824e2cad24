package hub

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"hublab/internal/bitio"
	"hublab/internal/graph"
)

// containerFixture builds a small canonical labeling with uneven label
// sizes, including an empty label.
func containerFixture(t testing.TB) *FlatLabeling {
	t.Helper()
	l := NewLabeling(6)
	l.Add(0, 0, 0)
	l.Add(0, 3, 2)
	l.Add(0, 5, 7)
	l.Add(1, 1, 0)
	l.Add(2, 0, 4)
	l.Add(2, 2, 0)
	l.Add(2, 3, 1)
	l.Add(2, 4, 9)
	l.Add(3, 3, 0)
	l.Add(4, 4, 0)
	l.Add(5, 5, 0)
	// vertex 5 also gets a far hub; vertex 1 stays tiny.
	l.Add(5, 0, 7)
	return l.Freeze()
}

func flatEqual(a, b *FlatLabeling) bool {
	if a.NumVertices() != b.NumVertices() {
		return false
	}
	if len(a.hubIDs) != len(b.hubIDs) {
		return false
	}
	for i := range a.offsets {
		if a.offsets[i] != b.offsets[i] {
			return false
		}
	}
	for i := range a.hubIDs {
		if a.hubIDs[i] != b.hubIDs[i] {
			return false
		}
	}
	for v := graph.NodeID(0); int(v) < a.NumVertices(); v++ {
		ad, bd := a.LabelDists(v), b.LabelDists(v)
		for i := range ad {
			if ad[i] != bd[i] {
				return false
			}
		}
	}
	return true
}

// readFlat decodes a container of any version to the expanded arrays —
// what every content comparison in these tests is made on.
func readFlat(data []byte) (*FlatLabeling, error) {
	s, err := ReadContainerStore(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return storeFlat(s), nil
}

// TestContainerRoundTripRawAndGamma: the fixture round-trips through the
// writer's default (raw columns, the expanded layout), and the legacy
// gamma payload — no longer written — still decodes to the labeling it
// was written from.
func TestContainerRoundTripRawAndGamma(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		f := containerFixture(t)
		var buf bytes.Buffer
		n, err := f.WriteContainer(&buf, ContainerOptions{})
		if err != nil {
			t.Fatalf("WriteContainer: %v", err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("WriteContainer reported %d bytes, wrote %d", n, buf.Len())
		}
		if v := binary.LittleEndian.Uint16(buf.Bytes()[8:10]); v != versionExpanded {
			t.Errorf("default options wrote version %d, want %d", v, versionExpanded)
		}
		got, err := readFlat(buf.Bytes())
		if err != nil {
			t.Fatalf("ReadContainerStore: %v", err)
		}
		if !flatEqual(f, got) {
			t.Fatal("round trip changed the labeling")
		}
	})
	t.Run("gamma", func(t *testing.T) {
		got, err := readFlat(legacyGolden(t, "v1-gamma"))
		if err != nil {
			t.Fatalf("ReadContainerStore: %v", err)
		}
		if !flatEqual(goldenTree(t, false), got) {
			t.Fatal("legacy gamma container decodes to a different labeling")
		}
	})
}

// TestContainerReadFrom pins the stream contract of ReadContainerStore:
// it reads from r exactly the container and stops at the trailer, so a
// container embedded in a longer stream leaves the rest unread.
func TestContainerReadFrom(t *testing.T) {
	f := containerFixture(t)
	for _, compact := range []bool{false, true} {
		var buf bytes.Buffer
		if _, err := f.WriteContainer(&buf, ContainerOptions{Compact: compact}); err != nil {
			t.Fatalf("WriteContainer: %v", err)
		}
		r := bytes.NewReader(append(buf.Bytes(), "next"...))
		s, err := ReadContainerStore(r)
		if err != nil {
			t.Fatalf("ReadContainerStore: %v", err)
		}
		if r.Len() != len("next") {
			t.Errorf("compact=%v: reader consumed %d of the container's %d bytes", compact, int(r.Size())-r.Len(), buf.Len())
		}
		if !flatEqual(f, storeFlat(s)) {
			t.Fatal("stream read changed the labeling")
		}
	}
}

// TestContainerGammaMatchesEncode pins the legacy compressed section to
// the Labeling.Encode stream format: the golden file's section is
// byte-for-byte the fixture's Encode output, and Decode parses it.
func TestContainerGammaMatchesEncode(t *testing.T) {
	f := goldenTree(t, false)
	data := legacyGolden(t, "v1-gamma")
	stream := data[containerHeaderLen+8 : len(data)-4]
	if got := binary.LittleEndian.Uint64(data[containerHeaderLen:]); got != uint64(len(stream)) {
		t.Fatalf("gamma section declares %d bytes, file holds %d", got, len(stream))
	}
	want, err := f.Thaw().Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.Equal(stream, want) {
		t.Fatal("legacy gamma section differs from Labeling.Encode")
	}
	dec, err := Decode(stream)
	if err != nil {
		t.Fatalf("Decode(gamma section): %v", err)
	}
	if !flatEqual(f, dec.Freeze()) {
		t.Fatal("Decode round trip changed the labeling")
	}
}

func TestContainerEmptyLabeling(t *testing.T) {
	for _, compact := range []bool{false, true} {
		f := NewLabeling(0).Freeze()
		var buf bytes.Buffer
		if _, err := f.WriteContainer(&buf, ContainerOptions{Compact: compact}); err != nil {
			t.Fatalf("WriteContainer(empty, compact=%v): %v", compact, err)
		}
		got, err := ReadContainerStore(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadContainerStore(empty, compact=%v): %v", compact, err)
		}
		if got.NumVertices() != 0 {
			t.Fatalf("empty round trip has %d vertices", got.NumVertices())
		}
	}
}

// TestContainerCorruption flips, truncates and rewrites containers; every
// mutation must surface as an error wrapping ErrContainer — never a panic,
// never a silently wrong labeling. The corpus is one container per
// decoder: legacy raw and gamma (golden files), expanded and compact.
func TestContainerCorruption(t *testing.T) {
	f := containerFixture(t)
	for _, data := range [][]byte{
		legacyGolden(t, "v1"), legacyGolden(t, "v1-gamma"), alignedBytes(t, f), compactBytes(t, f),
	} {
		mutations := []struct {
			name   string
			mutate func([]byte) []byte
		}{
			{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
			{"bad version", func(b []byte) []byte { b[8] = 99; return b }},
			{"unknown flag", func(b []byte) []byte { b[11] |= 0x80; return b }},
			{"nonzero reserved", func(b []byte) []byte { b[13] = 1; return b }},
			{"huge slot count", func(b []byte) []byte { b[30] = 0xFF; b[31] = 0x7F; return b }},
			{"truncated header", func(b []byte) []byte { return b[:16] }},
			{"truncated columns", func(b []byte) []byte { return b[:len(b)/2] }},
			{"missing checksum", func(b []byte) []byte { return b[:len(b)-4] }},
			{"checksum mismatch", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
			{"payload bit flip", func(b []byte) []byte { b[containerHeaderLen+2] ^= 0x10; return b }},
			{"empty input", func(b []byte) []byte { return nil }},
		}
		for _, m := range mutations {
			t.Run(m.name, func(t *testing.T) {
				cp := m.mutate(append([]byte(nil), data...))
				got, err := ReadContainerStore(bytes.NewReader(cp))
				if err == nil {
					t.Fatalf("version %d: corrupt container accepted (got %d vertices)", data[8], got.NumVertices())
				}
				if !errors.Is(err, ErrContainer) {
					t.Fatalf("version %d: error %v does not wrap ErrContainer", data[8], err)
				}
			})
		}
	}
}

// TestContainerRejectsInvalidArrays writes containers whose checksums are
// valid but whose arrays violate the flat invariants — a hostile writer
// can always produce a matching CRC, so validation has to catch these.
// Each forgery is made twice: through the writer (expanded layout) and
// by patching the raw legacy golden, so both decoders face it. Slots
// refer to goldenTree: vertex 1 owns [2,5) — hub 0, hub 1, sentinel.
func TestContainerRejectsInvalidArrays(t *testing.T) {
	for _, m := range []struct {
		name    string
		patches []slotPatch
	}{
		{"negative distance", []slotPatch{{"dists", 2, -5}}},
		{"distance above infinity", []slotPatch{{"dists", 2, int32(graph.Infinity) + 1}}},
		{"sentinel id in label body", []slotPatch{{"hubIDs", 2, int32(flatSentinel)}}},
		{"negative hub id", []slotPatch{{"hubIDs", 2, -1}}},
		// Sorted after hub 0 and below the sentinel, so only the [0, n)
		// bound catches it.
		{"hub id beyond vertex count", []slotPatch{{"hubIDs", 3, 100}}},
		{"unsorted label", []slotPatch{{"hubIDs", 2, 1}, {"hubIDs", 3, 0}}},
		{"non-infinite sentinel distance", []slotPatch{{"dists", 4, 7}}},
	} {
		t.Run(m.name, func(t *testing.T) {
			forged := goldenTree(t, false)
			legacy := legacyGolden(t, "v1")
			for _, p := range m.patches {
				p.apply(forged)
				p.applyLegacyRaw(legacy)
			}
			if _, err := readFlat(alignedBytes(t, forged)); err == nil {
				t.Fatal("structurally invalid expanded container accepted")
			}
			if _, err := readFlat(refreshCRC(legacy)); err == nil {
				t.Fatal("structurally invalid legacy container accepted")
			}
		})
	}
}

// craftGammaContainer assembles a checksummed gamma container whose
// header declares n vertices and slots, and whose stream is the gamma
// codes of values in order. The CRC is valid, so only the decode-time
// bound checks stand between these streams and the flat arrays.
func craftGammaContainer(t testing.TB, n, slots uint64, values []uint64) []byte {
	t.Helper()
	var bw bitio.Writer
	for _, v := range values {
		if err := bw.WriteGamma(v); err != nil {
			t.Fatalf("WriteGamma(%d): %v", v, err)
		}
	}
	stream := bw.Bytes()

	var buf bytes.Buffer
	var header [containerHeaderLen]byte
	copy(header[0:8], containerMagic[:])
	binary.LittleEndian.PutUint16(header[8:10], 1)
	binary.LittleEndian.PutUint16(header[10:12], containerFlagGamma)
	binary.LittleEndian.PutUint64(header[16:24], n)
	binary.LittleEndian.PutUint64(header[24:32], slots)
	buf.Write(header[:])
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(stream)))
	buf.Write(lenBuf[:])
	buf.Write(stream)
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc32.Checksum(buf.Bytes(), castagnoli))
	buf.Write(trailer[:])
	return buf.Bytes()
}

// gammaSizeOverflowContainer declares a label size code of 2^63:
// converting it to a signed int before bound-checking wraps pos+sz+1
// negative, and the decode loop then writes past the 2-slot arrays. The
// fuzzer cannot plausibly reach this (63 consecutive zero bits), so the
// stream is pinned here and seeded into the fuzz corpus.
func gammaSizeOverflowContainer(t testing.TB) []byte {
	vals := []uint64{2, 1 << 63} // vertex count n+1=2, then szPlus=2^63
	for i := 0; i < 16; i++ {    // gap/dist pairs: enough data to overrun 2 slots
		vals = append(vals, 1)
	}
	return craftGammaContainer(t, 1, 2, vals)
}

// gammaGapOverflowContainer declares one hub whose gap code wraps prev to
// -2^32: unbounded, the int32 conversion truncates that back to the valid
// hub id 0 and the container loads with attacker-chosen labels.
func gammaGapOverflowContainer(t testing.TB) []byte {
	return craftGammaContainer(t, 1, 2, []uint64{
		2,                 // vertex count n+1
		2,                 // szPlus: one hub
		1<<64 - 1<<32 + 1, // gap: -1 + int64(gap) == -2^32
		1,                 // distPlus
	})
}

// TestContainerGammaOverflowCodes pins the hostile streams above to clean
// errors: the reader must reject them — never index out of range, and
// never a successfully loaded forged labeling. The crafted header itself
// is a well-formed legacy one, so it is the decoder's bound checks (not
// the header parser) doing the rejecting.
func TestContainerGammaOverflowCodes(t *testing.T) {
	for name, data := range map[string][]byte{
		"size code 2^63": gammaSizeOverflowContainer(t),
		"gap wraps prev": gammaGapOverflowContainer(t),
	} {
		if _, err := parseContainerHeader(data[:containerHeaderLen]); err != nil {
			t.Fatalf("%s: crafted header never reaches the gamma decoder: %v", name, err)
		}
		if _, err := readFlat(data); err == nil {
			t.Errorf("%s: hostile container accepted", name)
		}
	}
}

// FuzzReadContainer hammers the parser with arbitrary bytes; the only
// acceptable outcomes are a clean error or a labeling that passes
// validation.
func FuzzReadContainer(f *testing.F) {
	for _, name := range []string{"v1", "v1-gamma"} {
		data := legacyGolden(f, name)
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte("HUBLABIX"))
	f.Add([]byte{})
	f.Add(gammaSizeOverflowContainer(f))
	f.Add(gammaGapOverflowContainer(f))
	// Version-2 seeds: parent column present, whole and truncated.
	for _, name := range []string{"v2", "v2-gamma"} {
		data := legacyGolden(f, name)
		f.Add(data)
		f.Add(data[:len(data)-8])
	}
	// Version-3 seeds: the expanded layout, whole and hostile.
	for _, seed := range hostileV3Seeds(f) {
		f.Add(seed)
	}
	// Version-4 seeds: the compact layout, whole and hostile.
	for _, seed := range hostileV4Seeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadContainerStore(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted store fails validation: %v", err)
		}
		if err := storeFlat(s).validate(); err != nil {
			t.Fatalf("accepted container expands to an invalid labeling: %v", err)
		}
	})
}
