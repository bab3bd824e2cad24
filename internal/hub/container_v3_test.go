package hub

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hublab/internal/graph"
	"hublab/internal/mmapio"
)

// alignedBytes serializes f in the expanded (version-3) layout — what the
// zero-value options write.
func alignedBytes(t testing.TB, f *FlatLabeling) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := f.WriteContainer(&buf, ContainerOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refreshCRC recomputes the trailer so tampered bytes stay
// CRC-consistent — the hostile-writer model: an attacker controls the
// whole file, checksum included.
func refreshCRC(data []byte) []byte {
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.Checksum(data[:len(data)-4], castagnoli))
	return data
}

// refreshHeaderCRC recomputes the version-3 header checksum after a
// header or section-table tamper, so the deeper layout validation (not
// just the checksum) is what rejects the forgery.
func refreshHeaderCRC(data []byte) []byte {
	k := int(binary.LittleEndian.Uint64(data[32:40]))
	he := 32 + 8 + 16*k + 4
	binary.LittleEndian.PutUint32(data[he-4:he], crc32.Checksum(data[:he-4], castagnoli))
	return data
}

// openBytes runs the mmap open path over an in-memory expanded container
// (the heap Mapping exercises byte-for-byte the same parsing and casting
// code as a file mapping).
func openBytes(data []byte) (*FlatLabeling, error) {
	s, err := openStoreBytes(data)
	if err != nil {
		return nil, err
	}
	return s.(*FlatLabeling), nil
}

// openStoreBytes is openBytes for either layout: the store comes back in
// the container's native representation.
func openStoreBytes(data []byte) (LabelStore, error) {
	m := mmapio.FromBytes(data)
	s, err := openStore(m)
	if err != nil || s.Owned() {
		m.Close()
	}
	return s, err
}

// openFlatFile opens path through the file-mapping door as the expanded
// representation (what version ≤ 3 files always come back as).
func openFlatFile(path string) (*FlatLabeling, error) {
	s, err := OpenStoreMmap(path)
	if err != nil {
		return nil, err
	}
	return s.(*FlatLabeling), nil
}

// writeTemp drops data into a fresh temp file and returns its path.
func writeTemp(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.hli")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAlignedRoundTrip pins the v3 format: both the streaming decoder
// and the mmap opener recover the exact labeling, with and without the
// parent column, and every section sits 64-byte aligned in the file.
func TestAlignedRoundTrip(t *testing.T) {
	_, withParents := parentFixture(t)
	for _, tc := range []struct {
		name string
		f    *FlatLabeling
	}{
		{"plain", containerFixture(t)},
		{"parents", withParents},
		{"empty", NewLabeling(0).Freeze()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := alignedBytes(t, tc.f)
			if v := binary.LittleEndian.Uint16(data[8:10]); v != 3 {
				t.Fatalf("aligned container has version %d, want 3", v)
			}
			k := int(binary.LittleEndian.Uint64(data[32:40]))
			wantK := 3
			if tc.f.HasParents() {
				wantK = 4
			}
			if k != wantK {
				t.Fatalf("%d sections, want %d", k, wantK)
			}
			for i := 0; i < k; i++ {
				off := binary.LittleEndian.Uint64(data[40+16*i:])
				if off%containerAlign != 0 {
					t.Errorf("section %d at offset %d, not %d-byte aligned", i, off, containerAlign)
				}
			}

			dec, err := readFlat(data)
			if err != nil {
				t.Fatalf("ReadContainerStore(v3): %v", err)
			}
			if !flatEqual(dec, tc.f) || dec.HasParents() != tc.f.HasParents() {
				t.Fatal("decoded v3 container differs from the original")
			}

			view, err := openFlatFile(writeTemp(t, data))
			if err != nil {
				t.Fatalf("OpenStoreMmap: %v", err)
			}
			defer view.Release()
			if tc.f.NumVertices() > 0 && view.Owned() {
				t.Fatal("v3 open produced an owned labeling, want a view")
			}
			if !flatEqual(view, tc.f) || view.HasParents() != tc.f.HasParents() {
				t.Fatal("mmap view differs from the original")
			}
			if err := view.Validate(); err != nil {
				t.Fatalf("view fails the full audit: %v", err)
			}
		})
	}
}

// TestOpenContainerMmapFallback: legacy version-1/2 containers, raw or
// gamma, have no alignment to point at, so the mmap door falls back to a
// decoded, owned load with identical content.
func TestOpenContainerMmapFallback(t *testing.T) {
	for name, tc := range map[string]struct {
		file    string
		parents bool
	}{
		"v1-raw":     {"v1", false},
		"v1-gamma":   {"v1-gamma", false},
		"v2-parents": {"v2", true},
		"v2-gamma":   {"v2-gamma", true},
	} {
		t.Run(name, func(t *testing.T) {
			want := goldenTree(t, tc.parents)
			got, err := openFlatFile(filepath.Join("testdata", "legacy", tc.file+".hli"))
			if err != nil {
				t.Fatalf("OpenStoreMmap fallback: %v", err)
			}
			if !got.Owned() {
				t.Fatal("legacy open returned a view")
			}
			if !flatEqual(got, want) || !slices.Equal(got.parents, want.parents) {
				t.Fatal("fallback load differs from the labeling the file was written from")
			}
		})
	}
}

// TestOpenContainerMmapHostile drives the mmap opener through the
// hostile-writer corpus: truncations, misaligned and oversized section
// tables (with the CRC recomputed, so the checksum attests the forgery),
// forged padding, and header corruption must all error — never panic,
// never yield a view that reads outside the map.
func TestOpenContainerMmapHostile(t *testing.T) {
	_, fixture := parentFixture(t)
	base := alignedBytes(t, fixture)
	for _, tc := range []struct {
		name   string
		tamper func([]byte) []byte
	}{
		{"empty", func(d []byte) []byte { return nil }},
		{"magic-only", func(d []byte) []byte { return d[:8] }},
		{"truncated-header", func(d []byte) []byte { return d[:20] }},
		{"truncated-mid-column", func(d []byte) []byte { return d[:len(d)/2] }},
		{"truncated-trailer", func(d []byte) []byte { return d[:len(d)-2] }},
		// Streaming readers legitimately stop at the trailer and leave
		// trailing bytes unconsumed, so this case is mmap-only: the strict
		// whole-file layout check must refuse slack an attacker could park
		// data in.
		{"trailing-garbage (mmap-only)", func(d []byte) []byte { return refreshCRC(append(d, 0, 0, 0, 0)) }},
		{"bad-magic", func(d []byte) []byte { d[0] ^= 0xFF; return refreshCRC(d) }},
		{"future-version", func(d []byte) []byte {
			binary.LittleEndian.PutUint16(d[8:10], ContainerVersion+1)
			return refreshCRC(d)
		}},
		{"v4-stamp-on-v3-body", func(d []byte) []byte {
			// A v3 layout relabeled as the compact format must be refused
			// by the v4 extended-header validation, not misparsed.
			binary.LittleEndian.PutUint16(d[8:10], 4)
			return refreshCRC(d)
		}},
		{"gamma-flag-in-v3", func(d []byte) []byte {
			binary.LittleEndian.PutUint16(d[10:12], containerFlagGamma|containerFlagParents)
			return refreshCRC(d)
		}},
		{"nonzero-reserved", func(d []byte) []byte { d[13] = 1; return refreshCRC(d) }},
		{"huge-slots", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[24:32], 1<<40)
			return refreshCRC(d)
		}},
		{"n-exceeds-slots", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[16:24], 1<<20)
			return refreshCRC(d)
		}},
		{"wrong-section-count", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[32:40], 7)
			return refreshCRC(d)
		}},
		{"misaligned-section-offset", func(d []byte) []byte {
			off := binary.LittleEndian.Uint64(d[40:48])
			binary.LittleEndian.PutUint64(d[40:48], off+4)
			return refreshCRC(refreshHeaderCRC(d))
		}},
		{"crc-valid-oversized-length", func(d []byte) []byte {
			l := binary.LittleEndian.Uint64(d[48:56])
			binary.LittleEndian.PutUint64(d[48:56], l+64)
			return refreshCRC(refreshHeaderCRC(d))
		}},
		{"crc-valid-huge-length", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[48:56], 1<<40)
			return refreshCRC(refreshHeaderCRC(d))
		}},
		{"section-overlap", func(d []byte) []byte {
			// Point section 1 back at section 0's aligned offset.
			off0 := binary.LittleEndian.Uint64(d[40:48])
			binary.LittleEndian.PutUint64(d[56:64], off0)
			return refreshCRC(refreshHeaderCRC(d))
		}},
		{"forged-padding", func(d []byte) []byte {
			// The byte right after the header checksum is padding up to
			// the first 64-aligned section.
			k := int(binary.LittleEndian.Uint64(d[32:40]))
			d[44+16*k] = 0xAB
			return refreshCRC(d)
		}},
		{"stale-header-crc", func(d []byte) []byte {
			// A table tamper without recomputing the header checksum: the
			// O(1) authentication must catch it before any column is
			// trusted.
			binary.LittleEndian.PutUint64(d[48:56], 1<<20)
			return refreshCRC(d)
		}},
		{"broken-run-structure", func(d []byte) []byte {
			// Forge the offsets column (first section): a wildly large
			// offsets[1] must be caught by the quick run validation even
			// though the CRC is consistent.
			off := binary.LittleEndian.Uint64(d[40:48])
			binary.LittleEndian.PutUint32(d[off+4:], 1<<30)
			return refreshCRC(d)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.tamper(append([]byte(nil), base...))
			if f, err := openBytes(data); err == nil {
				t.Fatalf("hostile container accepted (owned=%v)", f.Owned())
			}
			// The streaming decoder must reject the same bytes (except the
			// documented mmap-only strictness cases).
			if !strings.Contains(tc.name, "mmap-only") {
				if _, err := ReadContainerStore(bytes.NewReader(data)); err == nil {
					t.Fatal("ReadContainerStore accepted the hostile container")
				}
			}
			// And the file-based door agrees with the bytes-based one.
			if _, err := OpenStoreMmap(writeTemp(t, data)); err == nil {
				t.Fatal("OpenStoreMmap accepted the hostile container")
			}
		})
	}
}

// TestMmapQuickValidationTrustModel pins the documented trade: a
// CRC-consistent v3 file with forged interior entries (a hub id far out
// of range, with runs intact) is accepted by the quick open — but every
// query path stays panic-free on it, the full Validate audit rejects it,
// and the decoding reader (which always runs the audit) rejects it too.
func TestMmapQuickValidationTrustModel(t *testing.T) {
	_, fixture := parentFixture(t)
	data := alignedBytes(t, fixture)
	// Sections: 0=offsets, 1=hubIDs, 2=dists, 3=parents. Forge the first
	// interior hub id and the first interior parent hop.
	idOff := binary.LittleEndian.Uint64(data[40+16:])
	binary.LittleEndian.PutUint32(data[idOff:], 1<<20) // hub id 1048576 on a 6-vertex graph
	parOff := binary.LittleEndian.Uint64(data[40+48:])
	binary.LittleEndian.PutUint32(data[parOff:], uint32(1<<20))
	refreshCRC(data)

	if _, err := ReadContainerStore(bytes.NewReader(data)); err == nil {
		t.Fatal("decoding reader accepted forged interior entries")
	}
	f, err := openBytes(data)
	if err != nil {
		t.Fatalf("quick open rejected a run-valid forgery: %v", err)
	}
	defer f.Release()
	if err := f.Validate(); err == nil {
		t.Fatal("full audit accepted forged interior entries")
	}
	// Wrong answers are allowed; panics and out-of-bounds reads are not.
	n := graph.NodeID(f.NumVertices())
	for u := graph.NodeID(0); u < n; u++ {
		for v := graph.NodeID(0); v < n; v++ {
			f.Query(u, v)
			f.QueryVia(u, v)
			if _, err := f.Path(u, v); err == nil && u != v {
				// A successful unpack on intact entries is fine; the forged
				// ones must error, not panic — both outcomes pass.
				continue
			}
		}
	}
	pairs := [][2]graph.NodeID{{0, 1}, {2, 3}, {4, 5}, {1, 4}}
	out := make([]graph.Weight, len(pairs))
	f.QueryBatch(pairs, out)
	e := NewEccIndex(f)
	for v := graph.NodeID(0); v < n; v++ {
		e.Eccentricity(v)
		e.EccentricityUpperBound(v)
	}

	// The second face of the trade: a column bit flip with a now-stale
	// trailer is the accidental corruption the quick open knowingly does
	// not audit — the decoding reader rejects it, the quick open accepts
	// it and must still never panic. Flip well inside the hubIDs section
	// (negative ids included: the overflow-safe merge advance is what
	// keeps the cursors in bounds on them).
	stale := alignedBytes(t, fixture)
	staleIDOff := binary.LittleEndian.Uint64(stale[40+16:])
	stale[staleIDOff+3] ^= 0x80 // sign bit of the first interior hub id
	if _, err := ReadContainerStore(bytes.NewReader(stale)); err == nil {
		t.Fatal("decoder accepted a stale trailer checksum")
	}
	sf, err := openBytes(stale)
	if err != nil {
		t.Fatalf("quick open rejected a stale-trailer column flip: %v", err)
	}
	defer sf.Release()
	for u := graph.NodeID(0); u < n; u++ {
		for v := graph.NodeID(0); v < n; v++ {
			sf.Query(u, v)
		}
	}
}

// TestViewOwnership pins the ownership API: a view is not Owned, its
// CopyOwned detaches fully (surviving Release), Release is idempotent,
// and an owned labeling's Release is a no-op.
func TestViewOwnership(t *testing.T) {
	fixture := containerFixture(t)
	if !fixture.Owned() {
		t.Fatal("built labeling is not owned")
	}
	if err := fixture.Release(); err != nil {
		t.Fatalf("owned Release: %v", err)
	}

	view, err := openFlatFile(writeTemp(t, alignedBytes(t, fixture)))
	if err != nil {
		t.Fatal(err)
	}
	if view.Owned() {
		t.Fatal("v3 open is owned, want view")
	}
	clone := view.CopyOwned()
	if !clone.Owned() {
		t.Fatal("CopyOwned returned a view")
	}
	if err := view.Release(); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if err := view.Release(); err != nil {
		t.Fatalf("second Release: %v", err)
	}
	// The detached copy must answer from its own storage.
	if !flatEqual(clone, fixture) {
		t.Fatal("CopyOwned clone differs after the view released")
	}
	// Query(0,2) meets at hub 3: 2 + 1 = 3 (beating hub 0's 0 + 4).
	if d, ok := clone.Query(0, 2); !ok || d != 3 {
		t.Fatalf("clone query = (%d,%v), want (3,true)", d, ok)
	}
}

// TestViewThawAndComputeParentsNeverWriteMapping is the regression test
// for the copy-on-write contract: Thaw of a view deep-copies, mutating
// the thawed labeling (including ComputeParents and re-freezing) leaves
// the mapped file byte-identical, and the in-place
// FlatLabeling.ComputeParents refuses the view outright with
// ErrViewImmutable.
func TestViewThawAndComputeParentsNeverWriteMapping(t *testing.T) {
	g, fixture := parentFixture(t)
	// Serve a parentless aligned container, so ComputeParents has work.
	bare := fixture.CopyOwned()
	bare.parents = nil
	data := alignedBytes(t, bare)
	path := writeTemp(t, data)
	before := append([]byte(nil), data...)

	view, err := openFlatFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer view.Release()
	if view.HasParents() {
		t.Fatal("bare view has parents")
	}

	// In-place retrofit on the view must be refused, not attempted.
	if err := view.ComputeParents(g); !errors.Is(err, ErrViewImmutable) {
		t.Fatalf("view ComputeParents = %v, want ErrViewImmutable", err)
	}

	// The two sanctioned routes: Thaw (deep copy, mutable) and CopyOwned
	// (flat copy-on-write). Both must yield working paths without a single
	// byte of the mapping changing.
	thawed := view.Thaw()
	if err := thawed.ComputeParents(g); err != nil {
		t.Fatal(err)
	}
	if p, err := thawed.Freeze().Path(1, 2); err != nil || len(p) != 3 {
		t.Fatalf("thawed path = %v, %v", p, err)
	}
	thawed.Add(0, 3, 1) // arbitrary further mutation of the thawed form

	clone := view.CopyOwned()
	if err := clone.ComputeParents(g); err != nil {
		t.Fatal(err)
	}
	if p, err := clone.Path(1, 2); err != nil || len(p) != 3 {
		t.Fatalf("clone path = %v, %v", p, err)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("mutating thawed/copied labelings wrote through the mapped container")
	}
	// The view itself still answers and still has no parents.
	if view.HasParents() {
		t.Fatal("view grew a parent column")
	}
	if d, ok := view.Query(1, 2); !ok || d != 2 {
		t.Fatalf("view query after mutations = (%d,%v), want (2,true)", d, ok)
	}
}

// TestFlatComputeParentsOwned pins the owned in-place retrofit: a
// parentless flat labeling gains a working parent column without a Thaw
// round-trip, and a distance mismatch is rejected.
func TestFlatComputeParentsOwned(t *testing.T) {
	g, fixture := parentFixture(t)
	bare := fixture.CopyOwned()
	bare.parents = nil
	if err := bare.ComputeParents(g); err != nil {
		t.Fatal(err)
	}
	if !bare.HasParents() {
		t.Fatal("no parent column attached")
	}
	for u := graph.NodeID(0); u < 6; u++ {
		for v := graph.NodeID(0); v < 6; v++ {
			p, err := bare.Path(u, v)
			if err != nil {
				t.Fatalf("Path(%d,%d): %v", u, v, err)
			}
			want, _ := fixture.Query(u, v)
			if got := graph.Weight(len(p) - 1); got != want {
				t.Fatalf("Path(%d,%d) has %d hops, distance is %d", u, v, got, want)
			}
		}
	}

	wrong := fixture.CopyOwned()
	wrong.parents = nil
	wrong.dists[0] += 3 // no longer the true graph distance
	if err := wrong.ComputeParents(g); err == nil {
		t.Fatal("ComputeParents accepted wrong stored distances")
	}
	if wrong.HasParents() {
		t.Fatal("failed ComputeParents left a parent column behind")
	}
}
