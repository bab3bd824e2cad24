package hub

import (
	"bytes"
	"fmt"

	"hublab/internal/mmapio"
)

// OpenStoreMmap opens a container file as a memory-mapped LabelStore in
// its native representation: an expanded file as a zero-copy
// *FlatLabeling, a compact file as a zero-copy *CompactLabeling. After
// the header, checksum and run-structure checks pass, the columns are
// typed views of the mapped region — no decode, no second copy of the
// index in anonymous memory, and the kernel page cache shares the
// physical pages between every process serving the same file. Legacy
// (version 1–2) files have no alignment guarantees to point at, so they
// fall back to the ordinary decoded load and return an owned labeling;
// callers can branch on Owned() when the distinction matters.
//
// The returned view is immutable shared memory with an explicit
// lifetime: Release unmaps it, and must not run before the last query
// finishes (the serving layer refcounts snapshots for exactly this).
// Replace a served container file by atomic rename, never by in-place
// overwrite — a rename leaves the mapped inode untouched, an overwrite
// rewrites the live pages under running queries.
//
// Validation and the trust model: open verifies the header and its
// crc32 (which covers the section table, so the layout is
// authenticated), the canonical section placement (alignment, exact
// lengths, zero padding, exact file size) and the O(n) structural
// invariants every query path's memory safety rests on — the offsets
// cover of an expanded store (validateOffsets); the entry and escape
// CSRs of a compact one plus its remap table being a permutation, with
// the inverse heap-built (validateQuick). Everything it reads is O(n)
// metadata; the label columns themselves are never streamed through the
// CPU, which is what makes open O(1) in the index size and lets
// first-touch cost land lazily on the queries that actually fault each
// page in. The trade, relative to the decoding reader: the whole-file
// trailer crc32 and the interior entries are not audited at open. That
// is sound because every query path is memory-safe without interior
// trust — the merge cursors cannot escape the validated offsets cover
// (see validateOffsets for the termination argument), compact
// escape-slot reads are bounds-checked in the kernels, path unpacking
// bounds-checks each stored hop and answers ErrPathUnpack on escape, and
// the eccentricity index skips out-of-range ids. A corrupted or forged
// file can therefore produce wrong answers but never a panic or an
// out-of-map read; use index.Load (which audits everything including the
// trailer checksum) or run Validate when loading files of unknown
// provenance, and hubserve -selfcheck to spot-check served answers
// against the graph.
func OpenStoreMmap(path string) (LabelStore, error) {
	m, err := mmapio.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := openStore(m)
	if err != nil {
		m.Close()
		return nil, err
	}
	if s.Owned() {
		// Decode fallback (legacy version, or every column copied by the
		// cast guards): the labeling no longer needs the mapping.
		m.Close()
	}
	return s, nil
}

// openStore builds a label store over an established mapping. On success
// the result either aliases the mapping (ref == m) or is fully owned;
// the caller closes the mapping in the latter case and on error.
func openStore(m *mmapio.Mapping) (LabelStore, error) {
	data := m.Bytes()
	if len(data) < containerHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than a header", ErrContainer, len(data))
	}
	base := data[:containerHeaderLen]
	h, err := parseContainerHeader(base)
	if err != nil {
		return nil, err
	}
	if h.version < versionExpanded {
		// No alignment guarantees to point at: decode the legacy format.
		// A file ends at its trailer, here as in the sectioned layouts.
		r := bytes.NewReader(data)
		s, err := ReadContainerStore(r)
		if err == nil && r.Len() > 0 {
			return nil, fmt.Errorf("%w: %d bytes follow the trailer", ErrContainer, r.Len())
		}
		return s, err
	}
	headerEnd := containerHeaderLen + h.extLen()
	if int64(len(data)) < headerEnd {
		return nil, fmt.Errorf("%w: %d bytes is shorter than a version-%d header", ErrContainer, len(data), h.version)
	}
	l, err := h.parseExt(base, data[containerHeaderLen:headerEnd])
	if err != nil {
		return nil, err
	}
	// The canonical layout pins the exact file size before any column
	// view exists: a section can then never name bytes outside the map.
	if int64(len(data)) != l.end()+4 {
		return nil, fmt.Errorf("%w: %d bytes, canonical layout needs %d", ErrContainer, len(data), l.end()+4)
	}
	cols := make([]column, len(l.secs))
	aliased := false
	pos := headerEnd
	for i, s := range l.secs {
		if !allZero(data[pos:s.off]) {
			return nil, fmt.Errorf("%w: nonzero padding before section %d", ErrContainer, i)
		}
		pos = s.off + s.length
		if sec := data[s.off:pos]; s.raw {
			// Byte columns need no cast and alias the mapping directly.
			cols[i].raw = sec
			aliased = aliased || len(sec) > 0
		} else {
			var a bool
			cols[i].ints, a = mmapio.View[int32](sec)
			aliased = aliased || a
		}
	}
	var ref *mmapio.Mapping
	if aliased {
		ref = m
	}
	s := l.store(cols)
	var quick func() error
	switch s := s.(type) {
	case *CompactLabeling:
		s.ref, quick = ref, s.validateQuick
	case *FlatLabeling:
		s.ref, quick = ref, s.validateOffsets
	}
	if err := quick(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrContainer, err)
	}
	return s, nil
}
