package hub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"hublab/internal/graph"
)

// Container format: the persistent on-disk form of a label store.
//
// A container is a little-endian byte stream in one sectioned format:
//
//	base header (32 bytes)
//	  [ 0: 8)  magic "HUBLABIX"
//	  [ 8:10)  version (3 expanded, 4 compact; 1 and 2 are legacy)
//	  [10:12)  flags (bit 1: a parent column is present; bit 2, compact
//	           only: distance codes are two bytes wide)
//	  [12:16)  reserved, zero
//	  [16:24)  n — vertex count
//	  [24:32)  label slots (expanded, sentinels included) or label
//	           entries (compact)
//	extended header
//	  [32:40)  section count k
//	  compact only: [40:48) escape-slot count
//	  k × {file offset u64, byte length u64} — the section table
//	  crc32 (Castagnoli) of every header byte before it
//	sections, in table order, each starting at the first 64-byte file
//	boundary at or after its predecessor's end, every padding byte zero
//	trailer: crc32 (Castagnoli) of everything before it
//
//	layout    version  sections                                   flags
//	expanded  3        offsets (n+1)·i32, hubIDs, dists slots·i32  parents
//	                   [, parents slots·i32] — the FlatLabeling
//	                   columns verbatim
//	compact   4        offsets (n+1)·i32, remap n·i32, escOff      parents,
//	                   (n+1)·i32, hubDelta entries·u8, distDelta   wideDist
//	                   entries·u8|u16, esc escapes·i32 [, parents
//	                   entries·i32] — see CompactLabeling
//
// The header checksum lets the zero-copy open (OpenStoreMmap)
// authenticate the layout in O(1) without streaming the columns through
// the CPU, and 64-byte alignment makes every column cache-line aligned
// in the file and, mappings being page-aligned, in memory. The section
// table is deliberately redundant: every reader recomputes the canonical
// layout from the header fields and rejects any deviation (misaligned
// offsets, over- or undersized lengths, nonzero padding, a file that is
// not exactly the canonical size), so a hostile writer cannot smuggle
// unchecked bytes or force out-of-map column views.
//
// Legacy, read-only: version 1 and 2 files (unaligned raw columns or an
// Elias-gamma payload, version 2 adding the parent column) are no longer
// written but still load — decoded onto the heap by legacy.go, through
// ReadContainerStore and the fallback of OpenStoreMmap. Re-save one with
// any ContainerOptions to migrate it.

// ContainerVersion is the newest container format version this package
// writes and reads.
const ContainerVersion = versionCompact

// containerMagic identifies hub-labeling index containers.
var containerMagic = [8]byte{'H', 'U', 'B', 'L', 'A', 'B', 'I', 'X'}

const (
	containerHeaderLen   = 32
	containerFlagParents = 1 << 1
	// containerFlagWideDist (compact only) widens the distance column to
	// two-byte codes; set deterministically by the plan when narrow
	// distance escapes would exceed 1 in 8 entries.
	containerFlagWideDist = 1 << 2
	versionExpanded       = 3
	versionCompact        = 4
	// containerAlign is the file-offset alignment of every section: one
	// cache line, which page-aligned mappings carry through to memory
	// addresses.
	containerAlign = 64
	// ioChunkBytes bounds the one reused buffer int32 columns are
	// converted through, on the way out and on the way in.
	ioChunkBytes = 4 << 20
	// maxReserveBytes caps what a reader reserves on a header's word
	// alone; past it, buffers grow only as bytes actually arrive.
	maxReserveBytes = 64 << 20
)

// alignUp rounds n up to the next containerAlign boundary.
func alignUp(n int64) int64 {
	return (n + containerAlign - 1) &^ (containerAlign - 1)
}

// ErrContainer reports a malformed or corrupt index container.
var ErrContainer = errors.New("hub: corrupt index container")

// ContainerOptions configures WriteContainer.
type ContainerOptions struct {
	// Compact selects the compact layout (version 4): the queryable
	// compressed representation, at roughly a quarter of the expanded
	// layout's resident bytes. Without it the expanded layout (version 3)
	// is written. Both are servable zero-copy via OpenStoreMmap.
	Compact bool
	// Aligned is inert: every written container is 64-byte aligned. The
	// field remains because existing callers set it; {} and
	// {Aligned: true} write the same bytes.
	Aligned bool
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// containerSection is one column's place in a container.
type containerSection struct {
	off, length int64
	// raw marks a byte column (the compact delta codes); every other
	// column is little-endian int32s.
	raw bool
}

// column is one section's payload in memory.
type column struct {
	ints []int32
	raw  []byte
}

// layout is the one description of a sectioned container: the header
// fields and the canonical placement of every section that follows from
// them. Writers emit exactly this; readers recompute it from the header
// and reject any file that deviates.
type layout struct {
	version, flags uint16
	n, count       int64
	// extras are the header words between the section count and the
	// table (compact: the escape-slot count).
	extras []int64
	secs   []containerSection
}

// newLayout places secs (lengths given) in order, each at the first
// 64-byte boundary at or after its predecessor's end.
func newLayout(version, flags uint16, n, count int64, extras []int64, secs []containerSection) *layout {
	l := &layout{version: version, flags: flags, n: n, count: count, extras: extras, secs: secs}
	pos := l.headerLen()
	for i := range secs {
		pos = alignUp(pos)
		secs[i].off = pos
		pos += secs[i].length
	}
	return l
}

// expandedLayout is the version-3 layout: the FlatLabeling columns.
func expandedLayout(n, slots int64, parents bool) *layout {
	flags := uint16(0)
	secs := []containerSection{{length: 4 * (n + 1)}, {length: 4 * slots}, {length: 4 * slots}}
	if parents {
		flags = containerFlagParents
		secs = append(secs, containerSection{length: 4 * slots})
	}
	return newLayout(versionExpanded, flags, n, slots, nil, secs)
}

// compactLayout is the version-4 layout: the CompactLabeling columns.
func compactLayout(n, entries, escs int64, wide, parents bool) *layout {
	flags, stride := uint16(0), int64(1)
	if wide {
		flags, stride = containerFlagWideDist, 2
	}
	secs := []containerSection{
		{length: 4 * (n + 1)}, {length: 4 * n}, {length: 4 * (n + 1)},
		{length: entries, raw: true}, {length: stride * entries, raw: true},
		{length: 4 * escs},
	}
	if parents {
		flags |= containerFlagParents
		secs = append(secs, containerSection{length: 4 * entries})
	}
	return newLayout(versionCompact, flags, n, entries, []int64{escs}, secs)
}

// headerLen is the byte length of the base plus extended header.
func (l *layout) headerLen() int64 {
	return containerHeaderLen + 8 + 8*int64(len(l.extras)) + 16*int64(len(l.secs)) + 4
}

// end is the file offset of the trailer.
func (l *layout) end() int64 {
	last := l.secs[len(l.secs)-1]
	return last.off + last.length
}

// chunkLen sizes the conversion buffer for l's int32 columns.
func (l *layout) chunkLen() int64 {
	longest := int64(0)
	for _, s := range l.secs {
		if !s.raw {
			longest = max(longest, s.length)
		}
	}
	return min(longest, ioChunkBytes)
}

// header builds the base and extended header, header checksum included.
func (l *layout) header() []byte {
	le := binary.LittleEndian
	hdr := make([]byte, l.headerLen())
	copy(hdr, containerMagic[:])
	le.PutUint16(hdr[8:], l.version)
	le.PutUint16(hdr[10:], l.flags)
	le.PutUint64(hdr[16:], uint64(l.n))
	le.PutUint64(hdr[24:], uint64(l.count))
	le.PutUint64(hdr[32:], uint64(len(l.secs)))
	p := 40
	for _, x := range l.extras {
		le.PutUint64(hdr[p:], uint64(x))
		p += 8
	}
	for _, s := range l.secs {
		le.PutUint64(hdr[p:], uint64(s.off))
		le.PutUint64(hdr[p+8:], uint64(s.length))
		p += 16
	}
	le.PutUint32(hdr[p:], crc32.Checksum(hdr[:p], castagnoli))
	return hdr
}

// sections returns f's container layout and columns in section order.
func (f *FlatLabeling) sections() (*layout, []column) {
	cols := []column{{ints: f.offsets}, {ints: f.hubIDs}, {ints: f.dists}}
	if f.parents != nil {
		cols = append(cols, column{ints: f.parents})
	}
	return expandedLayout(int64(f.NumVertices()), int64(len(f.hubIDs)), f.parents != nil), cols
}

// sections returns c's container layout and columns in section order.
func (c *CompactLabeling) sections() (*layout, []column) {
	cols := []column{{ints: c.offsets}, {ints: c.remap}, {ints: c.escOff},
		{raw: c.hubDelta}, {raw: c.distDelta}, {ints: c.esc}}
	if c.parents != nil {
		cols = append(cols, column{ints: c.parents})
	}
	return compactLayout(int64(c.n), int64(len(c.hubDelta)), int64(len(c.esc)), c.wide, c.parents != nil), cols
}

// store assembles the label store over cols, the inverse of sections.
// Nothing is validated here.
func (l *layout) store(cols []column) LabelStore {
	if l.version == versionCompact {
		c := &CompactLabeling{n: int(l.n), wide: l.flags&containerFlagWideDist != 0,
			offsets: cols[0].ints, remap: cols[1].ints, escOff: cols[2].ints,
			hubDelta: cols[3].raw, distDelta: cols[4].raw, esc: cols[5].ints}
		if len(cols) > 6 {
			c.parents = cols[6].ints
		}
		return c
	}
	f := &FlatLabeling{offsets: cols[0].ints, hubIDs: cols[1].ints, dists: cols[2].ints}
	if len(cols) > 3 {
		f.parents = cols[3].ints
	}
	return f
}

// WriteContainer serializes f in the container format described above
// and returns the number of bytes written.
func (f *FlatLabeling) WriteContainer(w io.Writer, opts ContainerOptions) (int64, error) {
	if opts.Compact {
		// Re-encoding rank-maps every hub id, so the labels must be
		// structurally valid — always true for built or decoded labelings,
		// not guaranteed for quick-validated mmap views. The audit is
		// O(entries), the same order as the write itself.
		if err := f.validate(); err != nil {
			return 0, fmt.Errorf("hub: compact re-encode: %w", err)
		}
		return writeSections(w, CompactFromFlat(f))
	}
	return writeSections(w, f)
}

// writeSections is the sequential emitter for stores whose columns
// exist: header, then per section its zero padding and payload, then the
// crc32 of it all. Int32 columns stream through one reused chunk instead
// of a second full copy of the arrays.
func writeSections(w io.Writer, store interface{ sections() (*layout, []column) }) (int64, error) {
	l, cols := store.sections()
	crc := crc32.New(castagnoli)
	cw := &countingWriter{w: w}
	body := io.MultiWriter(cw, crc)
	var pad [containerAlign]byte
	chunk := make([]byte, l.chunkLen())
	if _, err := body.Write(l.header()); err != nil {
		return cw.n, err
	}
	pos := l.headerLen()
	for i, s := range l.secs {
		if _, err := body.Write(pad[:s.off-pos]); err != nil {
			return cw.n, err
		}
		var err error
		if s.raw {
			_, err = body.Write(cols[i].raw)
		} else {
			err = writeInt32s(body, chunk, cols[i].ints)
		}
		if err != nil {
			return cw.n, err
		}
		pos = s.off + s.length
	}
	_, err := cw.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	return cw.n, err
}

// writeInt32s streams col little-endian through chunk.
func writeInt32s(w io.Writer, chunk []byte, col []int32) error {
	for len(col) > 0 {
		n := min(len(col), len(chunk)/4)
		for i, x := range col[:n] {
			binary.LittleEndian.PutUint32(chunk[4*i:], uint32(x))
		}
		if _, err := w.Write(chunk[:4*n]); err != nil {
			return err
		}
		col = col[n:]
	}
	return nil
}

// countingWriter tracks bytes written to the underlying writer.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// containerHeader is the parsed 32-byte base header.
type containerHeader struct {
	version, flags uint16
	n, count       int64
}

// parseContainerHeader validates the fixed 32-byte header shared by all
// container versions — magic, version, the version-appropriate flag
// mask, the reserved field, and the n/count plausibility bounds that cap
// hostile allocations before any buffer is reserved (the columns are
// int32-indexed, so count — and n — must fit). Both the streaming reader
// and the mmap opener go through here, so a hardening fix lands in every
// door at once.
func parseContainerHeader(b []byte) (containerHeader, error) {
	le := binary.LittleEndian
	if [8]byte(b[0:8]) != containerMagic {
		return containerHeader{}, fmt.Errorf("%w: bad magic %q", ErrContainer, b[0:8])
	}
	version, flags := le.Uint16(b[8:10]), le.Uint16(b[10:12])
	var known uint16
	switch {
	case version < 1 || version > ContainerVersion:
		return containerHeader{}, fmt.Errorf("%w: unsupported version %d", ErrContainer, version)
	case version == versionCompact:
		known = containerFlagParents | containerFlagWideDist
	case version == versionExpanded:
		known = containerFlagParents
	default:
		known = legacyKnownFlags(version)
	}
	if flags&^known != 0 {
		return containerHeader{}, fmt.Errorf("%w: unknown flags %#x for version %d", ErrContainer, flags, version)
	}
	if le.Uint32(b[12:16]) != 0 {
		return containerHeader{}, fmt.Errorf("%w: nonzero reserved field", ErrContainer)
	}
	n, count := le.Uint64(b[16:24]), le.Uint64(b[24:32])
	// The compact layout counts entries (no sentinels), so count < n is
	// legal there (empty labels cost nothing) and n itself must leave room
	// for int32 vertex ids; every other version stores a sentinel per
	// vertex.
	if count > math.MaxInt32 || (version == versionCompact && n >= math.MaxInt32) ||
		(version != versionCompact && n > count) {
		return containerHeader{}, fmt.Errorf("%w: implausible sizes n=%d count=%d", ErrContainer, n, count)
	}
	return containerHeader{version: version, flags: flags, n: int64(n), count: int64(count)}, nil
}

// layout returns the canonical layout of a sectioned (version ≥ 3)
// header; escs is the compact layout's escape-slot count.
func (h containerHeader) layout(escs int64) *layout {
	parents := h.flags&containerFlagParents != 0
	if h.version == versionCompact {
		return compactLayout(h.n, h.count, escs, h.flags&containerFlagWideDist != 0, parents)
	}
	return expandedLayout(h.n, h.count, parents)
}

// extLen is the byte length of the extended header that follows a
// sectioned base header — fixed by version and flags alone.
func (h containerHeader) extLen() int64 {
	return h.layout(0).headerLen() - containerHeaderLen
}

// parseExt validates a sectioned container's extended header — extras,
// section count, header checksum, and the section table against the
// canonical layout — and returns that layout. The table is redundant by
// design: any deviation (a misaligned offset, an over- or undersized
// length, reordered or overlapping sections) is rejected, so nothing an
// attacker writes into it can move or grow a column. Shared by the
// streaming reader and the mmap opener, so the authentication and layout
// rules cannot drift between the two doors.
func (h containerHeader) parseExt(base, ext []byte) (*layout, error) {
	le := binary.LittleEndian
	var escs uint64
	if h.version == versionCompact {
		// Bounded by construction — at most one hub and one distance
		// escape per entry — before it sizes anything.
		if escs = le.Uint64(ext[8:16]); escs > 2*uint64(h.count) {
			return nil, fmt.Errorf("%w: %d escape slots for %d entries", ErrContainer, escs, h.count)
		}
	}
	l := h.layout(int64(escs))
	if got := le.Uint64(ext[0:8]); got != uint64(len(l.secs)) {
		return nil, fmt.Errorf("%w: %d sections, layout has %d", ErrContainer, got, len(l.secs))
	}
	table := ext[8+8*len(l.extras) : len(ext)-4]
	hcrc := crc32.Update(crc32.Checksum(base, castagnoli), castagnoli, ext[:len(ext)-4])
	if stored := le.Uint32(ext[len(ext)-4:]); hcrc != stored {
		return nil, fmt.Errorf("%w: header checksum mismatch (computed %#x, stored %#x)", ErrContainer, hcrc, stored)
	}
	for i, want := range l.secs {
		off, length := le.Uint64(table[16*i:]), le.Uint64(table[16*i+8:])
		if off != uint64(want.off) || length != uint64(want.length) {
			return nil, fmt.Errorf("%w: section %d at (%d,%d) deviates from the canonical layout (%d,%d)",
				ErrContainer, i, off, length, want.off, want.length)
		}
	}
	return l, nil
}

// ReadContainerStore parses a container in whatever representation it
// was written: expanded (and legacy version 1–2) files load as a
// *FlatLabeling, compact files as a *CompactLabeling. Every load is
// fully validated (structure and trailer checksum); errors wrap
// ErrContainer and parsing never panics on hostile input. Reading stops
// at the trailer — whether bytes may follow it is the caller's call.
func ReadContainerStore(r io.Reader) (LabelStore, error) {
	var base [containerHeaderLen]byte
	if _, err := io.ReadFull(r, base[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrContainer, err)
	}
	h, err := parseContainerHeader(base[:])
	if err != nil {
		return nil, err
	}
	crc := crc32.New(castagnoli)
	crc.Write(base[:])
	body := io.TeeReader(r, crc)
	var s LabelStore
	if h.version < versionExpanded {
		s, err = readLegacy(h, body)
	} else {
		s, err = readSections(h, base[:], body)
	}
	if err != nil {
		return nil, err
	}
	if err := checkTrailer(r, crc); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrContainer, err)
	}
	return s, nil
}

// checkTrailer reads the 4-byte trailer off the raw stream and compares
// it with the crc of every byte teed before it.
func checkTrailer(r io.Reader, crc hash.Hash32) error {
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return fmt.Errorf("%w: checksum: %v", ErrContainer, err)
	}
	if got, want := crc.Sum32(), binary.LittleEndian.Uint32(trailer[:]); got != want {
		return fmt.Errorf("%w: checksum mismatch (computed %#x, stored %#x)", ErrContainer, got, want)
	}
	return nil
}

// readSections is the heap section reader: the extended header, then
// every zero-padded section decoded straight into its destination
// column — int32s through one reused chunk, never a section-sized
// staging copy. Structural validation and the trailer stay with the
// caller.
func readSections(h containerHeader, base []byte, body io.Reader) (LabelStore, error) {
	ext, err := readExact(body, h.extLen())
	if err != nil {
		return nil, fmt.Errorf("%w: extended header: %v", ErrContainer, err)
	}
	l, err := h.parseExt(base, ext)
	if err != nil {
		return nil, err
	}
	var pad [containerAlign]byte
	chunk := make([]byte, l.chunkLen())
	cols := make([]column, len(l.secs))
	pos := l.headerLen()
	for i, s := range l.secs {
		gap := pad[:s.off-pos]
		if _, err := io.ReadFull(body, gap); err != nil {
			return nil, fmt.Errorf("%w: section %d padding: %v", ErrContainer, i, err)
		}
		if !allZero(gap) {
			return nil, fmt.Errorf("%w: nonzero padding before section %d", ErrContainer, i)
		}
		// Stays in int64 until known to fit the platform int: on 32-bit a
		// hostile header must error here, not overflow an allocation.
		if s.length > math.MaxInt-containerHeaderLen {
			return nil, fmt.Errorf("%w: %d-byte section exceeds address space", ErrContainer, s.length)
		}
		if s.raw {
			cols[i].raw, err = readExact(body, s.length)
		} else {
			cols[i].ints, err = readInt32s(body, chunk, s.length/4)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: section %d: %v", ErrContainer, i, err)
		}
		pos = s.off + s.length
	}
	return l.store(cols), nil
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// readInt32s decodes count little-endian int32s off r through chunk.
// Like readExact, the up-front reservation is capped and the column then
// grows only as bytes actually arrive.
func readInt32s(r io.Reader, chunk []byte, count int64) ([]int32, error) {
	out := make([]int32, 0, min(count, maxReserveBytes/4))
	for int64(len(out)) < count {
		want := min(count-int64(len(out)), int64(len(chunk)/4))
		buf := chunk[:4*want]
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		old := len(out)
		out = slices.Grow(out, int(want))[:old+int(want)]
		for i := range out[old:] {
			out[old+i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
		}
	}
	return out, nil
}

// readExact reads exactly n bytes. The up-front reservation is capped so
// a hostile header cannot force a huge allocation before the stream runs
// dry; within the cap the buffer is reserved once, so legitimate
// containers fill it without growth copies.
func readExact(r io.Reader, n int64) ([]byte, error) {
	buf := make([]byte, 0, min(n, maxReserveBytes))
	for int64(len(buf)) < n {
		old := len(buf)
		want := int(min(n-int64(old), ioChunkBytes))
		buf = slices.Grow(buf, want)[:old+want]
		if _, err := io.ReadFull(r, buf[old:]); err != nil {
			return buf[:old], err
		}
	}
	return buf, nil
}

// ensure the alias types the column casts rely on hold at compile time:
// the graph ids and weights must be exactly int32 for an []int32 column
// to be a hub-id or distance column.
var (
	_ []int32 = []graph.NodeID(nil)
	_ []int32 = []graph.Weight(nil)
)
