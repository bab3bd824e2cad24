package hub

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"hublab/internal/graph"
)

// Streaming container emission.
//
// WriteContainer needs the frozen columns, so persisting a build the
// ordinary way costs 2× the labeling in RAM: the slice-of-slices form the
// builder produced plus the flat copy made just to serialize it. For a
// million-vertex build that doubling is the difference between fitting in
// a CI-class machine and not. WriteContainerStreaming removes it: label
// runs are fed one vertex at a time and land directly in the file, and
// the output is byte-identical to WriteContainer's for both layouts —
// pinned by test — so readers cannot tell the difference.
//
// The format is columnar, so per-vertex emission writes to as many
// distinct file regions as there are sections. The emitter therefore
// requires an io.WriterAt — a fresh *os.File in practice — and gives each
// section a region cursor with a small flush buffer. The one global in
// the format, the trailing crc32 of the whole stream, is recovered at the
// end without re-reading anything: each cursor tracks the crc32 of its
// own bytes and the trailer combines them with crc32Combine (the GF(2)
// matrix trick — crc(A‖B) from crc(A), crc(B), len(B)).

// streamBufBytes is each cursor's flush buffer; a handful of sections
// make the emitter's total steady-state memory ~1–2 MB regardless of
// index size.
const streamBufBytes = 256 << 10

// columnWriter appends bytes to one section's file region, tracking the
// region's running crc32. Write errors are sticky in the owning
// emitter's err: after one, appends are dropped.
type columnWriter struct {
	w    io.WriterAt
	base int64 // file offset where the section starts
	n    int64 // bytes written so far
	crc  uint32
	buf  []byte
	err  *error
}

func (c *columnWriter) appendInt32(x int32) {
	if len(c.buf)+4 > streamBufBytes {
		c.flush()
	}
	c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(x))
}

// appendBytes appends a raw byte run (the compact layout's delta
// columns), flushing in streamBufBytes chunks.
func (c *columnWriter) appendBytes(p []byte) {
	for len(c.buf)+len(p) > streamBufBytes {
		take := streamBufBytes - len(c.buf)
		c.buf = append(c.buf, p[:take]...)
		c.flush()
		p = p[take:]
	}
	c.buf = append(c.buf, p...)
}

func (c *columnWriter) flush() {
	if *c.err == nil && len(c.buf) > 0 {
		if _, *c.err = c.w.WriteAt(c.buf, c.base+c.n); *c.err == nil {
			c.crc = crc32.Update(c.crc, castagnoli, c.buf)
			c.n += int64(len(c.buf))
		}
	}
	c.buf = c.buf[:0]
}

// sectionCursors is the layout-generic emitter over io.WriterAt: one
// append cursor per section of l. A feeder appends every column's values
// in whatever interleaving suits it; finish then writes what no feeder
// owns — header, padding, trailer. Regions the cursors skip are written
// explicitly, so w can be any io.WriterAt, not only a fresh sparse file.
type sectionCursors struct {
	w    io.WriterAt
	l    *layout
	cols []columnWriter
	err  error
}

func newSectionCursors(w io.WriterAt, l *layout) *sectionCursors {
	sc := &sectionCursors{w: w, l: l, cols: make([]columnWriter, len(l.secs))}
	for i, s := range l.secs {
		sc.cols[i] = columnWriter{w: w, base: s.off, buf: make([]byte, 0, streamBufBytes), err: &sc.err}
	}
	return sc
}

func (sc *sectionCursors) writeAt(p []byte, off int64) {
	if sc.err == nil && len(p) > 0 {
		_, sc.err = sc.w.WriteAt(p, off)
	}
}

// finish flushes the cursors, checks each filled its section exactly,
// writes the header, the inter-section padding and the combined crc32
// trailer, and returns the container's total byte length.
func (sc *sectionCursors) finish() (int64, error) {
	for i := range sc.cols {
		sc.cols[i].flush()
		if want := sc.l.secs[i].length; sc.err == nil && sc.cols[i].n != want {
			sc.err = fmt.Errorf("hub: section %d received %d of %d bytes", i, sc.cols[i].n, want)
		}
	}
	if sc.err != nil {
		return 0, sc.err
	}
	hdr := sc.l.header()
	sc.writeAt(hdr, 0)
	// Assemble the stream crc left to right: header, then each section
	// behind its zero padding.
	crc := crc32.Checksum(hdr, castagnoli)
	pos := int64(len(hdr))
	var pad [containerAlign]byte
	for i, s := range sc.l.secs {
		gap := pad[:s.off-pos]
		sc.writeAt(gap, pos)
		crc = crc32.Update(crc, castagnoli, gap)
		crc = crc32Combine(crc, sc.cols[i].crc, s.length)
		pos = s.off + s.length
	}
	sc.writeAt(binary.LittleEndian.AppendUint32(nil, crc), pos)
	if sc.err != nil {
		return 0, sc.err
	}
	return pos + 4, nil
}

// WriteContainerStreaming streams l into w per vertex, never building the
// flat arrays; the bytes are identical to Freeze().WriteContainer(...).
// The labeling is validated first and refused before the first byte
// lands (see validateForContainer; every builder's output passes, after
// manual Adds call Canonicalize first). Both layouts stream through the
// same cursors: the expanded feeder copies each run out behind its
// sentinel; the compact feeder first computes the global plan (remap
// table, column width, escape totals — so the header and section table
// are final before any column byte lands) in a pre-pass over the labels,
// then rank-sorts each vertex's entries through the same per-vertex
// encoder the in-memory writer uses, which is what pins the two outputs
// byte-identical.
func (l *Labeling) WriteContainerStreaming(w io.WriterAt, opts ContainerOptions) (int64, error) {
	if err := l.validateForContainer(); err != nil {
		return 0, err
	}
	n := int64(len(l.labels))
	var lay *layout
	var feed func(*sectionCursors)
	if opts.Compact {
		plan := planCompactLabeling(l)
		lay = compactLayout(n, plan.entries, plan.escs, plan.wide, l.parents != nil)
		feed = func(sc *sectionCursors) { l.feedCompact(sc, plan) }
	} else {
		slots := n
		for _, hubs := range l.labels {
			slots += int64(len(hubs))
		}
		lay = expandedLayout(n, slots, l.parents != nil)
		feed = l.feedExpanded
	}
	if lay.count > math.MaxInt32 {
		return 0, fmt.Errorf("hub: %d label slots overflow the container's int32 offsets", lay.count)
	}
	sc := newSectionCursors(w, lay)
	feed(sc)
	return sc.finish()
}

// validateForContainer is the one audit a labeling gets before it is
// streamed: per label run, hubs strictly ascending by id and below n (the
// canonical form), distances in [0, Infinity), and — with a parent
// column — one parent per hub, -1 exactly on the self entry and a real
// other vertex everywhere else. These are the invariants the decoding
// reader enforces, so a refused labeling is one no reader would load.
func (l *Labeling) validateForContainer() error {
	n := len(l.labels)
	for v, hubs := range l.labels {
		if l.parents != nil && len(l.parents[v]) != len(hubs) {
			return fmt.Errorf("hub: vertex %d has %d parents for %d hubs", v, len(l.parents[v]), len(hubs))
		}
		prev := graph.NodeID(-1)
		for i, h := range hubs {
			if h.Node <= prev || int(h.Node) >= n {
				return fmt.Errorf("hub: vertex %d label not canonical at entry %d (hub %d after %d, n=%d; call Canonicalize)", v, i, h.Node, prev, n)
			}
			prev = h.Node
			if h.Dist < 0 || h.Dist >= graph.Infinity {
				return fmt.Errorf("hub: vertex %d hub %d has distance %d outside [0, Infinity)", v, h.Node, h.Dist)
			}
			if l.parents == nil {
				continue
			}
			if p := l.parents[v][i]; int(h.Node) == v {
				if p != -1 {
					return fmt.Errorf("hub: vertex %d self entry has parent %d, want -1", v, p)
				}
			} else if p < 0 || int(p) >= n || int(p) == v {
				return fmt.Errorf("hub: vertex %d hub %d has invalid parent %d", v, h.Node, p)
			}
		}
	}
	return nil
}

// feedExpanded feeds the expanded layout's cursors (offsets, hubIDs,
// dists[, parents]): each run followed by its sentinel slot, exactly as
// buildFlat lays it out.
func (l *Labeling) feedExpanded(sc *sectionCursors) {
	offsets, ids, dists := &sc.cols[0], &sc.cols[1], &sc.cols[2]
	pos := int32(0)
	for v, hubs := range l.labels {
		if sc.err != nil {
			return
		}
		offsets.appendInt32(pos)
		for i, h := range hubs {
			ids.appendInt32(int32(h.Node))
			dists.appendInt32(int32(h.Dist))
			if l.parents != nil {
				sc.cols[3].appendInt32(int32(l.parents[v][i]))
			}
		}
		ids.appendInt32(int32(flatSentinel))
		dists.appendInt32(int32(graph.Infinity))
		if l.parents != nil {
			sc.cols[3].appendInt32(-1)
		}
		pos += int32(len(hubs)) + 1
	}
	offsets.appendInt32(pos)
}

// feedCompact feeds the compact layout's cursors (offsets, remap, escOff,
// hubDelta, distDelta, esc[, parents]) under plan.
func (l *Labeling) feedCompact(sc *sectionCursors, plan *compactPlan) {
	withParents := l.parents != nil
	for _, h := range plan.remap {
		sc.cols[1].appendInt32(int32(h))
	}
	var (
		es            []compactEntry
		hb, db        []byte
		escRun        []int32
		parRun        []graph.NodeID
		entries, escs int32
	)
	for v, hubs := range l.labels {
		if sc.err != nil {
			return
		}
		sc.cols[0].appendInt32(entries)
		sc.cols[2].appendInt32(escs)
		es = es[:0]
		for i, h := range hubs {
			ent := compactEntry{rank: plan.inv[h.Node], dist: h.Dist, parent: -1}
			if withParents {
				ent.parent = l.parents[v][i]
			}
			es = append(es, ent)
		}
		sortCompactEntries(es)
		hb, db, escRun, parRun = appendVertexCompact(hb[:0], db[:0], escRun[:0], parRun[:0], es, plan.wide, withParents)
		sc.cols[3].appendBytes(hb)
		sc.cols[4].appendBytes(db)
		for _, x := range escRun {
			sc.cols[5].appendInt32(x)
		}
		for _, p := range parRun {
			sc.cols[6].appendInt32(int32(p))
		}
		entries += int32(len(es))
		escs += int32(len(escRun))
	}
	sc.cols[0].appendInt32(entries)
	sc.cols[2].appendInt32(escs)
}

// crc32Combine returns the crc32 (Castagnoli, the container polynomial)
// of the concatenation A‖B given crc32(A), crc32(B) and len(B), in
// O(log len(B)) — zlib's crc32_combine ported to the reflected Castagnoli
// polynomial. It is what lets finish emit the format's single whole-file
// checksum from independently tracked per-column checksums without
// re-reading the file.
func crc32Combine(crc1, crc2 uint32, len2 int64) uint32 {
	if len2 <= 0 {
		return crc1 ^ crc2
	}
	var even, odd [32]uint32 // operators for 2^k zero bytes
	odd[0] = 0x82f63b78      // reflected Castagnoli polynomial
	row := uint32(1)
	for i := 1; i < 32; i++ {
		odd[i] = row
		row <<= 1
	}
	gf2Square(&even, &odd) // even = one zero byte (4 zero bits, twice)
	gf2Square(&odd, &even)
	for {
		gf2Square(&even, &odd)
		if len2&1 != 0 {
			crc1 = gf2Times(&even, crc1)
		}
		len2 >>= 1
		if len2 == 0 {
			break
		}
		gf2Square(&odd, &even)
		if len2&1 != 0 {
			crc1 = gf2Times(&odd, crc1)
		}
		len2 >>= 1
		if len2 == 0 {
			break
		}
	}
	return crc1 ^ crc2
}

// gf2Times multiplies the GF(2) matrix by the bit-vector vec.
func gf2Times(mat *[32]uint32, vec uint32) uint32 {
	var sum uint32
	for i := 0; vec != 0; vec >>= 1 {
		if vec&1 != 0 {
			sum ^= mat[i]
		}
		i++
	}
	return sum
}

// gf2Square sets dst to mat·mat.
func gf2Square(dst, mat *[32]uint32) {
	for i := range dst {
		dst[i] = gf2Times(mat, mat[i])
	}
}
