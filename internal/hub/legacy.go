package hub

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"hublab/internal/bitio"
	"hublab/internal/graph"
)

// Legacy containers — versions 1 and 2, read-only.
//
// Nothing writes these any more; this file is the whole of their
// support, reached only from the version dispatch of ReadContainerStore
// (and through it the fallback of OpenStoreMmap), and deleting it is the
// entire cost of dropping them. After the shared 32-byte base header
// (count = label slots, sentinels included) a legacy container holds
//
//	payload
//	  raw    flag bit 0 clear: offsets (n+1)·int32, hubIDs slots·int32,
//	         dists slots·int32 — the flat arrays verbatim, unaligned
//	  gamma  flag bit 0 set: a byte length as uint64, then one section
//	         in exactly the stream format of Labeling.Encode (vertex
//	         count, then per vertex the label size and gap/distance
//	         pairs, all Elias gamma)
//	parent column (version 2, flag bit 1): parents slots·int32, raw even
//	  in gamma containers
//	trailer: crc32 (Castagnoli) of everything before it
//
// Version 1 has no parent column; Path queries on such a load report
// ErrNoParents.

// containerFlagGamma marks the Elias-gamma payload of a legacy container.
const containerFlagGamma = 1 << 0

// legacyKnownFlags is the flag mask of a version-1 or version-2 header.
func legacyKnownFlags(version uint16) uint16 {
	if version == 2 {
		return containerFlagGamma | containerFlagParents
	}
	return containerFlagGamma
}

// readLegacy decodes the payload (and parent column) of a version-1/2
// container into an owned FlatLabeling; structural validation and the
// trailer stay with the caller.
func readLegacy(h containerHeader, body io.Reader) (*FlatLabeling, error) {
	n, slots := int(h.n), int(h.count)
	chunk := make([]byte, min(4*(h.count+1), ioChunkBytes))
	var f *FlatLabeling
	if h.flags&containerFlagGamma != 0 {
		var lenBuf [8]byte
		if _, err := io.ReadFull(body, lenBuf[:]); err != nil {
			return nil, fmt.Errorf("%w: gamma section length: %v", ErrContainer, err)
		}
		streamLen := binary.LittleEndian.Uint64(lenBuf[:])
		if streamLen > 3*8*uint64(h.count)+16 {
			return nil, fmt.Errorf("%w: implausible gamma section length %d", ErrContainer, streamLen)
		}
		// Every non-sentinel slot costs at least two gamma codes (gap +
		// distance) of one bit each, and every vertex one size code — so a
		// stream this short cannot fill the declared slots. Checking before
		// allocating keeps hostile headers from reserving huge arrays.
		if 2*uint64(h.count-h.n)+uint64(h.n) > 8*streamLen {
			return nil, fmt.Errorf("%w: gamma section of %d bytes cannot fill %d slots",
				ErrContainer, streamLen, h.count)
		}
		stream, err := readExact(body, int64(streamLen))
		if err != nil {
			return nil, fmt.Errorf("%w: gamma section: %v", ErrContainer, err)
		}
		if f, err = decodeGamma(stream, n, slots); err != nil {
			return nil, err
		}
	} else {
		// Length arithmetic stays in int64 until the size is known to fit
		// the platform int — on 32-bit, a hostile header must error here
		// rather than overflow an allocation below.
		if payloadLen := 4 * (h.n + 1 + 2*h.count); payloadLen > math.MaxInt-containerHeaderLen {
			return nil, fmt.Errorf("%w: %d-byte payload exceeds address space", ErrContainer, payloadLen)
		}
		var err error
		col := func(count int64) (c []int32) {
			if err == nil {
				c, err = readInt32s(body, chunk, count)
			}
			return c
		}
		f = &FlatLabeling{offsets: col(h.n + 1), hubIDs: col(h.count), dists: col(h.count)}
		if err != nil {
			return nil, fmt.Errorf("%w: columns: %v", ErrContainer, err)
		}
	}
	if h.flags&containerFlagParents != 0 {
		var err error
		if f.parents, err = readInt32s(body, chunk, h.count); err != nil {
			return nil, fmt.Errorf("%w: parent column: %v", ErrContainer, err)
		}
	}
	return f, nil
}

// decodeGamma decodes a gamma payload directly into freshly allocated
// flat arrays sized from the container header — the slice-of-slices form
// is never built.
func decodeGamma(stream []byte, n, slots int) (*FlatLabeling, error) {
	r := bitio.NewReader(stream)
	nPlus, err := r.ReadGamma()
	if err != nil {
		return nil, fmt.Errorf("%w: gamma vertex count: %v", ErrContainer, err)
	}
	if nPlus != uint64(n)+1 {
		return nil, fmt.Errorf("%w: gamma vertex count %d, header says %d", ErrContainer, nPlus-1, n)
	}
	f := &FlatLabeling{
		offsets: make([]int32, n+1),
		hubIDs:  make([]graph.NodeID, slots),
		dists:   make([]graph.Weight, slots),
	}
	pos := 0
	for v := 0; v < n; v++ {
		f.offsets[v] = int32(pos)
		szPlus, err := r.ReadGamma()
		if err != nil {
			return nil, fmt.Errorf("%w: vertex %d size: %v", ErrContainer, v, err)
		}
		// szPlus-1 hubs plus one sentinel need szPlus slots. Compare in
		// uint64: a 2^63-scale size code converted to int first would wrap
		// pos+sz+1 negative and slip past the bound check.
		if szPlus > uint64(slots-pos) {
			return nil, fmt.Errorf("%w: vertex %d overflows %d slots", ErrContainer, v, slots)
		}
		sz := int(szPlus - 1)
		prev := int64(-1)
		for i := 0; i < sz; i++ {
			gap, err := r.ReadGamma()
			if err != nil {
				return nil, fmt.Errorf("%w: vertex %d hub %d: %v", ErrContainer, v, i, err)
			}
			distPlus, err := r.ReadGamma()
			if err != nil {
				return nil, fmt.Errorf("%w: vertex %d hub %d: %v", ErrContainer, v, i, err)
			}
			// Hub ids increase strictly within [0, n); bound the gap in
			// uint64 like the size code above — a 2^63-scale gap would
			// wrap prev negative and the int32 conversion could truncate
			// it back into a valid id, loading attacker-chosen labels.
			if gap > uint64(int64(n-1)-prev) || distPlus-1 > uint64(graph.Infinity) {
				return nil, fmt.Errorf("%w: vertex %d hub %d out of range", ErrContainer, v, i)
			}
			prev += int64(gap)
			f.hubIDs[pos] = graph.NodeID(prev)
			f.dists[pos] = graph.Weight(distPlus - 1)
			pos++
		}
		f.hubIDs[pos] = flatSentinel
		f.dists[pos] = graph.Infinity
		pos++
	}
	if pos != slots {
		return nil, fmt.Errorf("%w: gamma stream fills %d of %d slots", ErrContainer, pos, slots)
	}
	f.offsets[n] = int32(pos)
	return f, nil
}
