// Package wire is the compact binary batch protocol of the distributed
// serving layer: the frame format spoken between hubclient and the
// hubserve -binary door (internal/netserve). It exists because the
// per-query HTTP/JSON envelope dominates serving cost under real
// traffic — a hub-label merge answers in ~2-3 µs while an HTTP round
// trip costs tens of µs of parsing, header copying and allocation. The
// wire format amortizes the door: one length-prefixed frame carries a
// whole batch of queries, ids and distances travel as varints, and both
// sides parse into reused buffers, so the steady-state per-query door
// cost is a few bytes of varint work.
//
// Frame layout (all multi-byte integers little-endian or uvarint):
//
//	header (8 bytes): 'h' 'W' | version (1) | kind | payload length (uint32 LE)
//	payload (by kind):
//	  FrameRequest:  uvarint id, uvarint count,
//	                 count × { kind byte (QDist/QPath/QEcc), uvarint u [, uvarint v] }
//	  FrameReply:    uvarint id, uvarint count,
//	                 count × { status byte, status==StatusOK ? per-kind payload : nothing }
//	                 QDist: uvarint distance (graph.Infinity = unreachable)
//	                 QPath: uvarint len, len × uvarint vertex (len 0 = unreachable)
//	                 QEcc:  uvarint eccentricity, uvarint farthest vertex
//	  FrameGossip:   uvarint seed, uvarint levels, uvarint buckets, uvarint count,
//	                 count × { uvarint bucket index, uvarint fixed-point probability }
//	  FrameHello:    uvarint len, len bytes of client identity
//
// A reply echoes its request's frame id and answers the queries in
// request order, so correlation needs no per-query ids. Non-OK statuses
// are the serving outcome taxonomy (Status* below, one sentinel error
// per code) and carry no payload — a shed reply for a 64-query batch is
// 64 bytes.
//
// Parsing is hostile-input safe by construction: every length is
// bounded before use (MaxFrame, MaxBatch, MaxPathLen, MaxHello), every
// varint is checked for truncation and overflow, vertex ids must fit
// int32, and trailing garbage after a well-formed payload is rejected.
// Malformed input always returns a deterministic error wrapping
// ErrMalformed — never a panic — pinned by FuzzWireFrame.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"hublab/internal/graph"
)

// Version is the protocol version in every frame header. A reader
// rejects frames from a different version outright: the format is not
// self-describing beyond the header, so cross-version leniency would
// mean guessing at payload shapes.
const Version = 1

// headerSize is the fixed frame header length.
const headerSize = 8

// Magic bytes opening every frame.
const (
	magic0 = 'h'
	magic1 = 'W'
)

// Frame kinds.
const (
	// FrameRequest carries a batch of queries client → server.
	FrameRequest = 1
	// FrameReply carries the batch's answers server → client.
	FrameReply = 2
	// FrameGossip carries sparse admission-controller bucket deltas
	// between fleet peers (see internal/flowctl); it is one-way and
	// never answered.
	FrameGossip = 3
	// FrameHello names the connection's client identity for admission
	// control; sent once after connect, never answered. Without it the
	// server falls back to the remote host, which cannot tell two
	// processes on one machine apart.
	FrameHello = 4
)

// Query kinds inside a request frame.
const (
	// QDist asks for the exact distance between u and v.
	QDist = 0
	// QPath asks for one shortest u–v path (vertex list).
	QPath = 1
	// QEcc asks for v's eccentricity and a farthest vertex (u carries v;
	// the frame omits the second id).
	QEcc = 2
)

// Reply status codes: the one outcome taxonomy of the serving stack.
// server.Do resolves every query to exactly one of them, each door
// renders them in its own vocabulary (DESIGN.md "Request core"), and
// StatusError / StatusOf convert to and from the sentinel errors below.
const (
	StatusOK           = 0
	StatusOverloaded   = 1 // shed by admission, or the shard queue was full
	StatusTimeout      = 2 // missed the call's deadline
	StatusBackendFault = 3 // contained backend panic
	StatusUnsupported  = 4 // the served index lacks the query kind
	StatusClosed       = 5 // the server is shutting down
	StatusBadRequest   = 6 // vertex outside the serving snapshot's range
	StatusInternal     = 7 // any other backend error
	statusMax          = StatusInternal
)

// statusText words each status once; the sentinel errors, the line
// door's error lines and the HTTP door's bodies all read from it.
var statusText = [statusMax + 1]string{
	StatusOK:           "ok",
	StatusOverloaded:   "overloaded, retry later",
	StatusTimeout:      "query deadline exceeded",
	StatusBackendFault: "backend fault while serving the query",
	StatusUnsupported:  "query kind unsupported by the served index",
	StatusClosed:       "shutting down",
	StatusBadRequest:   "vertex out of range",
	StatusInternal:     "internal error",
}

// StatusText returns the human-readable wording of a status.
func StatusText(status uint8) string {
	if status > statusMax {
		status = StatusInternal
	}
	return statusText[status]
}

// Size bounds. Every reader rejects input beyond them before touching
// it, so a forged length can never drive an allocation or a loop.
const (
	// DefaultMaxFrame bounds a frame payload unless the reader says
	// otherwise.
	DefaultMaxFrame = 1 << 20
	// MaxBatch bounds the queries (and results) in one frame.
	MaxBatch = 4096
	// MaxPathLen bounds one reply path's vertex count.
	MaxPathLen = 1 << 22
	// MaxHello bounds the client identity string.
	MaxHello = 128
)

// ErrMalformed reports a frame or payload that violates the format:
// bad magic, wrong version, truncated or oversized varints, forged
// counts, trailing garbage. Every parse error wraps it.
var ErrMalformed = errors.New("wire: malformed frame")

// ErrTooLarge reports a frame whose declared payload length exceeds the
// reader's bound. It is distinct from ErrMalformed so transports can
// treat it as a policy violation rather than line noise.
var ErrTooLarge = errors.New("wire: frame exceeds size limit")

// The sentinel errors of the non-OK statuses — one family for both
// sides of the socket: the in-process server adapters and hubclient
// return these same values, so errors.Is means the same thing whether
// the query crossed a network or not.
var (
	ErrOverloaded   = errors.New("wire: " + statusText[StatusOverloaded])
	ErrTimeout      = errors.New("wire: " + statusText[StatusTimeout])
	ErrBackendFault = errors.New("wire: " + statusText[StatusBackendFault])
	ErrUnsupported  = errors.New("wire: " + statusText[StatusUnsupported])
	ErrClosed       = errors.New("wire: " + statusText[StatusClosed])
	ErrBadRequest   = errors.New("wire: " + statusText[StatusBadRequest])
	ErrInternal     = errors.New("wire: " + statusText[StatusInternal])
)

// statusErr indexes the sentinels by status.
var statusErr = [statusMax + 1]error{
	StatusOverloaded:   ErrOverloaded,
	StatusTimeout:      ErrTimeout,
	StatusBackendFault: ErrBackendFault,
	StatusUnsupported:  ErrUnsupported,
	StatusClosed:       ErrClosed,
	StatusBadRequest:   ErrBadRequest,
	StatusInternal:     ErrInternal,
}

// StatusError maps a status to its sentinel error (nil for StatusOK).
// Unknown statuses are impossible past ParseReply, which rejects them
// as malformed; they read as ErrInternal.
func StatusError(status uint8) error {
	if status > statusMax {
		return ErrInternal
	}
	return statusErr[status]
}

// StatusOf is the inverse: the status an error stands for. Anything
// outside the sentinel family — a backend's own error, a transport
// failure — is StatusInternal.
func StatusOf(err error) uint8 {
	if err == nil {
		return StatusOK
	}
	for status := uint8(StatusOverloaded); status < statusMax; status++ {
		if errors.Is(err, statusErr[status]) {
			return status
		}
	}
	return StatusInternal
}

// Query is one request in a batch frame.
type Query struct {
	// Kind is QDist, QPath or QEcc.
	Kind uint8
	// U and V are the query endpoints; QEcc uses only U.
	U, V graph.NodeID
}

// Result is one answer in a reply frame, in request order.
type Result struct {
	// Kind echoes the request's query kind (needed to encode/decode the
	// per-kind payload; the wire carries it implicitly by position).
	Kind uint8
	// Status is the wire status code; the payload fields below are
	// meaningful only for StatusOK.
	Status uint8
	// Dist is the distance (QDist) or eccentricity (QEcc).
	Dist graph.Weight
	// Far is the farthest vertex (QEcc only).
	Far graph.NodeID
	// Path is the path vertex list (QPath only); empty = unreachable.
	// Parsing appends into the slice the caller passes in, so reusing
	// Result values across frames reuses their path storage.
	Path []graph.NodeID
}

// beginFrame appends a frame header for kind with a zero length to
// patch later, returning the header's offset.
func beginFrame(dst []byte, kind byte) ([]byte, int) {
	start := len(dst)
	return append(dst, magic0, magic1, Version, kind, 0, 0, 0, 0), start
}

// endFrame patches the payload length into the header at start.
func endFrame(dst []byte, start int) ([]byte, error) {
	n := len(dst) - start - headerSize
	if n > math.MaxUint32 {
		return dst, fmt.Errorf("%w: %d-byte payload", ErrTooLarge, n)
	}
	binary.LittleEndian.PutUint32(dst[start+4:start+8], uint32(n))
	return dst, nil
}

// AppendRequest appends one request frame carrying id and the queries
// to dst and returns the extended slice. It validates what the peer's
// parser would reject — an oversized batch, a negative vertex id, an
// unknown kind — so a malformed batch fails loudly at the sender.
func AppendRequest(dst []byte, id uint64, qs []Query) ([]byte, error) {
	if len(qs) == 0 || len(qs) > MaxBatch {
		return dst, fmt.Errorf("%w: %d queries in one frame (want 1..%d)", ErrMalformed, len(qs), MaxBatch)
	}
	dst, start := beginFrame(dst, FrameRequest)
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, uint64(len(qs)))
	for i := range qs {
		q := &qs[i]
		if q.Kind > QEcc {
			return dst[:start], fmt.Errorf("%w: query kind %d", ErrMalformed, q.Kind)
		}
		if q.U < 0 || (q.Kind != QEcc && q.V < 0) {
			return dst[:start], fmt.Errorf("%w: negative vertex id", ErrMalformed)
		}
		dst = append(dst, q.Kind)
		dst = binary.AppendUvarint(dst, uint64(q.U))
		if q.Kind != QEcc {
			dst = binary.AppendUvarint(dst, uint64(q.V))
		}
	}
	return endFrame(dst, start)
}

// uvarint decodes one bounded uvarint from p at offset i, returning the
// value and the next offset, or an error on truncation or a value
// beyond max.
func uvarint(p []byte, i int, max uint64) (uint64, int, error) {
	v, n := binary.Uvarint(p[i:])
	if n <= 0 {
		return 0, i, fmt.Errorf("%w: truncated or oversized varint at offset %d", ErrMalformed, i)
	}
	if v > max {
		return 0, i, fmt.Errorf("%w: varint %d exceeds bound %d at offset %d", ErrMalformed, v, max, i)
	}
	return v, i + n, nil
}

// ParseRequest decodes a request frame payload, appending the queries
// to qs (pass qs[:0] of a reused slice for allocation-free parsing in
// steady state). Trailing bytes after the declared batch are rejected.
func ParseRequest(payload []byte, qs []Query) (id uint64, out []Query, err error) {
	id, i, err := uvarint(payload, 0, math.MaxUint64)
	if err != nil {
		return 0, qs, err
	}
	count, i, err := uvarint(payload, i, MaxBatch)
	if err != nil {
		return 0, qs, err
	}
	if count == 0 {
		return 0, qs, fmt.Errorf("%w: empty batch", ErrMalformed)
	}
	for k := uint64(0); k < count; k++ {
		if i >= len(payload) {
			return 0, qs, fmt.Errorf("%w: batch truncated at query %d/%d", ErrMalformed, k, count)
		}
		kind := payload[i]
		i++
		if kind > QEcc {
			return 0, qs, fmt.Errorf("%w: query kind %d", ErrMalformed, kind)
		}
		var u, v uint64
		u, i, err = uvarint(payload, i, math.MaxInt32)
		if err != nil {
			return 0, qs, err
		}
		if kind != QEcc {
			v, i, err = uvarint(payload, i, math.MaxInt32)
			if err != nil {
				return 0, qs, err
			}
		}
		qs = append(qs, Query{Kind: kind, U: graph.NodeID(u), V: graph.NodeID(v)})
	}
	if i != len(payload) {
		return 0, qs, fmt.Errorf("%w: %d trailing bytes after batch", ErrMalformed, len(payload)-i)
	}
	return id, qs, nil
}

// AppendReply appends one reply frame for frame id, answering the
// results in order. Each Result's Kind must echo its request query.
func AppendReply(dst []byte, id uint64, rs []Result) ([]byte, error) {
	if len(rs) == 0 || len(rs) > MaxBatch {
		return dst, fmt.Errorf("%w: %d results in one frame (want 1..%d)", ErrMalformed, len(rs), MaxBatch)
	}
	dst, start := beginFrame(dst, FrameReply)
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, uint64(len(rs)))
	for i := range rs {
		r := &rs[i]
		if r.Status > statusMax {
			return dst[:start], fmt.Errorf("%w: status %d", ErrMalformed, r.Status)
		}
		dst = append(dst, r.Status)
		if r.Status != StatusOK {
			continue
		}
		switch r.Kind {
		case QDist:
			if r.Dist < 0 {
				return dst[:start], fmt.Errorf("%w: negative distance", ErrMalformed)
			}
			dst = binary.AppendUvarint(dst, uint64(r.Dist))
		case QPath:
			if len(r.Path) > MaxPathLen {
				return dst[:start], fmt.Errorf("%w: %d-vertex path", ErrTooLarge, len(r.Path))
			}
			dst = binary.AppendUvarint(dst, uint64(len(r.Path)))
			for _, x := range r.Path {
				if x < 0 {
					return dst[:start], fmt.Errorf("%w: negative path vertex", ErrMalformed)
				}
				dst = binary.AppendUvarint(dst, uint64(x))
			}
		case QEcc:
			if r.Dist < 0 || r.Far < 0 {
				return dst[:start], fmt.Errorf("%w: negative eccentricity result", ErrMalformed)
			}
			dst = binary.AppendUvarint(dst, uint64(r.Dist))
			dst = binary.AppendUvarint(dst, uint64(r.Far))
		default:
			return dst[:start], fmt.Errorf("%w: result kind %d", ErrMalformed, r.Kind)
		}
	}
	return endFrame(dst, start)
}

// PeekReplyID decodes just the frame id of a reply payload, so a
// demultiplexer can route the frame to the request that knows its
// query kinds before paying for the full parse.
func PeekReplyID(payload []byte) (uint64, error) {
	id, _, err := uvarint(payload, 0, math.MaxUint64)
	return id, err
}

// ParseReply decodes a reply frame payload against the query kinds of
// the request it answers (the wire carries per-result payload shapes
// implicitly by position). Results are appended to rs; path storage is
// reused from the passed-in Result values at matching positions, so a
// client that recycles its results slice parses allocation-free in
// steady state. The result count must equal len(kinds) exactly.
func ParseReply(payload []byte, kinds []uint8, rs []Result) (id uint64, out []Result, err error) {
	id, i, err := uvarint(payload, 0, math.MaxUint64)
	if err != nil {
		return 0, rs, err
	}
	count, i, err := uvarint(payload, i, MaxBatch)
	if err != nil {
		return 0, rs, err
	}
	if count != uint64(len(kinds)) {
		return 0, rs, fmt.Errorf("%w: %d results for %d queries", ErrMalformed, count, len(kinds))
	}
	base := len(rs)
	for k := 0; k < len(kinds); k++ {
		if i >= len(payload) {
			return 0, rs, fmt.Errorf("%w: reply truncated at result %d/%d", ErrMalformed, k, count)
		}
		status := payload[i]
		i++
		if status > statusMax {
			return 0, rs, fmt.Errorf("%w: status %d", ErrMalformed, status)
		}
		// Grow rs by one, reusing the path slice already at this slot if
		// the caller recycled the storage.
		var keep []graph.NodeID
		if base+k < cap(rs) {
			keep = rs[:cap(rs)][base+k].Path[:0]
		}
		r := Result{Kind: kinds[k], Status: status, Dist: graph.Infinity, Far: -1, Path: keep}
		if status == StatusOK {
			var a, b uint64
			switch kinds[k] {
			case QDist:
				a, i, err = uvarint(payload, i, math.MaxInt32)
				if err != nil {
					return 0, rs, err
				}
				r.Dist = graph.Weight(a)
			case QPath:
				a, i, err = uvarint(payload, i, MaxPathLen)
				if err != nil {
					return 0, rs, err
				}
				// Bound the declared length by the bytes that can back it
				// (≥1 byte per vertex) before trusting it.
				if int(a) > len(payload)-i {
					return 0, rs, fmt.Errorf("%w: %d-vertex path in %d remaining bytes", ErrMalformed, a, len(payload)-i)
				}
				for j := uint64(0); j < a; j++ {
					b, i, err = uvarint(payload, i, math.MaxInt32)
					if err != nil {
						return 0, rs, err
					}
					r.Path = append(r.Path, graph.NodeID(b))
				}
			case QEcc:
				a, i, err = uvarint(payload, i, math.MaxInt32)
				if err != nil {
					return 0, rs, err
				}
				b, i, err = uvarint(payload, i, math.MaxInt32)
				if err != nil {
					return 0, rs, err
				}
				r.Dist = graph.Weight(a)
				r.Far = graph.NodeID(b)
			default:
				return 0, rs, fmt.Errorf("%w: query kind %d", ErrMalformed, kinds[k])
			}
		}
		rs = append(rs, r)
	}
	if i != len(payload) {
		return 0, rs, fmt.Errorf("%w: %d trailing bytes after reply", ErrMalformed, len(payload)-i)
	}
	return id, rs, nil
}

// GossipEntry is one admission bucket delta: the flat bucket index
// (level*buckets + bucket) and its fixed-point drop probability.
type GossipEntry struct {
	Bucket uint32
	Prob   uint32
}

// maxProbFixed mirrors flowctl's fixed-point probability scale (2^24 =
// probability 1.0); the wire bound keeps a forged gossip frame from
// smuggling out-of-range probabilities into a controller.
const maxProbFixed = 1 << 24

// AppendGossip appends one gossip frame carrying the controller shape
// (seed, levels, buckets after power-of-two rounding) and the sparse
// bucket entries. Receivers reject frames whose shape does not match
// their local controller — merging across different hash geometries
// would scatter one node's penalties onto unrelated clients.
func AppendGossip(dst []byte, seed uint64, levels, buckets int, entries []GossipEntry) ([]byte, error) {
	if levels <= 0 || buckets <= 0 || levels*buckets > 1<<24 {
		return dst, fmt.Errorf("%w: gossip shape %d×%d", ErrMalformed, levels, buckets)
	}
	if len(entries) > levels*buckets {
		return dst, fmt.Errorf("%w: %d gossip entries for %d buckets", ErrMalformed, len(entries), levels*buckets)
	}
	dst, start := beginFrame(dst, FrameGossip)
	dst = binary.AppendUvarint(dst, seed)
	dst = binary.AppendUvarint(dst, uint64(levels))
	dst = binary.AppendUvarint(dst, uint64(buckets))
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		if int(e.Bucket) >= levels*buckets {
			return dst[:start], fmt.Errorf("%w: gossip bucket %d out of %d×%d", ErrMalformed, e.Bucket, levels, buckets)
		}
		if e.Prob > maxProbFixed {
			return dst[:start], fmt.Errorf("%w: gossip probability %d above fixed-point 1.0", ErrMalformed, e.Prob)
		}
		dst = binary.AppendUvarint(dst, uint64(e.Bucket))
		dst = binary.AppendUvarint(dst, uint64(e.Prob))
	}
	return endFrame(dst, start)
}

// ParseGossip decodes a gossip frame payload, appending entries to the
// passed slice.
func ParseGossip(payload []byte, entries []GossipEntry) (seed uint64, levels, buckets int, out []GossipEntry, err error) {
	seed, i, err := uvarint(payload, 0, math.MaxUint64)
	if err != nil {
		return 0, 0, 0, entries, err
	}
	lv, i, err := uvarint(payload, i, 1<<12)
	if err != nil {
		return 0, 0, 0, entries, err
	}
	bk, i, err := uvarint(payload, i, 1<<24)
	if err != nil {
		return 0, 0, 0, entries, err
	}
	if lv == 0 || bk == 0 || lv*bk > 1<<24 {
		return 0, 0, 0, entries, fmt.Errorf("%w: gossip shape %d×%d", ErrMalformed, lv, bk)
	}
	count, i, err := uvarint(payload, i, lv*bk)
	if err != nil {
		return 0, 0, 0, entries, err
	}
	for k := uint64(0); k < count; k++ {
		var b, p uint64
		b, i, err = uvarint(payload, i, lv*bk-1)
		if err != nil {
			return 0, 0, 0, entries, err
		}
		p, i, err = uvarint(payload, i, maxProbFixed)
		if err != nil {
			return 0, 0, 0, entries, err
		}
		entries = append(entries, GossipEntry{Bucket: uint32(b), Prob: uint32(p)})
	}
	if i != len(payload) {
		return 0, 0, 0, entries, fmt.Errorf("%w: %d trailing bytes after gossip", ErrMalformed, len(payload)-i)
	}
	return seed, int(lv), int(bk), entries, nil
}

// AppendHello appends one hello frame naming the connection's client
// identity for admission control.
func AppendHello(dst []byte, name string) ([]byte, error) {
	if len(name) == 0 || len(name) > MaxHello {
		return dst, fmt.Errorf("%w: hello identity of %d bytes (want 1..%d)", ErrMalformed, len(name), MaxHello)
	}
	dst, start := beginFrame(dst, FrameHello)
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	return endFrame(dst, start)
}

// ParseHello decodes a hello frame payload. It allocates the identity
// string — once per connection, not per request.
func ParseHello(payload []byte) (string, error) {
	n, i, err := uvarint(payload, 0, MaxHello)
	if err != nil {
		return "", err
	}
	if n == 0 || int(n) != len(payload)-i {
		return "", fmt.Errorf("%w: hello length %d with %d bytes", ErrMalformed, n, len(payload)-i)
	}
	return string(payload[i:]), nil
}

// ReadFrame reads one frame from br: header validation, size bound,
// then the payload into *buf (grown as needed and reused across
// calls). maxFrame ≤ 0 selects DefaultMaxFrame. A clean EOF before any
// header byte returns io.EOF; a torn header or payload returns
// io.ErrUnexpectedEOF; everything else wraps ErrMalformed/ErrTooLarge.
func ReadFrame(br *bufio.Reader, buf *[]byte, maxFrame int) (kind byte, payload []byte, err error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, err
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return 0, nil, fmt.Errorf("%w: bad magic %x%x", ErrMalformed, hdr[0], hdr[1])
	}
	if hdr[2] != Version {
		return 0, nil, fmt.Errorf("%w: version %d (speak %d)", ErrMalformed, hdr[2], Version)
	}
	kind = hdr[3]
	if kind < FrameRequest || kind > FrameHello {
		return 0, nil, fmt.Errorf("%w: frame kind %d", ErrMalformed, kind)
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if int64(n) > int64(maxFrame) {
		return 0, nil, fmt.Errorf("%w: %d-byte payload (limit %d)", ErrTooLarge, n, maxFrame)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	payload = (*buf)[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return kind, payload, nil
}
