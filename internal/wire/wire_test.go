package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"hublab/internal/graph"
)

func readOne(t *testing.T, frame []byte) (byte, []byte) {
	t.Helper()
	var buf []byte
	kind, payload, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), &buf, 0)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return kind, payload
}

func TestRequestRoundTrip(t *testing.T) {
	qs := []Query{
		{Kind: QDist, U: 0, V: 17},
		{Kind: QPath, U: 3, V: 499},
		{Kind: QEcc, U: 42},
		{Kind: QDist, U: math.MaxInt32, V: 0},
	}
	frame, err := AppendRequest(nil, 12345, qs)
	if err != nil {
		t.Fatal(err)
	}
	kind, payload := readOne(t, frame)
	if kind != FrameRequest {
		t.Fatalf("kind = %d", kind)
	}
	id, got, err := ParseRequest(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 12345 {
		t.Fatalf("id = %d", id)
	}
	if len(got) != len(qs) {
		t.Fatalf("got %d queries", len(got))
	}
	for i := range qs {
		want := qs[i]
		if want.Kind == QEcc {
			want.V = 0 // not carried on the wire
		}
		if got[i] != want {
			t.Fatalf("query %d: got %+v want %+v", i, got[i], want)
		}
	}
}

func TestReplyRoundTrip(t *testing.T) {
	kinds := []uint8{QDist, QDist, QPath, QPath, QEcc, QDist}
	rs := []Result{
		{Kind: QDist, Status: StatusOK, Dist: 7},
		{Kind: QDist, Status: StatusOK, Dist: graph.Infinity},
		{Kind: QPath, Status: StatusOK, Path: []graph.NodeID{3, 9, 499}},
		{Kind: QPath, Status: StatusOK, Path: nil}, // unreachable
		{Kind: QEcc, Status: StatusOK, Dist: 11, Far: 64},
		{Kind: QDist, Status: StatusOverloaded},
	}
	frame, err := AppendReply(nil, 99, rs)
	if err != nil {
		t.Fatal(err)
	}
	kind, payload := readOne(t, frame)
	if kind != FrameReply {
		t.Fatalf("kind = %d", kind)
	}
	id, got, err := ParseReply(payload, kinds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 99 {
		t.Fatalf("id = %d", id)
	}
	if len(got) != len(rs) {
		t.Fatalf("got %d results", len(got))
	}
	if got[0].Dist != 7 || got[1].Dist != graph.Infinity {
		t.Fatalf("distances: %d, %d", got[0].Dist, got[1].Dist)
	}
	if len(got[2].Path) != 3 || got[2].Path[2] != 499 || len(got[3].Path) != 0 {
		t.Fatalf("paths: %v, %v", got[2].Path, got[3].Path)
	}
	if got[4].Dist != 11 || got[4].Far != 64 {
		t.Fatalf("ecc: %+v", got[4])
	}
	if got[5].Status != StatusOverloaded || !errors.Is(StatusError(got[5].Status), ErrOverloaded) {
		t.Fatalf("status: %+v", got[5])
	}
	// A shed result must carry the unreachable shape, never stale data.
	if got[5].Dist != graph.Infinity || got[5].Far != -1 {
		t.Fatalf("non-OK result leaked payload: %+v", got[5])
	}
}

// TestParseReplyReusesStorage pins the allocation contract: recycling
// the results slice across frames reuses its path storage.
func TestParseReplyReusesStorage(t *testing.T) {
	kinds := []uint8{QPath}
	rs := []Result{{Kind: QPath, Status: StatusOK, Path: []graph.NodeID{1, 2, 3, 4, 5}}}
	frame, err := AppendReply(nil, 1, rs)
	if err != nil {
		t.Fatal(err)
	}
	_, payload := readOne(t, frame)
	out, _, err := func() ([]Result, uint64, error) {
		_, o, e := ParseReply(payload, kinds, rs[:0])
		return o, 0, e
	}()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		_, o, err := ParseReply(payload, kinds, out[:0])
		if err != nil {
			t.Fatal(err)
		}
		out = o
	})
	if allocs != 0 {
		t.Fatalf("ParseReply with recycled results allocates %.1f/op", allocs)
	}
}

func TestGossipRoundTrip(t *testing.T) {
	entries := []GossipEntry{{Bucket: 0, Prob: 1 << 24}, {Bucket: 767, Prob: 12345}}
	frame, err := AppendGossip(nil, 42, 3, 256, entries)
	if err != nil {
		t.Fatal(err)
	}
	kind, payload := readOne(t, frame)
	if kind != FrameGossip {
		t.Fatalf("kind = %d", kind)
	}
	seed, lv, bk, got, err := ParseGossip(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seed != 42 || lv != 3 || bk != 256 || len(got) != 2 || got[1] != entries[1] {
		t.Fatalf("got seed=%d %dx%d %v", seed, lv, bk, got)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	frame, err := AppendHello(nil, "flooder-7")
	if err != nil {
		t.Fatal(err)
	}
	kind, payload := readOne(t, frame)
	if kind != FrameHello {
		t.Fatalf("kind = %d", kind)
	}
	name, err := ParseHello(payload)
	if err != nil || name != "flooder-7" {
		t.Fatalf("hello: %q, %v", name, err)
	}
	if _, err := AppendHello(nil, strings.Repeat("x", MaxHello+1)); err == nil {
		t.Fatal("oversized hello accepted")
	}
}

// TestHostileFrames drives the parsers over a catalogue of forged
// inputs; every case must answer a deterministic error, never panic.
func TestHostileFrames(t *testing.T) {
	good, err := AppendRequest(nil, 7, []Query{{Kind: QDist, U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":             {},
		"short header":      good[:4],
		"bad magic":         append([]byte{'X', 'X'}, good[2:]...),
		"bad version":       append([]byte{magic0, magic1, 99}, good[3:]...),
		"bad kind":          append([]byte{magic0, magic1, Version, 200}, good[4:]...),
		"truncated payload": good[:len(good)-1],
	}
	for name, frame := range cases {
		t.Run(name, func(t *testing.T) {
			var buf []byte
			_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), &buf, 0)
			if err == nil {
				t.Fatal("hostile frame accepted")
			}
		})
	}

	// Forged length: header claims more than the reader's limit.
	forged := append([]byte{}, good...)
	binary.LittleEndian.PutUint32(forged[4:8], 1<<30)
	var buf []byte
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(forged)), &buf, 0); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("forged length: %v", err)
	}

	payloadCases := map[string][]byte{
		"empty":             {},
		"zero count":        {7, 0},
		"huge count":        append([]byte{7}, binary.AppendUvarint(nil, 1<<40)...),
		"truncated query":   {7, 2, QDist, 1, 2},
		"bad query kind":    {7, 1, 99, 1, 2},
		"trailing garbage":  append(mustRequestPayload(t), 0xff),
		"vertex over int32": append([]byte{7, 1, QDist}, binary.AppendUvarint(binary.AppendUvarint(nil, 1<<33), 0)...),
	}
	for name, payload := range payloadCases {
		t.Run("request/"+name, func(t *testing.T) {
			if _, _, err := ParseRequest(payload, nil); !errors.Is(err, ErrMalformed) {
				t.Fatalf("want ErrMalformed, got %v", err)
			}
		})
	}

	// Reply whose declared path length exceeds its backing bytes.
	evil := binary.AppendUvarint(nil, 1)                  // id
	evil = binary.AppendUvarint(evil, 1)                  // count
	evil = append(evil, StatusOK)                         // status
	evil = binary.AppendUvarint(evil, uint64(MaxPathLen)) // forged path length, no vertices
	if _, _, err := ParseReply(evil, []uint8{QPath}, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("forged path length: %v", err)
	}
	// Reply with the wrong result count for its request.
	okReply, err := AppendReply(nil, 1, []Result{{Kind: QDist, Status: StatusOK, Dist: 3}})
	if err != nil {
		t.Fatal(err)
	}
	_, payload := readOne(t, okReply)
	if _, _, err := ParseReply(payload, []uint8{QDist, QDist}, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("count mismatch: %v", err)
	}
}

// TestBatchLimitBoundary pins the MaxBatch bound exactly on all four
// codec ends: a batch of MaxBatch queries (results) encodes, frames and
// parses back; MaxBatch+1 is refused by the encoder and, hand-built, by
// the parser. It kills mutant M07 (AppendRequest checking MaxBatch+1
// instead of MaxBatch), which survived while only far-off counts were
// tested.
func TestBatchLimitBoundary(t *testing.T) {
	qs := make([]Query, MaxBatch+1)
	rs := make([]Result, MaxBatch+1)
	kinds := make([]uint8, MaxBatch+1)
	for i := range qs {
		qs[i] = Query{Kind: QDist, U: graph.NodeID(i), V: 1}
		rs[i] = Result{Kind: QDist, Status: StatusOK, Dist: graph.Weight(i)}
		kinds[i] = QDist
	}

	frame, err := AppendRequest(nil, 5, qs[:MaxBatch])
	if err != nil {
		t.Fatalf("AppendRequest refused exactly MaxBatch queries: %v", err)
	}
	_, payload := readOne(t, frame)
	if _, got, err := ParseRequest(payload, nil); err != nil || len(got) != MaxBatch {
		t.Fatalf("ParseRequest of MaxBatch queries: %d, %v", len(got), err)
	}
	if _, err := AppendRequest(nil, 5, qs); !errors.Is(err, ErrMalformed) {
		t.Fatalf("AppendRequest accepted MaxBatch+1 queries: %v", err)
	}
	over := binary.AppendUvarint(binary.AppendUvarint(nil, 5), MaxBatch+1)
	for range qs {
		over = append(over, QDist, 1, 2)
	}
	if _, _, err := ParseRequest(over, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("ParseRequest accepted MaxBatch+1 queries: %v", err)
	}

	frame, err = AppendReply(nil, 6, rs[:MaxBatch])
	if err != nil {
		t.Fatalf("AppendReply refused exactly MaxBatch results: %v", err)
	}
	_, payload = readOne(t, frame)
	if _, got, err := ParseReply(payload, kinds[:MaxBatch], nil); err != nil || len(got) != MaxBatch {
		t.Fatalf("ParseReply of MaxBatch results: %d, %v", len(got), err)
	}
	if _, err := AppendReply(nil, 6, rs); !errors.Is(err, ErrMalformed) {
		t.Fatalf("AppendReply accepted MaxBatch+1 results: %v", err)
	}
	over = binary.AppendUvarint(binary.AppendUvarint(nil, 6), MaxBatch+1)
	for range rs {
		over = append(over, StatusOK, 3)
	}
	if _, _, err := ParseReply(over, kinds, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("ParseReply accepted MaxBatch+1 results: %v", err)
	}
}

func mustRequestPayload(t *testing.T) []byte {
	t.Helper()
	frame, err := AppendRequest(nil, 7, []Query{{Kind: QDist, U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte{}, frame[headerSize:]...)
}

// TestReadFrameEOFKinds pins the EOF taxonomy transports rely on: a
// clean close between frames is io.EOF, a torn frame is
// io.ErrUnexpectedEOF.
func TestReadFrameEOFKinds(t *testing.T) {
	var buf []byte
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(nil)), &buf, 0); err != io.EOF {
		t.Fatalf("empty stream: %v", err)
	}
	frame, _ := AppendRequest(nil, 1, []Query{{Kind: QDist, U: 1, V: 2}})
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame[:len(frame)-2])), &buf, 0); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn payload: %v", err)
	}
}

// FuzzWireFrame round-trips generator-built frames and hammers every
// parser with mutated bytes: parsers must never panic, and any frame
// our own encoders emit must parse back to what was encoded.
func FuzzWireFrame(f *testing.F) {
	req, _ := AppendRequest(nil, 9, []Query{{Kind: QDist, U: 4, V: 9}, {Kind: QPath, U: 0, V: 3}, {Kind: QEcc, U: 2}})
	rep, _ := AppendReply(nil, 9, []Result{
		{Kind: QDist, Status: StatusOK, Dist: 5},
		{Kind: QPath, Status: StatusOK, Path: []graph.NodeID{0, 1, 3}},
		{Kind: QEcc, Status: StatusTimeout},
	})
	gos, _ := AppendGossip(nil, 1, 3, 256, []GossipEntry{{Bucket: 5, Prob: 99}})
	hel, _ := AppendHello(nil, "fuzz")
	f.Add(req, uint8(0))
	f.Add(rep, uint8(1))
	f.Add(gos, uint8(2))
	f.Add(hel, uint8(3))
	f.Add([]byte{magic0, magic1, Version, FrameRequest, 0xff, 0xff, 0xff, 0x7f}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		var buf []byte
		kind, payload, err := ReadFrame(bufio.NewReader(bytes.NewReader(data)), &buf, 1<<16)
		if err != nil {
			return
		}
		// The payload parsers must tolerate any payload under any kind —
		// a hostile peer controls both bytes independently.
		switch which % 4 {
		case 0:
			if id, qs, err := ParseRequest(payload, nil); err == nil {
				// Round-trip: what parses must re-encode and re-parse
				// identically.
				frame2, err := AppendRequest(nil, id, qs)
				if err != nil {
					t.Fatalf("re-encode of parsed request failed: %v", err)
				}
				_, p2 := mustRead(t, frame2)
				id2, qs2, err := ParseRequest(p2, nil)
				if err != nil || id2 != id || len(qs2) != len(qs) {
					t.Fatalf("request round-trip diverged: %v", err)
				}
				for i := range qs {
					if qs[i] != qs2[i] {
						t.Fatalf("query %d: %+v vs %+v", i, qs[i], qs2[i])
					}
				}
			}
		case 1:
			kinds := []uint8{QDist, QPath, QEcc}
			_, _, _ = ParseReply(payload, kinds[:1+len(payload)%3], nil)
		case 2:
			_, _, _, _, _ = ParseGossip(payload, nil)
		case 3:
			_, _ = ParseHello(payload)
		}
		_ = kind
	})
}

func mustRead(t *testing.T, frame []byte) (byte, []byte) {
	t.Helper()
	var buf []byte
	kind, payload, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), &buf, 0)
	if err != nil {
		t.Fatalf("ReadFrame of own encoding: %v", err)
	}
	return kind, payload
}
