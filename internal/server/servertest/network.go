package servertest

import (
	"bufio"
	"math/rand"
	"net"
	"slices"
	"testing"

	"hublab/internal/graph"
	"hublab/internal/index"
	"hublab/internal/index/indextest"
	"hublab/internal/netserve"
	"hublab/internal/server"
	"hublab/internal/sssp"
	"hublab/internal/wire"
)

// RunNetworkServing asserts that serving idx through the binary network
// door is answer-for-answer indistinguishable from calling the server
// in-process: every status, distance, witness path, and eccentricity
// that comes back over a real loopback TCP connection must equal what
// server.Do fills for the same wave, and distances are additionally
// checked against brute-force truth. Mixed frames and a final
// all-distance frame both ride the one core.
func RunNetworkServing(t *testing.T, g *graph.Graph, idx index.Index, seed int64) {
	t.Helper()
	n := g.NumNodes()
	if n == 0 {
		return
	}
	truth := sssp.AllPairs(g)
	srv := server.New(idx, server.Options{Shards: 2})
	defer srv.Close()
	door := netserve.New(srv, netserve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go door.Serve(ln) //nolint:errcheck // returns net.ErrClosed on door.Close
	defer door.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial door: %v", err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	var (
		frame   []byte
		payload []byte
		rs      []wire.Result
		nextID  uint64
	)
	roundTrip := func(qs []wire.Query) []wire.Result {
		t.Helper()
		nextID++
		frame, err = wire.AppendRequest(frame[:0], nextID, qs)
		if err != nil {
			t.Fatalf("encode request: %v", err)
		}
		if _, err = conn.Write(frame); err != nil {
			t.Fatalf("write frame: %v", err)
		}
		kind, pl, rerr := wire.ReadFrame(br, &payload, 0)
		if rerr != nil {
			t.Fatalf("read reply: %v", rerr)
		}
		if kind != wire.FrameReply {
			t.Fatalf("door answered frame kind %d, want reply", kind)
		}
		kinds := make([]uint8, len(qs))
		for i := range qs {
			kinds[i] = qs[i].Kind
		}
		id, out, perr := wire.ParseReply(pl, kinds, rs[:0])
		if perr != nil {
			t.Fatalf("parse reply: %v", perr)
		}
		if id != nextID {
			t.Fatalf("reply id %d for request %d", id, nextID)
		}
		rs = out
		return out
	}

	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]graph.NodeID, 40)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
	}
	pairs[0][1] = pairs[0][0] // force a self-pair

	// Phase 1: mixed frames — one distance, one path, one eccentricity
	// per frame, each compared against the in-process answer for the
	// identical wave. The wire client and the in-process caller are
	// distinct admission identities, but with no induced overload both
	// must be admitted, so status parity is part of the contract.
	want := make([]wire.Result, 3)
	for _, p := range pairs {
		u, v := p[0], p[1]
		qs := []wire.Query{
			{Kind: wire.QDist, U: u, V: v},
			{Kind: wire.QPath, U: u, V: v},
			{Kind: wire.QEcc, U: u},
		}
		got := roundTrip(qs)
		want[1].Path = want[1].Path[:0]
		srv.Do("inproc", qs, want)
		for i := range qs {
			if got[i].Status != want[i].Status {
				t.Fatalf("wire kind %d (%d,%d) status %d, in-process %d", qs[i].Kind, u, v, got[i].Status, want[i].Status)
			}
			if s := want[i].Status; s != wire.StatusOK && s != wire.StatusUnsupported {
				t.Fatalf("in-process kind %d (%d,%d) failed unexpectedly: status %d", qs[i].Kind, u, v, s)
			}
		}
		if got[0].Dist != want[0].Dist {
			t.Fatalf("wire d(%d,%d)=%d, in-process %d", u, v, got[0].Dist, want[0].Dist)
		}
		if got[0].Dist != truth[u][v] {
			t.Fatalf("wire d(%d,%d)=%d, truth %d", u, v, got[0].Dist, truth[u][v])
		}
		if want[1].Status == wire.StatusOK {
			if !slices.Equal(got[1].Path, want[1].Path) {
				t.Fatalf("wire path %d→%d = %v, in-process %v", u, v, got[1].Path, want[1].Path)
			}
			if truth[u][v] < graph.Infinity {
				if msg := indextest.CheckPath(g, u, v, got[1].Path, truth[u][v]); msg != "" {
					t.Fatalf("wire path %d→%d invalid: %s", u, v, msg)
				}
			}
		}
		if want[2].Status == wire.StatusOK && (got[2].Far != want[2].Far || got[2].Dist != want[2].Dist) {
			t.Fatalf("wire ecc(%d)=(%d,%d), in-process (%d,%d)",
				u, got[2].Far, got[2].Dist, want[2].Far, want[2].Dist)
		}
	}

	// Phase 2: one all-distance frame covering every pair at once, so
	// shard coalescing engages across the frame — pinned against the
	// same truth.
	qs := make([]wire.Query, len(pairs))
	for i, p := range pairs {
		qs[i] = wire.Query{Kind: wire.QDist, U: p[0], V: p[1]}
	}
	got := roundTrip(qs)
	for i, p := range pairs {
		if got[i].Status != wire.StatusOK {
			t.Fatalf("batched dist %d→%d status %d", p[0], p[1], got[i].Status)
		}
		if want := truth[p[0]][p[1]]; got[i].Dist != want {
			t.Fatalf("batched wire d(%d,%d)=%d, truth %d", p[0], p[1], got[i].Dist, want)
		}
		if want := idx.Distance(p[0], p[1]); got[i].Dist != want {
			t.Fatalf("batched wire d(%d,%d)=%d, index %d", p[0], p[1], got[i].Dist, want)
		}
	}

	st := door.Stats()
	if st.BadFrames != 0 {
		t.Fatalf("door counted %d bad frames on a well-formed conversation", st.BadFrames)
	}
	if st.Queries == 0 || st.Frames == 0 {
		t.Fatalf("door stats empty after serving: %+v", st)
	}
}
