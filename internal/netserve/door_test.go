package netserve

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"hublab/internal/flowctl"
	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/index"
	"hublab/internal/server"
	"hublab/internal/wire"
)

func buildIndex(t testing.TB, n, m int, seed int64) (*graph.Graph, *index.HubLabels) {
	t.Helper()
	g, err := gen.Gnm(n, m, seed)
	if err != nil {
		t.Fatalf("Gnm: %v", err)
	}
	idx, err := index.NewHubLabels(g)
	if err != nil {
		t.Fatalf("NewHubLabels: %v", err)
	}
	return g, idx
}

// startDoor runs a door for srv on a loopback listener and returns its
// address. Cleaned up with the test.
func startDoor(t testing.TB, srv *server.Server, opts Options) (*Door, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	d := New(srv, opts)
	go func() { _ = d.Serve(ln) }()
	t.Cleanup(d.Close)
	return d, ln.Addr().String()
}

type testConn struct {
	c   net.Conn
	br  *bufio.Reader
	buf []byte
}

func dialDoor(t testing.TB, addr string) *testConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return &testConn{c: c, br: bufio.NewReader(c)}
}

// roundTrip sends one request frame and decodes the reply.
func (tc *testConn) roundTrip(t testing.TB, id uint64, qs []wire.Query) []wire.Result {
	t.Helper()
	frame, err := wire.AppendRequest(nil, id, qs)
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	if _, err := tc.c.Write(frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	kind, payload, err := wire.ReadFrame(tc.br, &tc.buf, 0)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if kind != wire.FrameReply {
		t.Fatalf("reply kind = %d", kind)
	}
	kinds := make([]uint8, len(qs))
	for i := range qs {
		kinds[i] = qs[i].Kind
	}
	gotID, rs, err := wire.ParseReply(payload, kinds, nil)
	if err != nil {
		t.Fatalf("ParseReply: %v", err)
	}
	if gotID != id {
		t.Fatalf("reply id = %d, want %d", gotID, id)
	}
	return rs
}

// TestDoorAnswersMatchInProcess drives distance, path and eccentricity
// frames through a real loopback connection and checks every answer
// byte-identical to the in-process doors.
func TestDoorAnswersMatchInProcess(t *testing.T) {
	_, idx := buildIndex(t, 200, 380, 3)
	srv := server.New(idx, server.Options{Shards: 2})
	defer srv.Close()
	_, addr := startDoor(t, srv, Options{})
	tc := dialDoor(t, addr)

	// Mixed batch: distances, a path, an eccentricity.
	qs := []wire.Query{
		{Kind: wire.QDist, U: 3, V: 177},
		{Kind: wire.QDist, U: 0, V: 0},
		{Kind: wire.QPath, U: 5, V: 55},
		{Kind: wire.QEcc, U: 9},
		{Kind: wire.QDist, U: 198, V: 2},
	}
	rs := tc.roundTrip(t, 1, qs)
	for i, r := range rs {
		if r.Status != wire.StatusOK {
			t.Fatalf("slot %d: status %d", i, r.Status)
		}
	}
	for _, i := range []int{0, 1, 4} {
		want, err := srv.TryQuery("inproc", qs[i].U, qs[i].V)
		if err != nil {
			t.Fatal(err)
		}
		if rs[i].Dist != want {
			t.Fatalf("dist(%d,%d) = %d over the wire, %d in process", qs[i].U, qs[i].V, rs[i].Dist, want)
		}
	}
	wantPath, err := srv.TryPath("inproc", 5, 55, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs[2].Path) != len(wantPath) {
		t.Fatalf("path length %d over the wire, %d in process", len(rs[2].Path), len(wantPath))
	}
	for i := range wantPath {
		if rs[2].Path[i] != wantPath[i] {
			t.Fatalf("path vertex %d: %d vs %d", i, rs[2].Path[i], wantPath[i])
		}
	}
	want := make([]wire.Result, 1)
	srv.Do("inproc", qs[3:4], want)
	if want[0].Status != wire.StatusOK || rs[3].Dist != want[0].Dist || rs[3].Far != want[0].Far {
		t.Fatalf("ecc(9) = (%d,%d) over the wire, (%d,%d) status %d in process",
			rs[3].Dist, rs[3].Far, want[0].Dist, want[0].Far, want[0].Status)
	}

	// An all-distance frame on a second frame of the same connection.
	big := make([]wire.Query, 32)
	for i := range big {
		big[i] = wire.Query{Kind: wire.QDist, U: graph.NodeID(i), V: graph.NodeID(199 - i)}
	}
	rs = tc.roundTrip(t, 2, big)
	for i := range big {
		want, _ := srv.TryQuery("inproc", big[i].U, big[i].V)
		if rs[i].Status != wire.StatusOK || rs[i].Dist != want {
			t.Fatalf("batched slot %d: status %d dist %d want %d", i, rs[i].Status, rs[i].Dist, want)
		}
	}

	// Out-of-range queries of every kind answer StatusBadRequest, not a
	// hang, a panic, or a distance of "unreachable".
	rs = tc.roundTrip(t, 3, []wire.Query{{Kind: wire.QPath, U: 5000, V: 1}, {Kind: wire.QEcc, U: 5000}, {Kind: wire.QDist, U: 5, V: 5000}})
	for i, r := range rs {
		if r.Status != wire.StatusBadRequest {
			t.Fatalf("out-of-range slot %d: status %d", i, r.Status)
		}
	}
}

// TestDoorHello checks that a hello frame renames the connection's
// admission identity: a flooder name carried over hello is shed even
// though the TCP peer is just 127.0.0.1.
func TestDoorHello(t *testing.T) {
	_, idx := buildIndex(t, 100, 200, 5)
	srv := server.New(idx, server.Options{
		Shards:    1,
		Admission: &flowctl.Options{MaxDrop: 1, Inc: 1},
	})
	defer srv.Close()
	srv.AdmissionController().OnQueueFull("flooder")
	_, addr := startDoor(t, srv, Options{})

	tc := dialDoor(t, addr)
	hello, err := wire.AppendHello(nil, "flooder")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.c.Write(hello); err != nil {
		t.Fatal(err)
	}
	rs := tc.roundTrip(t, 1, []wire.Query{{Kind: wire.QDist, U: 1, V: 2}})
	if rs[0].Status != wire.StatusOverloaded {
		t.Fatalf("flooder status = %d, want StatusOverloaded", rs[0].Status)
	}
	// A second connection without the hello is the default loopback
	// identity and sails through.
	tc2 := dialDoor(t, addr)
	rs = tc2.roundTrip(t, 1, []wire.Query{{Kind: wire.QDist, U: 1, V: 2}})
	if rs[0].Status != wire.StatusOK {
		t.Fatalf("default identity status = %d, want OK", rs[0].Status)
	}
}

// TestDoorHostileInput checks that protocol garbage closes the
// connection with a deterministic error and a BadFrames count, and the
// door keeps serving new connections.
func TestDoorHostileInput(t *testing.T) {
	_, idx := buildIndex(t, 50, 100, 7)
	srv := server.New(idx, server.Options{Shards: 1})
	defer srv.Close()
	d, addr := startDoor(t, srv, Options{MaxFrame: 1 << 12})

	for _, hostile := range [][]byte{
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		// Valid header, forged huge length.
		{'h', 'W', wire.Version, wire.FrameRequest, 0xff, 0xff, 0xff, 0x7f},
	} {
		tc := dialDoor(t, addr)
		if _, err := tc.c.Write(hostile); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.br.ReadByte(); err != io.EOF {
			t.Fatalf("hostile conn not closed: %v", err)
		}
	}
	if st := d.Stats(); st.BadFrames < 3 {
		t.Fatalf("BadFrames = %d, want ≥3", st.BadFrames)
	}
	tc := dialDoor(t, addr)
	rs := tc.roundTrip(t, 1, []wire.Query{{Kind: wire.QDist, U: 1, V: 2}})
	if rs[0].Status != wire.StatusOK {
		t.Fatalf("door wedged after hostile input: status %d", rs[0].Status)
	}
}

// TestDoorKill severs live connections abruptly (the chaos hook) and
// checks the next read fails fast while fresh connections keep being
// served.
func TestDoorKill(t *testing.T) {
	_, idx := buildIndex(t, 50, 100, 9)
	srv := server.New(idx, server.Options{Shards: 1})
	defer srv.Close()
	d, addr := startDoor(t, srv, Options{})
	tc := dialDoor(t, addr)
	if rs := tc.roundTrip(t, 1, []wire.Query{{Kind: wire.QDist, U: 1, V: 2}}); rs[0].Status != wire.StatusOK {
		t.Fatal("warmup query failed")
	}
	d.Kill()
	frame, _ := wire.AppendRequest(nil, 2, []wire.Query{{Kind: wire.QDist, U: 1, V: 2}})
	tc.c.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, _ = tc.c.Write(frame)
	if _, _, err := wire.ReadFrame(tc.br, &tc.buf, 0); err == nil {
		t.Fatal("killed connection still answering")
	}
	tc2 := dialDoor(t, addr)
	if rs := tc2.roundTrip(t, 3, []wire.Query{{Kind: wire.QDist, U: 1, V: 2}}); rs[0].Status != wire.StatusOK {
		t.Fatal("door not serving after Kill")
	}
}

// TestDoorShedZeroAlloc pins satellite (e) for the binary door: a frame
// that admission sheds entirely is answered without a single heap
// allocation — no envelopes, no reply buffers, nothing.
func TestDoorShedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; allocation counts are meaningless")
	}
	_, idx := buildIndex(t, 50, 100, 11)
	srv := server.New(idx, server.Options{
		Shards:    1,
		Admission: &flowctl.Options{MaxDrop: 1, Inc: 1},
	})
	defer srv.Close()
	srv.AdmissionController().OnQueueFull("flooder")
	d := New(srv, Options{})
	st := &connState{client: "flooder"}
	qs := make([]wire.Query, 16)
	for i := range qs {
		qs[i] = wire.Query{Kind: wire.QDist, U: 1, V: 2}
	}
	reqFrame, err := wire.AppendRequest(nil, 1, qs)
	if err != nil {
		t.Fatal(err)
	}
	payload := reqFrame[8:]
	serveFrame := func() {
		id, parsed, err := wire.ParseRequest(payload, st.qs[:0])
		if err != nil {
			t.Fatal(err)
		}
		st.qs = parsed
		d.answer(st, parsed)
		frame, err := wire.AppendReply(st.reply[:0], id, st.rs)
		if err != nil {
			t.Fatal(err)
		}
		st.reply = frame
	}
	serveFrame() // warm the scratch buffers
	for _, r := range st.rs {
		if r.Status != wire.StatusOverloaded {
			t.Fatalf("expected full shed, got status %d", r.Status)
		}
	}
	if allocs := testing.AllocsPerRun(200, serveFrame); allocs != 0 {
		t.Errorf("shed frame allocates %.1f/op, want 0", allocs)
	}
	// The served (non-shed) steady state is allocation-free too.
	st2 := &connState{client: "polite"}
	serve2 := func() {
		id, parsed, err := wire.ParseRequest(payload, st2.qs[:0])
		if err != nil {
			t.Fatal(err)
		}
		st2.qs = parsed
		d.answer(st2, parsed)
		frame, err := wire.AppendReply(st2.reply[:0], id, st2.rs)
		if err != nil {
			t.Fatal(err)
		}
		st2.reply = frame
	}
	serve2()
	if allocs := testing.AllocsPerRun(200, serve2); allocs != 0 {
		t.Errorf("served frame allocates %.1f/op, want 0", allocs)
	}
}

// TestGossipSharesShedState wires two nodes' controllers together with
// a Gossiper and checks the fleet property end to end: a flooder
// saturated on node A is shed on node B, which it never flooded, while
// a polite client stays admitted on both.
func TestGossipSharesShedState(t *testing.T) {
	_, idx := buildIndex(t, 50, 100, 13)
	admission := &flowctl.Options{Seed: 99, MaxDrop: 1, Inc: 1}
	srvA := server.New(idx, server.Options{Shards: 1, Admission: admission})
	defer srvA.Close()
	srvB := server.New(idx, server.Options{Shards: 1, Admission: admission})
	defer srvB.Close()
	_, addrB := startDoor(t, srvB, Options{})

	// Saturate the flooder on A only.
	for i := 0; i < 50; i++ {
		srvA.AdmissionController().OnQueueFull("flooder")
	}
	g := NewGossiper(srvA.AdmissionController(), []string{addrB}, 50*time.Millisecond)
	g.Tick()
	// The door merges on its reader goroutine; poll until it lands.
	deadline := time.Now().Add(5 * time.Second)
	for srvB.AdmissionController().Probability("flooder") < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("flooder probability on B = %v after gossip, want 1",
				srvB.AdmissionController().Probability("flooder"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if p := srvB.AdmissionController().Probability("polite"); p != 0 {
		t.Fatalf("gossip throttled an innocent flow on B: %v", p)
	}
	// B now rejects the flooder at its own door.
	tc := dialDoor(t, addrB)
	hello, _ := wire.AppendHello(nil, "flooder")
	if _, err := tc.c.Write(hello); err != nil {
		t.Fatal(err)
	}
	rs := tc.roundTrip(t, 1, []wire.Query{{Kind: wire.QDist, U: 1, V: 2}})
	if rs[0].Status != wire.StatusOverloaded {
		t.Fatalf("flooder not shed on B: status %d", rs[0].Status)
	}
	if sent, failed := g.Stats(); sent == 0 || failed != 0 {
		t.Fatalf("gossiper stats sent=%d failed=%d", sent, failed)
	}
}

// TestGossipShapeMismatch checks that a gossip frame from a controller
// with a different seed is rejected as a protocol violation instead of
// corrupting local admission state.
func TestGossipShapeMismatch(t *testing.T) {
	_, idx := buildIndex(t, 50, 100, 15)
	srv := server.New(idx, server.Options{Shards: 1, Admission: &flowctl.Options{Seed: 1}})
	defer srv.Close()
	d, addr := startDoor(t, srv, Options{})
	tc := dialDoor(t, addr)
	frame, err := wire.AppendGossip(nil, 2 /* wrong seed */, 3, 256, []wire.GossipEntry{{Bucket: 0, Prob: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.c.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.br.ReadByte(); err != io.EOF {
		t.Fatalf("mismatched gossip conn not closed: %v", err)
	}
	if st := d.Stats(); st.BadFrames != 1 {
		t.Fatalf("BadFrames = %d, want 1", st.BadFrames)
	}
	if st := d.Stats(); st.GossipMerged != 0 {
		t.Fatalf("GossipMerged = %d, want 0", st.GossipMerged)
	}
}

// TestDoorPipelinedFrames writes several request frames back to back
// before reading, and checks the replies come back in order with
// matching ids.
func TestDoorPipelinedFrames(t *testing.T) {
	_, idx := buildIndex(t, 100, 200, 17)
	srv := server.New(idx, server.Options{Shards: 2})
	defer srv.Close()
	_, addr := startDoor(t, srv, Options{})
	tc := dialDoor(t, addr)
	var out bytes.Buffer
	const frames = 20
	for id := uint64(1); id <= frames; id++ {
		frame, err := wire.AppendRequest(nil, id, []wire.Query{{Kind: wire.QDist, U: graph.NodeID(id), V: graph.NodeID(id + 3)}})
		if err != nil {
			t.Fatal(err)
		}
		out.Write(frame)
	}
	if _, err := tc.c.Write(out.Bytes()); err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= frames; id++ {
		kind, payload, err := wire.ReadFrame(tc.br, &tc.buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", id, err)
		}
		if kind != wire.FrameReply {
			t.Fatalf("frame %d: kind %d", id, kind)
		}
		gotID, rs, err := wire.ParseReply(payload, []uint8{wire.QDist}, nil)
		if err != nil || gotID != id || rs[0].Status != wire.StatusOK {
			t.Fatalf("frame %d: id=%d err=%v", id, gotID, err)
		}
	}
}
