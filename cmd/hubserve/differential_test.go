package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/hub"
	"hublab/internal/hubclient"
	"hublab/internal/index"
	"hublab/internal/index/indextest"
	"hublab/internal/netserve"
	"hublab/internal/server"
	"hublab/internal/wire"
)

// The differential door test is the payoff of the single request core:
// one seeded script — mixed verbs; in-range, out-of-range, negative and
// malformed ids; reloads to indexes of other sizes and capabilities; an
// overloaded and a stalled backend — is replayed through the line
// codec, the HTTP codec and the binary codec over one server.Server,
// and all three must report the same (status, value) for every step.
// The doors only decode and encode; anything they disagree on is a
// second copy of request logic that has crept back in.

// diffTimeout is the world's QueryTimeout: long enough that no healthy
// query meets it on a loaded CI box, short enough to wait out on
// purpose a few times per run.
const diffTimeout = 150 * time.Millisecond

// step is one line of a script: a query spelled as text tokens (so it
// can be malformed), optionally preceded by a change of the world.
type step struct {
	verb uint8     // wire.QDist / QPath / QEcc
	ids  [2]string // id tokens as typed; QEcc uses ids[0]
	// ctl changes the world around the query: "swap" installs index
	// swapTo before it; "busy" saturates the queue before it and leaves
	// it so; "calm" ends that after it; "stall" serves this one query
	// from a backend that never answers in time.
	ctl    string
	swapTo int
}

// answer is what a door reports for a step.
type answer struct {
	status uint8
	value  string // normalized payload; "" unless status is StatusOK
}

// genScript derives a script from seed.
func genScript(seed int64) []step {
	rng := rand.New(rand.NewSource(seed))
	id := func() string {
		switch r := rng.Intn(20); {
		case r < 9:
			return strconv.Itoa(rng.Intn(worldSmall)) // a vertex of every index
		case r < 13:
			return strconv.Itoa(worldSmall + rng.Intn(worldBig-worldSmall)) // only of the big ones
		case r < 15:
			return []string{"60", "61", "99999", "2147483647"}[rng.Intn(4)] // of none
		case r < 17:
			return strconv.Itoa(-1 - rng.Intn(3))
		default:
			return []string{"x", "2.5", "", "99999999999", "0x10", "１"}[rng.Intn(6)] // malformed
		}
	}
	var script []step
	busy := 0 // steps left in the current overload window
	stalled := false
	for len(script) < 40 {
		st := step{verb: uint8(rng.Intn(3)), ids: [2]string{id(), id()}}
		if st.verb == wire.QEcc {
			st.ids[1] = ""
		}
		switch r := rng.Intn(20); {
		case busy > 1:
			busy--
		case busy == 1:
			busy, st.ctl = 0, "calm"
		case r < 3:
			st.ctl, st.swapTo = "swap", rng.Intn(worldIndexes)
		case r == 3:
			st.ctl, busy = "busy", 1+rng.Intn(3)
		case r == 4 && seed%8 == 0 && !stalled:
			// Waiting out a deadline is slow: one seed in eight does, once.
			st, stalled = step{verb: wire.QDist, ids: [2]string{"1", "2"}, ctl: "stall"}, true
		}
		script = append(script, st)
	}
	if busy > 0 {
		script = append(script, step{verb: wire.QDist, ids: [2]string{"0", "1"}, ctl: "calm"})
	}
	return script
}

// Sizes of the world's indexes: ids below worldSmall are vertices of
// all of them, ids below worldBig of all but the small one.
const (
	worldSmall   = 20
	worldBig     = 60
	worldIndexes = 4
)

// world is one server.Server behind all three doors, plus the levers
// the scripts pull on it.
type world struct {
	srv     *server.Server
	mux     *http.ServeMux
	cl      *hubclient.Client
	indexes [worldIndexes]index.Index
	cur     int // the index the script last installed
	gate    chan struct{}
	gated   *indextest.Fixed
	fillers sync.WaitGroup
}

func hubLabelsIndex(tb testing.TB, n, m int, seed int64) *index.HubLabels {
	tb.Helper()
	g, err := gen.Gnm(n, m, seed)
	if err != nil {
		tb.Fatal(err)
	}
	idx, err := index.NewHubLabels(g)
	if err != nil {
		tb.Fatal(err)
	}
	return idx
}

func newWorld(tb testing.TB) *world {
	tb.Helper()
	big := hubLabelsIndex(tb, worldBig, 110, 13)
	// The same labels without the parent column: a version-1 container.
	bare := hub.NewLabeling(worldBig)
	for v := graph.NodeID(0); v < worldBig; v++ {
		for _, h := range big.Labeling().Label(v) {
			bare.Add(v, h.Node, h.Dist)
		}
	}
	bare.Canonicalize()
	w := &world{indexes: [worldIndexes]index.Index{
		big,
		hubLabelsIndex(tb, worldSmall, 34, 5),
		index.NewHubLabelsFrom(bare),
		&indextest.Fixed{N: worldBig}, // distances only
	}}
	// One worker and one queue slot, so two parked requests are an
	// overload; no admission controller, so nothing is probabilistic.
	w.srv = server.New(w.indexes[0], server.Options{Shards: 1, QueueDepth: 1, QueryTimeout: diffTimeout})
	w.mux = newMux(w.srv, nil)
	door := netserve.New(w.srv, netserve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go door.Serve(ln) //nolint:errcheck // returns net.ErrClosed on Close
	w.cl, err = hubclient.New(hubclient.Options{Replicas: []string{ln.Addr().String()}, Name: "differential"})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		w.cl.Close()
		door.Close()
		w.srv.Close()
	})
	return w
}

func (w *world) waitFor(tb testing.TB, what string, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			tb.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// gateBackend installs a backend that blocks every query until release.
func (w *world) gateBackend() {
	w.gate = make(chan struct{})
	w.gated = &indextest.Fixed{N: worldBig, Gate: w.gate}
	w.srv.SwapRetire(w.gated)
}

// release opens the gate, lets the worker drain what it held, and puts
// the script's index back.
func (w *world) release(tb testing.TB) {
	close(w.gate)
	w.fillers.Wait()
	w.waitFor(tb, "the queue to drain", func() bool { return w.srv.Stats().Queued == 0 })
	w.srv.SwapRetire(w.indexes[w.cur])
}

// before applies a step's change of the world ahead of its query.
func (w *world) before(tb testing.TB, st step) {
	switch st.ctl {
	case "swap":
		w.cur = st.swapTo
		w.srv.SwapRetire(w.indexes[w.cur])
	case "busy":
		// One filler blocks the worker inside the backend, a second takes
		// the only queue slot; until release every query bounces. (The
		// fillers' own deadlines pass meanwhile; their envelopes stay
		// where they are.)
		w.gateBackend()
		for i := uint64(1); i <= 2; i++ {
			w.fillers.Add(1)
			go func() { defer w.fillers.Done(); w.srv.TryQuery("filler", 0, 1) }()
			if i == 1 {
				w.waitFor(tb, "the worker to block", func() bool { return w.gated.Started.Load() == 1 })
			} else {
				w.waitFor(tb, "the queue slot to fill", func() bool { return w.srv.Stats().Queued == 1 })
			}
		}
	case "stall":
		w.gateBackend()
	}
}

// after undoes what a step's query needed held.
func (w *world) after(tb testing.TB, st step) {
	switch st.ctl {
	case "calm":
		w.release(tb)
	case "stall":
		w.waitFor(tb, "the worker to pick up the stalled query", func() bool { return w.gated.Started.Load() >= 1 })
		w.release(tb)
	}
}

// A codec replays query steps through one door.
type codec interface {
	ask(tb testing.TB, st step) answer
	close(tb testing.TB)
}

func joinIDs(ids []graph.NodeID) string {
	if len(ids) == 0 {
		return "inf"
	}
	var b strings.Builder
	for i, x := range ids {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(int(x)))
	}
	return b.String()
}

func distValue(d graph.Weight) string {
	if d >= graph.Infinity {
		return "inf"
	}
	return strconv.Itoa(int(d))
}

// statusByText inverts wire.StatusText over the non-OK statuses an
// HTTP code (0 = any) can stand for.
func statusByText(tb testing.TB, text string, code int) uint8 {
	tb.Helper()
	for s := uint8(wire.StatusOverloaded); s <= wire.StatusInternal; s++ {
		if strings.Contains(text, wire.StatusText(s)) && (code == 0 || httpCode[s] == code) {
			return s
		}
	}
	tb.Fatalf("no status reads %q (HTTP %d)", text, code)
	return 0
}

// lineCodec drives serveLines — the line door as main runs it — over a
// pipe, one line at a time.
type lineCodec struct {
	in   *io.PipeWriter
	out  *bufio.Reader
	done chan error
}

func newLineCodec(w *world) *lineCodec {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	c := &lineCodec{in: inW, out: bufio.NewReader(outR), done: make(chan error, 1)}
	go func() {
		err := serveLines(w.srv, inR, outW, nil)
		outW.Close()
		c.done <- err
	}()
	return c
}

func (c *lineCodec) ask(tb testing.TB, st step) answer {
	tb.Helper()
	line := [...]string{wire.QDist: st.ids[0] + " " + st.ids[1], wire.QPath: "PATH " + st.ids[0] + " " + st.ids[1], wire.QEcc: "ECC " + st.ids[0]}[st.verb]
	if _, err := io.WriteString(c.in, line+"\n"); err != nil {
		tb.Fatal(err)
	}
	got, err := c.out.ReadString('\n')
	if err != nil {
		tb.Fatalf("line door: %v", err)
	}
	got = strings.TrimSuffix(got, "\n")
	f := strings.Fields(got)
	switch {
	case got == "BUSY":
		return answer{status: wire.StatusOverloaded}
	case got == "TIMEOUT":
		return answer{status: wire.StatusTimeout}
	case strings.HasPrefix(got, "error: bad query "):
		return answer{status: wire.StatusBadRequest}
	case strings.HasPrefix(got, "error: "):
		return answer{status: statusByText(tb, got, 0)}
	case st.verb == wire.QDist && len(f) == 3:
		return answer{value: f[2]}
	case st.verb == wire.QPath && len(f) >= 4 && f[0] == "path":
		return answer{value: strings.Join(f[3:], " ")}
	case st.verb == wire.QEcc && len(f) == 4 && f[0] == "ecc":
		return answer{value: f[2] + " " + f[3]}
	}
	tb.Fatalf("line door answered %q to %q", got, line)
	return answer{}
}

func (c *lineCodec) close(tb testing.TB) {
	c.in.Close()
	if err := <-c.done; err != nil {
		tb.Errorf("serveLines: %v", err)
	}
}

// httpCodec drives the mux through httptest.
type httpCodec struct{ mux *http.ServeMux }

func (c httpCodec) ask(tb testing.TB, st step) answer {
	tb.Helper()
	url := [...]string{wire.QDist: "/distance?u=" + st.ids[0] + "&v=" + st.ids[1], wire.QPath: "/path?u=" + st.ids[0] + "&v=" + st.ids[1], wire.QEcc: "/ecc?v=" + st.ids[0]}[st.verb]
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.URL.Path, req.URL.RawQuery, _ = strings.Cut(url, "?") // ids travel raw, as a client's typo would
	req.RemoteAddr = "10.0.0.9:1234"
	rec := httptest.NewRecorder()
	c.mux.ServeHTTP(rec, req)
	switch rec.Code {
	case http.StatusOK:
	case http.StatusBadRequest:
		return answer{status: wire.StatusBadRequest}
	case http.StatusTooManyRequests:
		return answer{status: wire.StatusOverloaded}
	default:
		return answer{status: statusByText(tb, rec.Body.String(), rec.Code)}
	}
	var body struct {
		Distance     *int
		Path         []graph.NodeID
		Eccentricity *int
		Farthest     *int
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		tb.Fatalf("%s: body %q: %v", url, rec.Body.String(), err)
	}
	switch {
	case st.verb == wire.QDist && body.Distance == nil:
		return answer{value: "inf"}
	case st.verb == wire.QDist:
		return answer{value: strconv.Itoa(*body.Distance)}
	case st.verb == wire.QPath:
		return answer{value: joinIDs(body.Path)}
	case body.Eccentricity != nil && body.Farthest != nil:
		return answer{value: fmt.Sprintf("%d %d", *body.Eccentricity, *body.Farthest)}
	}
	tb.Fatalf("%s answered %q", url, rec.Body.String())
	return answer{}
}

func (httpCodec) close(testing.TB) {}

// binaryCodec drives the loopback binary door through hubclient, the
// way hubq does: ids are parsed client-side, errors read as statuses.
type binaryCodec struct{ cl *hubclient.Client }

func (c binaryCodec) ask(tb testing.TB, st step) answer {
	u, okU := wire.ParseVertex(st.ids[0])
	v, okV := wire.ParseVertex(st.ids[1])
	if !okU || (st.verb != wire.QEcc && !okV) {
		return answer{status: wire.StatusBadRequest}
	}
	var a answer
	var err error
	switch st.verb {
	case wire.QDist:
		var d graph.Weight
		d, err = c.cl.Distance(u, v)
		a.value = distValue(d)
	case wire.QPath:
		var p []graph.NodeID
		p, err = c.cl.Path(u, v, nil)
		a.value = joinIDs(p)
	default:
		var far graph.NodeID
		var ecc graph.Weight
		far, ecc, err = c.cl.Eccentricity(u)
		a.value = fmt.Sprintf("%d %d", ecc, far)
	}
	if err != nil {
		if errors.Is(err, hubclient.ErrDeadline) {
			tb.Fatalf("%+v: the client's own deadline fired before the replica's", st)
		}
		return answer{status: wire.StatusOf(err)}
	}
	return a
}

func (binaryCodec) close(testing.TB) {}

// replay runs script through one door, from the same initial world.
func (w *world) replay(tb testing.TB, c codec, script []step) []answer {
	tb.Helper()
	w.cur = 0
	w.srv.SwapRetire(w.indexes[0])
	out := make([]answer, len(script))
	for i, st := range script {
		w.before(tb, st)
		out[i] = c.ask(tb, st)
		w.after(tb, st)
	}
	c.close(tb)
	return out
}

// checkDoorsAgree replays seed's script through all three doors and
// requires one answer sequence. It returns the statuses the script met.
func (w *world) checkDoorsAgree(tb testing.TB, seed int64) (seen [wire.StatusInternal + 1]bool) {
	tb.Helper()
	script := genScript(seed)
	line := w.replay(tb, newLineCodec(w), script)
	viaHTTP := w.replay(tb, httpCodec{w.mux}, script)
	binary := w.replay(tb, binaryCodec{w.cl}, script)
	for i, st := range script {
		if line[i] != viaHTTP[i] || line[i] != binary[i] {
			tb.Errorf("seed %d step %d %+v: line %+v, http %+v, binary %+v", seed, i, st, line[i], viaHTTP[i], binary[i])
		}
		if (st.ctl == "stall") != (line[i].status == wire.StatusTimeout) {
			tb.Errorf("seed %d step %d %+v: status %d; exactly the stalled queries time out", seed, i, st, line[i].status)
		}
		seen[line[i].status] = true
	}
	return seen
}

// TestDoorsAgree is the differential test over a table of seeds, which
// between them must meet every status a script can provoke.
func TestDoorsAgree(t *testing.T) {
	w := newWorld(t)
	var seen [wire.StatusInternal + 1]bool
	for seed := int64(0); seed < 64; seed++ {
		for s, met := range w.checkDoorsAgree(t, seed) {
			seen[s] = seen[s] || met
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	for _, s := range []uint8{wire.StatusOK, wire.StatusOverloaded, wire.StatusTimeout, wire.StatusUnsupported, wire.StatusBadRequest} {
		if !seen[s] {
			t.Errorf("no script met status %d (%s): the generator has degenerated", s, wire.StatusText(s))
		}
	}
}

// FuzzDoorsAgree lets the fuzzer pick the seed.
func FuzzDoorsAgree(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 64, 1 << 40} {
		f.Add(seed)
	}
	w := newWorld(f)
	f.Fuzz(func(t *testing.T, seed int64) {
		w.checkDoorsAgree(t, seed)
	})
}

// TestMixedFramePipelines pins the end of the mixed-frame cliff: a
// 64-query frame carrying one PATH enters the shard queues as one wave
// like an all-distance frame does, so with the backend held shut more
// than one of its queries is in flight at once. (Answered a query at a
// time, the frame would block on its first distance with the other 62
// never started.)
func TestMixedFramePipelines(t *testing.T) {
	gate := make(chan struct{})
	idx := &indextest.Fixed{N: 100, Gate: gate}
	srv := server.New(idx, server.Options{Shards: 4})
	defer srv.Close()
	door := netserve.New(srv, netserve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go door.Serve(ln) //nolint:errcheck // returns net.ErrClosed on Close
	defer door.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	qs := make([]wire.Query, 64)
	kinds := make([]uint8, len(qs))
	for i := range qs {
		qs[i] = wire.Query{Kind: wire.QDist, U: graph.NodeID(i), V: 99}
	}
	qs[0].Kind = wire.QPath
	for i := range qs {
		kinds[i] = qs[i].Kind
	}
	frame, err := wire.AppendRequest(nil, 1, qs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for idx.Started.Load() < 2 {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("%d of the frame's queries in flight with the backend shut, want > 1", idx.Started.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	var buf []byte
	kind, payload, err := wire.ReadFrame(bufio.NewReader(conn), &buf, 0)
	if err != nil || kind != wire.FrameReply {
		t.Fatalf("reply: kind %d, %v", kind, err)
	}
	_, rs, err := wire.ParseReply(payload, kinds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Status != wire.StatusUnsupported {
		t.Errorf("PATH on a distance-only index: status %d, want StatusUnsupported", rs[0].Status)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Status != wire.StatusOK || rs[i].Dist != graph.Weight(99-i) {
			t.Fatalf("slot %d: status %d dist %d, want OK %d", i, rs[i].Status, rs[i].Dist, 99-i)
		}
	}
}
