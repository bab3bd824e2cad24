package hubclient

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hublab/internal/flowctl"
	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/index"
	"hublab/internal/index/indextest"
	"hublab/internal/netserve"
	"hublab/internal/server"
	"hublab/internal/wire"
)

// startNode runs a server + binary door over idx on a loopback
// listener, returning the door (for chaos hooks) and its address.
func startNode(t testing.TB, idx index.Index, opts server.Options) (*server.Server, *netserve.Door, string) {
	t.Helper()
	srv := server.New(idx, opts)
	t.Cleanup(srv.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	d := netserve.New(srv, netserve.Options{})
	go func() { _ = d.Serve(ln) }()
	t.Cleanup(d.Close)
	return srv, d, ln.Addr().String()
}

// TestClientMatchesInProcess drives all three query kinds through a
// pooled client against a real index and compares with the in-process
// doors.
func TestClientMatchesInProcess(t *testing.T) {
	g, err := gen.Gnm(200, 380, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.NewHubLabels(g)
	if err != nil {
		t.Fatal(err)
	}
	srv, _, addr := startNode(t, idx, server.Options{Shards: 2})
	c, err := New(Options{Replicas: []string{addr}, Name: "tester"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 100; i++ {
		u, v := graph.NodeID(i%200), graph.NodeID((i*7+3)%200)
		got, err := c.Distance(u, v)
		if err != nil {
			t.Fatalf("Distance(%d,%d): %v", u, v, err)
		}
		want, _ := srv.TryQuery("inproc", u, v)
		if got != want {
			t.Fatalf("Distance(%d,%d) = %d, want %d", u, v, got, want)
		}
	}
	path, err := c.Path(5, 55, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantPath, _ := srv.TryPath("inproc", 5, 55, nil)
	if len(path) != len(wantPath) {
		t.Fatalf("path %v, want %v", path, wantPath)
	}
	far, ecc, err := c.Eccentricity(9)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]wire.Result, 1)
	srv.Do("inproc", []wire.Query{{Kind: wire.QEcc, U: 9}}, want)
	if far != want[0].Far || ecc != want[0].Dist {
		t.Fatalf("Eccentricity(9) = (%d,%d), want (%d,%d)", far, ecc, want[0].Far, want[0].Dist)
	}
}

// TestClientCoalesces checks the batching story: a burst of concurrent
// queries lands in far fewer frames than queries.
func TestClientCoalesces(t *testing.T) {
	idx := &indextest.Fixed{N: 100000, Delay: 200 * time.Microsecond}
	_, _, addr := startNode(t, idx, server.Options{Shards: 4, QueueDepth: 4096})
	c, err := New(Options{Replicas: []string{addr}, Name: "burst", MaxBatch: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const queries = 2000
	pairs := make([][2]graph.NodeID, queries)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(i), graph.NodeID(2 * i)}
	}
	out := make([]graph.Weight, queries)
	errs := make([]error, queries)
	c.DistanceBatch(pairs, out, errs)
	for i := range pairs {
		if errs[i] != nil {
			t.Fatalf("pair %d: %v", i, errs[i])
		}
		if want := graph.Weight(i); out[i] != want {
			t.Fatalf("pair %d: got %d want %d", i, out[i], want)
		}
	}
	st := c.Stats()
	if st.Frames == 0 || st.Frames >= st.Queries/4 {
		t.Errorf("poor coalescing: %d frames for %d queries", st.Frames, st.Queries)
	}
}

// stallServer accepts wire connections and reads frames forever without
// ever answering — the pathological slow replica.
func stallServer(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, c) }()
		}
	}()
	return ln.Addr().String()
}

// TestClientHedgesStalledReplica pins the hedging chaos case: one
// replica swallows requests, the other answers; hedges fire and every
// query still resolves correctly, exactly once.
func TestClientHedgesStalledReplica(t *testing.T) {
	idx := &indextest.Fixed{N: 100000}
	_, _, goodAddr := startNode(t, idx, server.Options{Shards: 2})
	stallAddr := stallServer(t)
	c, err := New(Options{
		Replicas:   []string{stallAddr, goodAddr},
		Name:       "hedger",
		Timeout:    5 * time.Second,
		HedgeAfter: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		u, v := graph.NodeID(i), graph.NodeID(3*i+7)
		got, err := c.Distance(u, v)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if want := graph.Weight(2*i + 7); got != want {
			t.Fatalf("query %d: got %d want %d", i, got, want)
		}
	}
	st := c.Stats()
	if st.Hedges == 0 {
		t.Errorf("no hedges fired against a stalled replica (stats %+v)", st)
	}
	if st.HedgeWins == 0 {
		t.Errorf("no hedge wins recorded (stats %+v)", st)
	}
	if st.Queries != 10 {
		t.Errorf("queries = %d, want exactly 10 (exactly-once accounting)", st.Queries)
	}
}

// echoResults answers every query of a frame as the Fixed index would:
// distance |u-v|.
func echoResults(qs []wire.Query) []wire.Result {
	rs := make([]wire.Result, len(qs))
	for i, q := range qs {
		d := q.V - q.U
		if d < 0 {
			d = -d
		}
		rs[i] = wire.Result{Kind: q.Kind, Status: wire.StatusOK, Dist: graph.Weight(d), Far: -1}
	}
	return rs
}

// fakeReplica is a scripted wire server. For each request frame — numbered
// from 0 across all connections — handle returns the results to reply
// with (nil swallows the frame: read, never answered) and whether to
// hang up the connection afterwards. Frames on one connection are
// handled in order.
func fakeReplica(t testing.TB, handle func(frame int, qs []wire.Query) (rs []wire.Result, hangup bool)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var frames atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				var buf []byte
				for {
					kind, payload, err := wire.ReadFrame(br, &buf, 0)
					if err != nil {
						return
					}
					if kind != wire.FrameRequest {
						continue
					}
					id, qs, err := wire.ParseRequest(payload, nil)
					if err != nil {
						return
					}
					rs, hangup := handle(int(frames.Add(1)-1), qs)
					if rs != nil {
						frame, err := wire.AppendReply(nil, id, rs)
						if err != nil {
							return
						}
						if _, err := c.Write(frame); err != nil {
							return
						}
					}
					if hangup {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// slowServer answers every distance query correctly (|u-v|) but only
// after delay — slow enough to lose every hedge race, so its late
// answers must be dropped by the exactly-once accounting.
func slowServer(t testing.TB, delay time.Duration) string {
	return fakeReplica(t, func(_ int, qs []wire.Query) ([]wire.Result, bool) {
		time.Sleep(delay)
		return echoResults(qs), false
	})
}

// TestClientLateAnswersDropped pairs a slow-but-correct replica with a
// fast one: hedges win, and the slow replica's late answers are counted
// as drops, never delivered twice.
func TestClientLateAnswersDropped(t *testing.T) {
	idx := &indextest.Fixed{N: 100000}
	_, _, fastAddr := startNode(t, idx, server.Options{Shards: 2})
	slowAddr := slowServer(t, 250*time.Millisecond)
	c, err := New(Options{
		Replicas:   []string{slowAddr, fastAddr},
		Name:       "dropper",
		Timeout:    5 * time.Second,
		HedgeAfter: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 6; i++ {
		got, err := c.Distance(graph.NodeID(i), graph.NodeID(10*i))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if want := graph.Weight(9 * i); got != want {
			t.Fatalf("query %d: got %d want %d", i, got, want)
		}
	}
	// The slow replica's answers arrive ~230ms after each hedge win;
	// wait for them to land and be dropped.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().LateDrops == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no late drops recorded (stats %+v)", c.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := c.Stats(); st.Queries != 6 {
		t.Errorf("queries = %d, want exactly 6", st.Queries)
	}
}

// TestClientReplicaKillMidBatch is the kill-chaos satellite: a single
// replica's connections are severed mid-traffic. Requirements pinned:
// zero wrong answers, and an error count bounded by the in-flight
// window around the kill (the client re-dials and keeps serving).
func TestClientReplicaKillMidBatch(t *testing.T) {
	idx := &indextest.Fixed{N: 1 << 20, Delay: 100 * time.Microsecond}
	_, door, addr := startNode(t, idx, server.Options{Shards: 4, QueueDepth: 1024})
	c, err := New(Options{Replicas: []string{addr}, Name: "chaos", Timeout: 3 * time.Second, QueueDepth: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const workers = 32
	var wrong, failed, ok atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := graph.NodeID((w*131071 + i*7919) % (1 << 20))
				v := graph.NodeID((w*524287 + i*104729) % (1 << 20))
				got, err := c.Distance(u, v)
				if err != nil {
					failed.Add(1)
					continue
				}
				want := v - u
				if want < 0 {
					want = -want
				}
				if got != graph.Weight(want) {
					wrong.Add(1)
					return
				}
				ok.Add(1)
			}
		}(w)
	}
	time.Sleep(150 * time.Millisecond)
	door.Kill() // sever every connection mid-batch
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if wrong.Load() != 0 {
		t.Fatalf("%d wrong answers after replica kill", wrong.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no queries succeeded")
	}
	// Bounded error rate: only requests in flight around the kill (≤ one
	// per worker, plus one collector batch) may fail; everything after
	// the re-dial must succeed.
	bound := uint64(workers + 2*64)
	if failed.Load() > bound {
		t.Errorf("%d failed queries, want ≤ %d (in-flight window)", failed.Load(), bound)
	}
	if failed.Load() == 0 {
		t.Log("note: kill landed between batches; no errors observed")
	}
	st := c.Stats()
	if st.TransportErrors == 0 {
		t.Errorf("kill left no transport-error trace (stats %+v)", st)
	}
}

// TestClientPoolExhaustionTyped pins the typed-error satellite: with a
// starved collector queue, surplus submissions answer ErrPoolExhausted
// immediately instead of blocking.
func TestClientPoolExhaustionTyped(t *testing.T) {
	stallAddr := stallServer(t)
	c, err := New(Options{
		Replicas:   []string{stallAddr},
		Name:       "exhauster",
		QueueDepth: 1,
		Timeout:    500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const workers = 64
	var exhausted atomic.Uint64
	var slowest atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			_, err := c.Distance(1, 2)
			el := time.Since(start)
			for {
				old := slowest.Load()
				if int64(el) <= old || slowest.CompareAndSwap(old, int64(el)) {
					break
				}
			}
			if errors.Is(err, ErrPoolExhausted) {
				exhausted.Add(1)
				if el > 200*time.Millisecond {
					t.Errorf("ErrPoolExhausted took %v, want immediate", el)
				}
			}
		}()
	}
	wg.Wait()
	if exhausted.Load() == 0 {
		t.Fatalf("no ErrPoolExhausted among %d concurrent submits on a depth-1 queue (stats %+v)", workers, c.Stats())
	}
	// Nothing may block past the client deadline — "instead of blocking
	// forever".
	if got := time.Duration(slowest.Load()); got > 2*time.Second {
		t.Errorf("slowest call %v, want bounded by the deadline", got)
	}
}

// TestClientNoReplicas checks the typed error when the whole replica
// set is unreachable.
func TestClientNoReplicas(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here anymore
	c, err := New(Options{Replicas: []string{addr}, Name: "lost", Timeout: time.Second, DownFor: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// First call eats the dial failure (a transport error)…
	if _, err := c.Distance(1, 2); err == nil {
		t.Fatal("query against nothing succeeded")
	}
	// …which marks the replica down; from then on it's the typed verdict.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.Distance(1, 2)
		if errors.Is(err, ErrNoReplicas) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw ErrNoReplicas, last err %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientOverloadSurfaces checks that a replica's admission verdict
// is final: the client reports wire.ErrOverloaded without retrying the
// other replica (hedging around shedding would defeat fleet-wide
// admission).
func TestClientOverloadSurfaces(t *testing.T) {
	idx := &indextest.Fixed{N: 1000}
	adm := &flowctl.Options{MaxDrop: 1, Inc: 1}
	srvA, _, addrA := startNode(t, idx, server.Options{Shards: 1, Admission: adm})
	_, _, addrB := startNode(t, idx, server.Options{Shards: 1, Admission: adm})
	srvA.AdmissionController().OnQueueFull("flooder")
	c, err := New(Options{Replicas: []string{addrA, addrB}, Name: "flooder", Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sawOverload := false
	for i := 0; i < 20 && !sawOverload; i++ {
		_, qerr := c.Distance(1, 2)
		sawOverload = errors.Is(qerr, wire.ErrOverloaded)
	}
	if !sawOverload {
		t.Fatal("flooder never saw wire.ErrOverloaded")
	}
	if st := c.Stats(); st.Retries != 0 {
		t.Errorf("client retried an admission verdict: %d retries", st.Retries)
	}
}

// batchPairs returns n distinct pairs whose Fixed-index distance is
// wantDist(k).
func batchPairs(n int) [][2]graph.NodeID {
	pairs := make([][2]graph.NodeID, n)
	for k := range pairs {
		pairs[k] = [2]graph.NodeID{graph.NodeID(k), graph.NodeID(3*k + 5)}
	}
	return pairs
}

func wantDist(k int) graph.Weight { return graph.Weight(2*k + 5) }

// runBatch issues pairs as one DistanceBatch and returns the answers.
func runBatch(c *Client, pairs [][2]graph.NodeID) ([]graph.Weight, []error) {
	out := make([]graph.Weight, len(pairs))
	errs := make([]error, len(pairs))
	c.DistanceBatch(pairs, out, errs)
	return out, errs
}

// checkBatch fails the test unless pairs [lo,hi) were answered correctly.
func checkBatch(t *testing.T, out []graph.Weight, errs []error, lo, hi int) {
	t.Helper()
	for k := lo; k < hi; k++ {
		if errs[k] != nil {
			t.Fatalf("pair %d: %v", k, errs[k])
		}
		if out[k] != wantDist(k) {
			t.Fatalf("pair %d: got %d want %d", k, out[k], wantDist(k))
		}
	}
}

// TestBatchIsOneFrame pins the submission model's headline: on an idle
// client, a caller's batch of up to MaxBatch pairs travels as exactly
// one frame, and the single-query verbs are the batch of one.
func TestBatchIsOneFrame(t *testing.T) {
	idx := &indextest.Fixed{N: 100000}
	_, _, addr := startNode(t, idx, server.Options{Shards: 2})
	c, err := New(Options{Replicas: []string{addr}, Name: "framer"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, n := range []int{1, 16, 64} {
		before := c.Stats()
		out, errs := runBatch(c, batchPairs(n))
		checkBatch(t, out, errs, 0, n)
		st := c.Stats()
		if got := st.Frames - before.Frames; got != 1 {
			t.Errorf("batch of %d: %d frames, want exactly 1", n, got)
		}
		if got := st.Queries - before.Queries; got != uint64(n) {
			t.Errorf("batch of %d: %d queries counted, want %d", n, got, n)
		}
	}
	before := c.Stats()
	if _, err := c.Distance(4, 9); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Frames-before.Frames != 1 || st.Queries-before.Queries != 1 {
		t.Errorf("Distance: %d frames / %d queries, want 1 / 1", st.Frames-before.Frames, st.Queries-before.Queries)
	}
}

// TestBatchLargerThanQueueDepth pins the fix for self-inflicted pool
// exhaustion: under default options a batch far larger than QueueDepth
// is still one submission, so none of its pairs can be refused by the
// caller's own queue, and it splits into frames only at MaxBatch.
func TestBatchLargerThanQueueDepth(t *testing.T) {
	idx := &indextest.Fixed{N: 100000}
	_, _, addr := startNode(t, idx, server.Options{Shards: 4, QueueDepth: 1024})
	c, err := New(Options{Replicas: []string{addr}, Name: "big"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 2000
	out, errs := runBatch(c, batchPairs(n))
	checkBatch(t, out, errs, 0, n)
	st := c.Stats()
	if st.PoolExhausted != 0 {
		t.Errorf("%d pool-exhausted answers for a single caller's batch", st.PoolExhausted)
	}
	if want := uint64((n + 63) / 64); st.Frames != want {
		t.Errorf("%d frames for %d pairs, want exactly %d", st.Frames, n, want)
	}
}

// TestSinglesAndBatchesShareFrames checks that the collector still
// coalesces across callers: submissions of mixed sizes that queue up
// behind a busy collector leave in shared frames, not one frame each.
// The collector is held at its first flush (it needs the pool lock to
// pick a connection) while the rest are queued, which makes the frame
// count exact: at most the held frame plus one for everything queued.
func TestSinglesAndBatchesShareFrames(t *testing.T) {
	idx := &indextest.Fixed{N: 100000}
	_, _, addr := startNode(t, idx, server.Options{Shards: 2})
	c, err := New(Options{Replicas: []string{addr}, Name: "sharer"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep := c.reps[0]
	rep.mu.Lock()
	sizes := []int{1, 4, 1, 16, 1, 1, 8, 1, 4, 1} // 38 queries ≤ MaxBatch
	var subs []*submission
	for _, n := range sizes {
		calls := make([]call, n)
		for k, p := range batchPairs(n) {
			calls[k].q = wire.Query{Kind: wire.QDist, U: p[0], V: p[1]}
		}
		sub := newSubmission(calls)
		tried := 0
		if err := c.submit(sub, 0, &tried, false); err != nil {
			rep.mu.Unlock()
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	rep.mu.Unlock()
	for _, sub := range subs {
		select {
		case <-sub.done:
		case <-time.After(5 * time.Second):
			t.Fatal("submission never resolved")
		}
		for k := range sub.calls {
			if cl := &sub.calls[k]; cl.err != nil || cl.res.Dist != wantDist(k) {
				t.Fatalf("call %d of %d: dist %d err %v, want %d", k, len(sub.calls), cl.res.Dist, cl.err, wantDist(k))
			}
		}
	}
	if st := c.Stats(); st.Frames == 0 || st.Frames > 2 {
		t.Errorf("%d submissions left in %d frames, want ≤ 2", len(sizes), st.Frames)
	}
}

// TestBatchHedgesOnlyPendingPairs pins per-query hedging inside a batch:
// the first replica answers the batch's first frame and swallows its
// second, so the hedge must duplicate exactly the second frame's pairs
// onto the other replica — every pair answered once, none twice.
func TestBatchHedgesOnlyPendingPairs(t *testing.T) {
	const maxBatch = 8
	idx := &indextest.Fixed{N: 100000}
	good, _, goodAddr := startNode(t, idx, server.Options{Shards: 2})
	halfAddr := fakeReplica(t, func(frame int, qs []wire.Query) ([]wire.Result, bool) {
		if frame == 0 {
			return echoResults(qs), false
		}
		return nil, false
	})
	// The first call starts at replica 1 (the round-robin cursor is
	// pre-incremented), so the half-answering replica goes second.
	c, err := New(Options{
		Replicas:   []string{goodAddr, halfAddr},
		Name:       "half-hedger",
		PoolSize:   1,
		MaxBatch:   maxBatch,
		Timeout:    5 * time.Second,
		HedgeAfter: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, errs := runBatch(c, batchPairs(2*maxBatch))
	checkBatch(t, out, errs, 0, 2*maxBatch)
	st := c.Stats()
	if st.Hedges != maxBatch || st.HedgeWins != maxBatch {
		t.Errorf("hedges=%d wins=%d, want %d each: only the unanswered frame's pairs (stats %+v)", st.Hedges, st.HedgeWins, maxBatch, st)
	}
	if got := good.Stats().Served; got != maxBatch {
		t.Errorf("hedge replica served %d queries, want %d", got, maxBatch)
	}
	if st.Queries != 2*maxBatch || st.LateDrops != 0 || st.Retries != 0 {
		t.Errorf("accounting off: %+v", st)
	}
}

// TestBatchLateAnswersDropped is the batch form of the slow-replica
// case: every pair of the batch is hedged and won by the fast replica,
// and the slow replica's answers — one per pair — are all dropped and
// counted, never delivered.
func TestBatchLateAnswersDropped(t *testing.T) {
	idx := &indextest.Fixed{N: 100000}
	_, _, fastAddr := startNode(t, idx, server.Options{Shards: 2})
	slowAddr := slowServer(t, 250*time.Millisecond)
	c, err := New(Options{
		Replicas:   []string{fastAddr, slowAddr},
		Name:       "batch-dropper",
		Timeout:    5 * time.Second,
		HedgeAfter: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 16
	out, errs := runBatch(c, batchPairs(n))
	checkBatch(t, out, errs, 0, n)
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().LateDrops < n {
		if time.Now().After(deadline) {
			t.Fatalf("late drops never reached %d (stats %+v)", n, c.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := c.Stats(); st.LateDrops != n || st.Hedges != n || st.HedgeWins != n || st.Queries != n {
		t.Errorf("want %d hedges, wins, late drops and queries, got %+v", n, st)
	}
}

// TestBatchFailsOverOnlyUnresolvedPairs kills a replica in the middle of
// a three-frame batch: it answers the first frame, reads the other two
// and hangs up. Only the two unanswered frames' pairs may be re-sent to
// the surviving replica, and every pair resolves exactly once.
func TestBatchFailsOverOnlyUnresolvedPairs(t *testing.T) {
	const maxBatch = 8
	idx := &indextest.Fixed{N: 100000}
	good, _, goodAddr := startNode(t, idx, server.Options{Shards: 2})
	dyingAddr := fakeReplica(t, func(frame int, qs []wire.Query) ([]wire.Result, bool) {
		if frame == 0 {
			return echoResults(qs), false
		}
		return nil, frame == 2
	})
	c, err := New(Options{
		Replicas: []string{goodAddr, dyingAddr}, // the first call starts at replica 1
		Name:     "failover",
		PoolSize: 1,
		MaxBatch: maxBatch,
		Timeout:  5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, errs := runBatch(c, batchPairs(3*maxBatch))
	checkBatch(t, out, errs, 0, 3*maxBatch)
	st := c.Stats()
	if st.Retries != 2*maxBatch {
		t.Errorf("retries = %d, want %d (the unresolved pairs only; stats %+v)", st.Retries, 2*maxBatch, st)
	}
	if got := good.Stats().Served; got != 2*maxBatch {
		t.Errorf("surviving replica served %d queries, want %d", got, 2*maxBatch)
	}
	if st.Queries != 3*maxBatch || st.LateDrops != 0 || st.TransportErrors != 1 {
		t.Errorf("accounting off: %+v", st)
	}
}

// TestBatchDeadlineFailsPendingPairs checks the deadline's per-query
// cut: the replica answers the batch's first frame and swallows the
// second, so exactly the second frame's pairs get ErrDeadline, and the
// call returns when the deadline fires rather than hanging on them.
func TestBatchDeadlineFailsPendingPairs(t *testing.T) {
	const maxBatch = 8
	halfAddr := fakeReplica(t, func(frame int, qs []wire.Query) ([]wire.Result, bool) {
		if frame == 0 {
			return echoResults(qs), false
		}
		return nil, false
	})
	const timeout = 150 * time.Millisecond
	c, err := New(Options{Replicas: []string{halfAddr}, Name: "late", PoolSize: 1, MaxBatch: maxBatch, Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	out, errs := runBatch(c, batchPairs(2*maxBatch))
	elapsed := time.Since(start)
	checkBatch(t, out, errs, 0, maxBatch)
	for k := maxBatch; k < 2*maxBatch; k++ {
		if !errors.Is(errs[k], ErrDeadline) {
			t.Errorf("pair %d: err %v, want ErrDeadline", k, errs[k])
		}
		if out[k] != graph.Infinity {
			t.Errorf("pair %d: distance %d alongside an error, want Infinity", k, out[k])
		}
	}
	if elapsed < timeout || elapsed > timeout+time.Second {
		t.Errorf("batch returned after %v, want the %v deadline", elapsed, timeout)
	}
	if st := c.Stats(); st.Queries != 2*maxBatch {
		t.Errorf("queries = %d, want %d", st.Queries, 2*maxBatch)
	}
}

// TestBatchMixedStatuses checks that statuses stay per pair: one shed
// pair and one bad pair in a frame fail alone, their frame-mates are
// answered, and a replica's verdict is not retried.
func TestBatchMixedStatuses(t *testing.T) {
	const shed, bad = 3, 11
	addr := fakeReplica(t, func(_ int, qs []wire.Query) ([]wire.Result, bool) {
		rs := echoResults(qs)
		for i, q := range qs {
			switch q.U {
			case shed:
				rs[i] = wire.Result{Kind: q.Kind, Status: wire.StatusOverloaded}
			case bad:
				rs[i] = wire.Result{Kind: q.Kind, Status: wire.StatusBadRequest}
			}
		}
		return rs, false
	})
	other := fakeReplica(t, func(_ int, qs []wire.Query) ([]wire.Result, bool) {
		t.Error("a final verdict was retried on the other replica")
		return echoResults(qs), false
	})
	c, err := New(Options{Replicas: []string{other, addr}, Name: "mixed", Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 16
	out, errs := runBatch(c, batchPairs(n))
	for k := 0; k < n; k++ {
		switch k {
		case shed:
			if !errors.Is(errs[k], wire.ErrOverloaded) || out[k] != graph.Infinity {
				t.Errorf("shed pair: dist %d err %v, want Infinity / wire.ErrOverloaded", out[k], errs[k])
			}
		case bad:
			if !errors.Is(errs[k], wire.ErrBadRequest) || out[k] != graph.Infinity {
				t.Errorf("bad pair: dist %d err %v, want Infinity / wire.ErrBadRequest", out[k], errs[k])
			}
		default:
			checkBatch(t, out, errs, k, k+1)
		}
	}
	if st := c.Stats(); st.Frames != 1 || st.Retries != 0 || st.Queries != n {
		t.Errorf("want 1 frame, 0 retries, %d queries, got %+v", n, st)
	}
}

// TestBatchNegativeIDFailsAlone checks the caller-error form of the
// same promise: a pair the wire cannot even frame is refused on its
// own, without failing the frame it would have ridden in or costing the
// connection.
func TestBatchNegativeIDFailsAlone(t *testing.T) {
	idx := &indextest.Fixed{N: 100000}
	_, _, addr := startNode(t, idx, server.Options{Shards: 2})
	c, err := New(Options{Replicas: []string{addr}, Name: "negative"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n, bad = 16, 6
	pairs := batchPairs(n)
	pairs[bad][1] = -1
	out, errs := runBatch(c, pairs)
	if !errors.Is(errs[bad], wire.ErrBadRequest) || out[bad] != graph.Infinity {
		t.Errorf("negative pair: dist %d err %v, want Infinity / wire.ErrBadRequest", out[bad], errs[bad])
	}
	checkBatch(t, out, errs, 0, bad)
	checkBatch(t, out, errs, bad+1, n)
	if st := c.Stats(); st.Frames != 1 || st.TransportErrors != 0 || st.Queries != n {
		t.Errorf("want 1 frame, 0 transport errors, %d queries, got %+v", n, st)
	}
	if _, err := c.Distance(-4, 2); !errors.Is(err, wire.ErrBadRequest) {
		t.Errorf("Distance(-4, 2): %v, want wire.ErrBadRequest", err)
	}
}

// TestTransportErrorCountedOnce pins Stats.TransportErrors to one per
// dead connection. The connection is broken on the write side only (the
// replica never hangs up, so the reader notices nothing first): the
// next frame's write fails, and that failure and the kill it triggers
// must count as one event, not two.
func TestTransportErrorCountedOnce(t *testing.T) {
	addr := stallServer(t)
	c, err := New(Options{Replicas: []string{addr}, Name: "once", PoolSize: 1, Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Distance(1, 2); !errors.Is(err, ErrDeadline) {
		t.Fatalf("query against a stalled replica: %v, want ErrDeadline", err)
	}
	if st := c.Stats(); st.TransportErrors != 0 {
		t.Fatalf("transport errors before the break: %d", st.TransportErrors)
	}
	rep := c.reps[0]
	rep.mu.Lock()
	rc := rep.conns[0]
	rep.mu.Unlock()
	if err := rc.nc.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Distance(1, 2); err == nil || errors.Is(err, ErrDeadline) {
		t.Fatalf("query on a broken connection: %v, want a transport error", err)
	}
	if st := c.Stats(); st.TransportErrors != 1 {
		t.Errorf("one dead connection counted %d times", st.TransportErrors)
	}
}

// TestBatchAllocs pins the per-query allocation budget of the batch
// path — caller, collector, reader and the in-process replica together
// — at batch 16.
func TestBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	idx := &indextest.Fixed{N: 100000}
	_, _, addr := startNode(t, idx, server.Options{Shards: 2})
	c, err := New(Options{Replicas: []string{addr}, Name: "allocs"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 16
	pairs := batchPairs(n)
	out := make([]graph.Weight, n)
	errs := make([]error, n)
	perBatch := testing.AllocsPerRun(200, func() { c.DistanceBatch(pairs, out, errs) })
	checkBatch(t, out, errs, 0, n)
	if perQuery := perBatch / n; perQuery > 2 {
		t.Errorf("%.2f allocs/query at batch %d (%.0f per batch), want ≤ 2", perQuery, n, perBatch)
	}
}
