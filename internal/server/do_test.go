package server

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hublab/internal/flowctl"
	"hublab/internal/graph"
	"hublab/internal/index/indextest"
	"hublab/internal/wire"
)

// mixedWave builds a wave of n queries over [0,limit): mostly distances,
// with a path and an eccentricity mixed in from the third query on.
func mixedWave(n, limit int) []wire.Query {
	qs := make([]wire.Query, n)
	for i := range qs {
		u, v := graph.NodeID(i*7%limit), graph.NodeID((i*31+5)%limit)
		qs[i] = wire.Query{Kind: wire.QDist, U: u, V: v}
		switch {
		case i >= 2 && i%8 == 2:
			qs[i].Kind = wire.QPath
		case i >= 2 && i%8 == 5:
			qs[i] = wire.Query{Kind: wire.QEcc, U: u}
		}
	}
	return qs
}

// TestDoMixedWave checks a mixed-kind wave against the adapters query
// by query: Do is the only path either takes, so the answers must be
// identical, and every query of the wave is accounted once.
func TestDoMixedWave(t *testing.T) {
	g, idx := buildIndex(t, 200, 360, 3)
	srv := New(idx, Options{Shards: 3})
	defer srv.Close()
	qs := mixedWave(64, g.NumNodes())
	rs := make([]wire.Result, len(qs))
	srv.Do("wave", qs, rs)
	for i, q := range qs {
		if rs[i].Status != wire.StatusOK || rs[i].Kind != q.Kind {
			t.Fatalf("slot %d: kind %d status %d", i, rs[i].Kind, rs[i].Status)
		}
		switch q.Kind {
		case wire.QDist:
			if want := idx.Distance(q.U, q.V); rs[i].Dist != want {
				t.Fatalf("slot %d: d(%d,%d) = %d, index %d", i, q.U, q.V, rs[i].Dist, want)
			}
		case wire.QPath:
			if msg := indextest.CheckPath(g, q.U, q.V, rs[i].Path, idx.Distance(q.U, q.V)); msg != "" {
				t.Fatalf("slot %d: path(%d,%d): %s", i, q.U, q.V, msg)
			}
		case wire.QEcc:
			ecc, err := srv.TryEccentricity("wave", q.U)
			if err != nil || rs[i].Dist != ecc || idx.Distance(q.U, rs[i].Far) != ecc {
				t.Fatalf("slot %d: ecc(%d) = (%d, far %d), adapter %d/%v", i, q.U, rs[i].Dist, rs[i].Far, ecc, err)
			}
		}
	}
	if st := srv.Stats(); st.Served < uint64(len(qs)) || st.Rejected+st.Shed+st.Faulted+st.Timeouts != 0 {
		t.Fatalf("wave accounting: %+v", st)
	}
}

// TestDoRangeChecksEveryKind: ids outside the served snapshot — too
// large or negative — resolve StatusBadRequest on every verb, never an
// "unreachable" distance and never a backend error, while their wave
// mates are answered. A refusal is an answer: it counts as Served.
func TestDoRangeChecksEveryKind(t *testing.T) {
	_, idx := buildIndex(t, 60, 110, 2)
	srv := New(idx, Options{Shards: 2, HotCache: 64})
	defer srv.Close()
	qs := []wire.Query{
		{Kind: wire.QDist, U: 5, V: 99999},
		{Kind: wire.QDist, U: -1, V: 3},
		{Kind: wire.QPath, U: 0, V: 60},
		{Kind: wire.QPath, U: -7, V: 2},
		{Kind: wire.QEcc, U: 60},
		{Kind: wire.QEcc, U: -1},
		{Kind: wire.QDist, U: 5, V: 59},
		{Kind: wire.QEcc, U: 59, V: 99999}, // an eccentricity has no second id to check
	}
	rs := make([]wire.Result, len(qs))
	for round := 0; round < 2; round++ { // the second round meets a warm hot cache
		srv.Do("c", qs, rs)
		for i := range qs {
			want := uint8(wire.StatusBadRequest)
			if i >= 6 {
				want = wire.StatusOK
			}
			if rs[i].Status != want {
				t.Fatalf("round %d slot %d (%+v): status %d, want %d", round, i, qs[i], rs[i].Status, want)
			}
			if want != wire.StatusOK && (rs[i].Dist != graph.Infinity || rs[i].Far != -1 || len(rs[i].Path) != 0) {
				t.Fatalf("round %d slot %d: refusal carries an answer: %+v", round, i, rs[i])
			}
		}
	}
	if _, err := srv.TryQuery("c", 5, 99999); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("TryQuery out of range: %v, want ErrBadRequest", err)
	}
	if st := srv.Stats(); st.Served != 2*uint64(len(qs))+1 || st.Faulted != 0 {
		t.Fatalf("refusals must count as answered: %+v", st)
	}
}

// TestDoRangeCheckSurvivesReload is the reload TOCTOU pin: queries with
// ids valid on the large index but not the small one stream through Do
// while SwapRetire flips between the two. Whichever snapshot serves a
// query is the one that range-checked it, so the only possible verdicts
// are an answer or StatusBadRequest — never StatusInternal from a
// backend handed an id it was not checked against — and the accounting
// identity holds query by query.
func TestDoRangeCheckSurvivesReload(t *testing.T) {
	gBig, big := buildIndex(t, 200, 360, 7)
	_, small := buildIndex(t, 40, 70, 8)
	srv := New(big, Options{Shards: 2})
	defer srv.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var submitted [4]uint64
	for c := range submitted {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			qs := mixedWave(16, gBig.NumNodes())
			rs := make([]wire.Result, len(qs))
			for {
				select {
				case <-stop:
					return
				default:
				}
				srv.Do("c", qs, rs)
				submitted[c] += uint64(len(qs))
				for i := range rs {
					if s := rs[i].Status; s != wire.StatusOK && s != wire.StatusBadRequest {
						t.Errorf("query %+v across a reload: status %d", qs[i], s)
						return
					}
				}
			}
		}(c)
	}
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			srv.SwapRetire(small)
		} else {
			srv.SwapRetire(big)
		}
		time.Sleep(200 * time.Microsecond)
	}
	srv.SwapRetire(small)
	close(stop)
	wg.Wait()
	// Mid-stream is over: on the small index the large ids are refused.
	if _, err := srv.TryPath("c", 0, 150, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("TryPath(0,150) on the 40-vertex index: %v, want ErrBadRequest", err)
	}
	var total uint64
	for _, n := range submitted {
		total += n
	}
	st := srv.Stats()
	if got := st.Served + st.Rejected + st.Shed + st.Faulted + st.Timeouts; got != total+1 {
		t.Fatalf("accounting identity: %d counted, %d submitted (%+v)", got, total+1, st)
	}
}

// TestDoOneDeadlineBoundsTheWave: the deadline of a Do call covers the
// capability warm and every query behind it. A path query whose warm
// stalls past the deadline times out, and so does the rest of its wave
// — without a second wait on the timer that already fired.
func TestDoOneDeadlineBoundsTheWave(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	w := &warmable{Fixed: indextest.Fixed{N: 16}, warmGate: gate}
	srv := New(w, Options{Shards: 1, QueryTimeout: 30 * time.Millisecond})
	defer srv.Close()
	qs := []wire.Query{{Kind: wire.QDist, U: 1, V: 2}, {Kind: wire.QPath, U: 1, V: 2}, {Kind: wire.QDist, U: 3, V: 4}, {Kind: wire.QDist, U: 5, V: 6}}
	rs := make([]wire.Result, len(qs))
	start := time.Now()
	srv.Do("c", qs, rs)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("wave took %v against a 30ms deadline", elapsed)
	}
	if rs[0].Status != wire.StatusOK || rs[0].Dist != 1 {
		t.Fatalf("the distance ahead of the stalled warm: %+v", rs[0])
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Status != wire.StatusTimeout {
			t.Fatalf("slot %d: status %d, want StatusTimeout", i, rs[i].Status)
		}
	}
	if st := srv.Stats(); st.Served != 1 || st.Timeouts != 3 {
		t.Fatalf("served=%d timeouts=%d, want 1/3", st.Served, st.Timeouts)
	}
}

// TestDoZeroAlloc pins the core's allocation contract at wave sizes 1
// and 16, both when the wave is served and when admission sheds all of
// it: envelopes, wave scratch and the deadline timer are all pooled.
func TestDoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; allocation counts are meaningless")
	}
	g, idx := buildIndex(t, 200, 400, 5)
	srv := New(idx, Options{Shards: 2, Admission: &flowctl.Options{MaxDrop: 1, Inc: 1}, QueryTimeout: time.Second})
	defer srv.Close()
	srv.AdmissionController().OnQueueFull("flooder")
	for _, n := range []int{1, 16} {
		qs := mixedWave(n, g.NumNodes())
		rs := make([]wire.Result, n)
		for _, client := range []string{"polite", "flooder"} {
			want := uint8(wire.StatusOK)
			if client == "flooder" {
				want = wire.StatusOverloaded
			}
			wave := func() {
				for i := range rs {
					rs[i].Path = rs[i].Path[:0]
				}
				srv.Do(client, qs, rs)
			}
			wave() // warm the pools, the path buffers and the eccentricity index
			for i := range rs {
				if rs[i].Status != want {
					t.Fatalf("%s wave of %d, slot %d: status %d, want %d", client, n, i, rs[i].Status, want)
				}
			}
			if allocs := testing.AllocsPerRun(100, wave); allocs != 0 {
				t.Errorf("Do(%s, wave of %d) allocates %.1f/op, want 0", client, n, allocs)
			}
		}
	}
}

// TestAdaptersZeroAlloc pins that the adapters add nothing to the core:
// their [1]wire.Query / [1]wire.Result live on the stack (an escape
// would show as one allocation per call), and TryQueryBatch's typed
// scratch is pooled with the wave.
func TestAdaptersZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; allocation counts are meaningless")
	}
	_, idx := buildIndex(t, 200, 400, 5)
	srv := New(idx, Options{Shards: 2, QueryTimeout: time.Second})
	defer srv.Close()
	var buf []graph.NodeID
	pairs := make([][2]graph.NodeID, 16)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(i), graph.NodeID(199 - i)}
	}
	out, errs := make([]graph.Weight, 16), make([]error, 16)
	for name, call := range map[string]func(){
		"TryQuery":        func() { srv.TryQuery("c", 3, 177) },
		"TryPath":         func() { buf, _ = srv.TryPath("c", 3, 177, buf[:0]) },
		"TryEccentricity": func() { srv.TryEccentricity("c", 9) },
		"TryQueryBatch":   func() { srv.TryQueryBatch("c", pairs, out, errs) },
	} {
		call() // warm the pools
		if allocs := testing.AllocsPerRun(200, call); allocs != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", name, allocs)
		}
	}
}

// stackProbe is a backend that records, per Distance, AppendPath or
// Farthest call, whether the call ran on a shard worker goroutine — the
// one whose stack holds (*Server).run — or on the goroutine that
// submitted the query. With meet set, every call also waits (up to a
// few seconds) until meet calls are inside the backend at once, so
// callers that are served concurrently must be served on different
// shards; met records whether every such meeting happened.
type stackProbe struct {
	indextest.Fixed
	meet     int
	mu       sync.Mutex
	onWorker []bool
	inside   int
	met      chan struct{}
	missed   bool
}

func (p *stackProbe) record() {
	buf := make([]byte, 16<<10)
	buf = buf[:runtime.Stack(buf, false)]
	p.mu.Lock()
	p.onWorker = append(p.onWorker, bytes.Contains(buf, []byte("(*Server).run")))
	if p.meet == 0 {
		p.mu.Unlock()
		return
	}
	if p.met == nil {
		p.met = make(chan struct{})
	}
	met := p.met
	if p.inside++; p.inside == p.meet {
		close(met)
		p.met, p.inside = nil, 0
	}
	p.mu.Unlock()
	select {
	case <-met:
	case <-time.After(5 * time.Second):
		p.mu.Lock()
		p.missed = true
		p.mu.Unlock()
	}
}

func (p *stackProbe) Distance(u, v graph.NodeID) graph.Weight {
	p.record()
	return p.Fixed.Distance(u, v)
}

func (p *stackProbe) AppendPath(dst []graph.NodeID, u, v graph.NodeID) ([]graph.NodeID, error) {
	p.record()
	return append(dst, u, v), nil
}

func (p *stackProbe) Farthest(v graph.NodeID) (graph.NodeID, graph.Weight, error) {
	p.record()
	return 0, p.Fixed.Distance(v, 0), nil
}

func (p *stackProbe) Eccentricity(v graph.NodeID) (graph.Weight, error) {
	_, d, err := p.Farthest(v)
	return d, err
}

func (p *stackProbe) calls() []bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	got := p.onWorker
	p.onWorker = nil
	return got
}

// TestDoWhoServes pins the dispatch rule: a lone query with no deadline
// — a distance, a path or an eccentricity — is served on the goroutine
// that submitted it, while a deadline-bound query and every query of a
// wave are left to the shard workers. Two lone callers whose queries
// are inside the backend at the same moment are each served on their
// own goroutine: one shard is busy, so the other caller is served on
// the free one, not queued behind the first for a worker. Only a lone
// caller that finds every shard busy is queued for the worker.
func TestDoWhoServes(t *testing.T) {
	twoCallers := func(s *Server) {
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					s.TryQuery("c", graph.NodeID(c), graph.NodeID(i%16))
				}
			}(c)
		}
		wg.Wait()
	}
	for _, tc := range []struct {
		name   string
		opts   Options
		meet   int
		call   func(*Server)
		worker bool
	}{
		{"TryQuery without a deadline", Options{Shards: 2}, 0, func(s *Server) { s.TryQuery("c", 1, 5) }, false},
		{"TryPath without a deadline", Options{Shards: 2}, 0, func(s *Server) { s.TryPath("c", 1, 5, nil) }, false},
		{"TryEccentricity without a deadline", Options{Shards: 2}, 0, func(s *Server) { s.TryEccentricity("c", 5) }, false},
		{"two concurrent lone callers", Options{Shards: 2}, 2, twoCallers, false},
		{"TryQuery with a deadline", Options{Shards: 2, QueryTimeout: time.Minute}, 0, func(s *Server) { s.TryQuery("c", 1, 5) }, true},
		{"TryQueryBatch of 2", Options{Shards: 2}, 0, func(s *Server) {
			s.TryQueryBatch("c", [][2]graph.NodeID{{1, 5}, {2, 9}}, make([]graph.Weight, 2), make([]error, 2))
		}, true},
	} {
		p := &stackProbe{Fixed: indextest.Fixed{N: 16}, meet: tc.meet}
		srv := New(p, tc.opts)
		tc.call(srv)
		srv.Close()
		got := p.calls()
		if len(got) == 0 {
			t.Fatalf("%s: the backend was never called", tc.name)
		}
		if p.missed {
			t.Errorf("%s: concurrent callers never met inside the backend", tc.name)
		}
		for i, onWorker := range got {
			if onWorker != tc.worker {
				t.Errorf("%s: call %d ran on a worker = %v, want %v", tc.name, i, onWorker, tc.worker)
			}
		}
	}

	// A lone caller that finds every shard busy queues like any other
	// query: with the one shard held by a caller serving itself inside
	// the backend, a second lone caller takes the one queue slot — the
	// worker, waiting for the shard, must not hold it outside the queue —
	// a third is refused, and the queued query is served on the worker
	// once the shard is free.
	gate := make(chan struct{})
	p := &stackProbe{Fixed: indextest.Fixed{N: 16, Gate: gate}}
	srv := New(p, Options{Shards: 1, QueueDepth: 1})
	waitFor := func(what string, cond func() bool) {
		for end := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(end) {
				close(gate)
				t.Fatalf("busy shard: timed out waiting for %s", what)
			}
		}
	}
	errs := make(chan error, 2)
	lone := func(u graph.NodeID) {
		_, err := srv.TryQuery("c", u, 5)
		errs <- err
	}
	go lone(1)
	waitFor("the first caller inside the backend", func() bool { return p.Started.Load() == 1 })
	go lone(2)
	waitFor("the second caller to queue", func() bool { return srv.Stats().Queued == 1 })
	if _, err := srv.TryQuery("c", 3, 5); !errors.Is(err, ErrOverloaded) {
		t.Errorf("busy shard: third caller err = %v, want ErrOverloaded", err)
	}
	close(gate)
	for range 2 {
		if err := <-errs; err != nil {
			t.Errorf("busy shard: lone caller err = %v", err)
		}
	}
	srv.Close()
	if got, want := p.calls(), []bool{false, true}; !slices.Equal(got, want) {
		t.Errorf("busy shard: backend calls ran on a worker = %v, want %v", got, want)
	}
	if st := srv.Stats(); st.Served != 2 || st.Rejected != 1 {
		t.Errorf("busy shard: served %d, rejected %d, want 2 and 1", st.Served, st.Rejected)
	}
}

// TestDoDeadlineRacesDelivery drives the deadline-vs-delivery
// arbitration of Do against answers computed in time but delivered
// late. deliverHook holds the answer to slot i of a wave back until
// slots 0..i-1 are resolved (slot 0 until the caller's deadline fired
// and it abandoned the slot), then waits a few more cycles — an offset
// swept across the iterations — so the worker's delivery of slot i
// lands as the caller abandons it. Whichever side wins a query, it
// must be counted exactly once: Served + Timeouts equals the queries
// submitted after every call. This kills mutant M13 — the abandon
// CompareAndSwap(stPending, stAbandoned) split into a load and a store,
// which lets a delivery land between the two so the query counts as
// both served and timed out. Catching that needs two Ps running at
// once; at GOMAXPROCS 1 the test only checks the accounting.
func TestDoDeadlineRacesDelivery(t *testing.T) {
	const wave, iters = 8, 1000
	srv := New(&indextest.Fixed{N: 64}, Options{Shards: 1, QueryTimeout: 200 * time.Microsecond})
	sh := srv.shards[0]
	parallel := runtime.GOMAXPROCS(0) > 1
	var base, offset atomic.Uint64
	var delivers atomic.Int64
	// resolved counts the slots of the current wave either side has won.
	resolved := func() uint64 { return srv.timeouts.Load() + sh.served.Load() - base.Load() }
	deliverHook = func(r *request) {
		for resolved() < uint64(max(r.u, 1)) {
			if !parallel {
				runtime.Gosched()
			}
		}
		for i := offset.Load(); i > 0; i-- {
			spinSink++
		}
		delivers.Add(1)
	}
	defer func() {
		srv.Close()
		deliverHook = nil
	}()
	qs := make([]wire.Query, wave)
	for i := range qs {
		qs[i] = wire.Query{Kind: wire.QDist, U: graph.NodeID(i), V: graph.NodeID(2*i + 1)}
	}
	rs := make([]wire.Result, wave)
	for it := 0; it < iters; it++ {
		base.Store(srv.timeouts.Load() + sh.served.Load())
		offset.Store(uint64(it % 128))
		srv.Do("c", qs, rs)
		for i := range rs {
			switch rs[i].Status {
			case wire.StatusTimeout:
			case wire.StatusOK:
				if want := graph.Weight(i + 1); rs[i].Dist != want {
					t.Fatalf("iteration %d slot %d: d = %d, want %d", it, i, rs[i].Dist, want)
				}
			default:
				t.Fatalf("iteration %d slot %d: status %d", it, i, rs[i].Status)
			}
		}
		// Let the worker finish the wave before the next one starts, so
		// every iteration races on a drained queue.
		for delivers.Load() < int64(wave*(it+1)) {
			runtime.Gosched()
		}
		st := srv.Stats()
		if got, want := st.Served+st.Timeouts, uint64(wave*(it+1)); got != want {
			t.Fatalf("iteration %d: served %d + timeouts %d = %d, want %d submitted", it, st.Served, st.Timeouts, got, want)
		}
	}
}

// spinSink is the hook's delay loop's side effect; only the worker
// writes it, one wave at a time.
var spinSink uint64
