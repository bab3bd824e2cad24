package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"time"

	"hublab/internal/flowctl"
	"hublab/internal/graph"
	"hublab/internal/hotcache"
	"hublab/internal/hub"
	"hublab/internal/index"
	"hublab/internal/pll"
	"hublab/internal/server"
	"hublab/internal/wire"
)

// Replay sizes of the traced run. Every section first replays calls
// [0, n) untimed (caches fill, pages fault in) and then times calls
// [n, 2n) of the same stream with a single caller.
const (
	traceQueries   = 1 << 15
	traceHTTPCalls = 1 << 12
	traceSingles   = 1 << 11
	tracePaths     = 1 << 10
	traceEccs      = 16
	waveHub        = 64
	waveDoor       = 16
)

// nsPer is the time since t in nanoseconds, per each of n operations.
func nsPer(t time.Time, n int) float64 { return float64(time.Since(t).Nanoseconds()) / float64(n) }

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// probe accumulates a traced run's verdict on the answers it saw.
type probe struct {
	fx        *fixture
	n         int // timed queries per section
	attempted uint64
	wrong     uint64
	problems  []string
}

// pairsAt returns the pool indices and pairs of stream positions
// [from, from+count).
func (p *probe) pairsAt(from, count int) ([]int, [][2]graph.NodeID) {
	idx := make([]int, count)
	pairs := make([][2]graph.NodeID, count)
	for i := range idx {
		idx[i] = p.fx.st.at(from + i)
		pairs[i] = p.fx.st.pool[idx[i]]
	}
	return idx, pairs
}

func (p *probe) check(idx []int, got []graph.Weight) {
	p.attempted += uint64(len(idx))
	for i, k := range idx {
		if got[i] != p.fx.st.truth[k] {
			p.wrong++
		}
	}
}

func (p *probe) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// stack is the serving stack of the traced run: a server over the
// reopened index, the binary door, and a client. tr is nil for the
// plain stack (no spy anywhere) and set for the spied one.
type stack struct {
	srv *server.Server
	wd  *wireDoor
	tr  *tracer
}

func newStack(idx *index.HubLabels, tr *tracer) (*stack, error) {
	opts := serverOptions()
	opts.OwnIndex = false // both stacks share idx; the run releases it
	var served index.Index = idx
	var wrap func(net.Listener) net.Listener
	if tr != nil {
		served = spyIndex(idx.Store(), tr)
		wrap = func(ln net.Listener) net.Listener { return &listenerSpy{Listener: ln, tr: tr} }
	}
	wd, err := openWireDoor(server.New(served, opts), 1, wrap)
	if err != nil {
		return nil, err
	}
	return &stack{srv: wd.srv, wd: wd, tr: tr}, nil
}

// span runs fn as request req of the traced replay and records it as
// kind; on the plain stack it just runs fn.
func (s *stack) span(kind spanKind, req *int32, queries int, fn func()) {
	if s.tr == nil {
		fn()
		return
	}
	s.tr.cur.Store(*req)
	t := s.tr.now()
	fn()
	s.tr.record(kind, t, queries)
	*req++
}

// sections holds the nanoseconds per query of each door, and the
// request-id range each traced section covered.
type sections struct {
	tryQuery, tryBatch, client16, clientSingle float64
	rangeTryQuery, rangeTryBatch, rangeClient  [2]int32
	stats                                      server.Stats
	allocsTryQuery, allocsClient               float64
}

// replay drives the stack's doors over the stream, warm pass then timed
// pass each.
func (s *stack) replay(p *probe, req *int32) sections {
	var sec sections
	n := p.n
	idx, pairs := p.pairsAt(0, 2*n)
	out := make([]graph.Weight, 2*n)
	errs := make([]error, waveDoor)

	tryQuery := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.span(kTryQuery, req, 1, func() {
				d, err := s.srv.TryQuery(benchClient, pairs[i][0], pairs[i][1])
				if err != nil {
					d = -1
				}
				out[i] = d
			})
		}
	}
	tryQuery(0, n)
	st0, m0, r0, t := s.srv.Stats(), mallocs(), *req, time.Now()
	tryQuery(n, 2*n)
	sec.tryQuery = nsPer(t, n)
	sec.allocsTryQuery = float64(mallocs()-m0) / float64(n)
	sec.rangeTryQuery = [2]int32{r0, *req}
	st1 := s.srv.Stats()
	sec.stats = server.Stats{
		Served: st1.Served - st0.Served, Batches: st1.Batches - st0.Batches,
		HotHits: st1.HotHits - st0.HotHits, HotMisses: st1.HotMisses - st0.HotMisses, HotEvicts: st1.HotEvicts - st0.HotEvicts,
	}
	p.check(idx[n:], out[n:])

	waves := func(kind spanKind, lo, hi int, call func(pairs [][2]graph.NodeID, out []graph.Weight, errs []error)) {
		for i := lo; i+waveDoor <= hi; i += waveDoor {
			s.span(kind, req, waveDoor, func() { call(pairs[i:i+waveDoor], out[i:i+waveDoor], errs) })
			for j, err := range errs {
				if err != nil {
					out[i+j] = -1
				}
			}
		}
	}
	tryBatch := func(pairs [][2]graph.NodeID, out []graph.Weight, errs []error) {
		s.srv.TryQueryBatch(benchClient, pairs, out, errs)
	}
	waves(kTryQueryBatch, 0, n, tryBatch)
	r0, t = *req, time.Now()
	waves(kTryQueryBatch, n, 2*n, tryBatch)
	sec.tryBatch = nsPer(t, n)
	sec.rangeTryBatch = [2]int32{r0, *req}
	p.check(idx[n:], out[n:])

	waves(kClientBatch, 0, n, s.wd.cl.DistanceBatch)
	m0, r0, t = mallocs(), *req, time.Now()
	waves(kClientBatch, n, 2*n, s.wd.cl.DistanceBatch)
	sec.client16 = nsPer(t, n)
	sec.allocsClient = float64(mallocs()-m0) / float64(n)
	sec.rangeClient = [2]int32{r0, *req}
	p.check(idx[n:], out[n:])

	singles := min(traceSingles, n)
	t = time.Now()
	for i := 0; i < singles; i++ {
		s.span(kClientSingle, req, 1, func() {
			d, err := s.wd.cl.Distance(pairs[i][0], pairs[i][1])
			if err != nil {
				d = -1
			}
			out[i] = d
		})
	}
	sec.clientSingle = nsPer(t, singles)
	p.check(idx[:singles], out[:singles])
	return sec
}

// rawFrames times request/reply frames of the given batch size on a
// plain net.Conn to the door at addr: nanoseconds per query over the
// timed half.
func rawFrames(p *probe, addr string, batch int) (float64, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	n := p.n / batch * batch
	if batch == 1 {
		n = min(n, 4*traceSingles)
	}
	idx, pairs := p.pairsAt(0, 2*n)
	out := make([]graph.Weight, 2*n)
	qs := make([]wire.Query, batch)
	kinds := make([]uint8, batch)
	var frame, payload []byte
	var rs []wire.Result
	var t time.Time
	for i := 0; i+batch <= 2*n; i += batch {
		if i == n {
			t = time.Now()
		}
		for j := range qs {
			qs[j] = wire.Query{Kind: wire.QDist, U: pairs[i+j][0], V: pairs[i+j][1]}
		}
		if frame, err = wire.AppendRequest(frame[:0], uint64(i), qs); err != nil {
			return 0, err
		}
		if _, err = nc.Write(frame); err != nil {
			return 0, err
		}
		kind, body, err := wire.ReadFrame(br, &payload, 0)
		if err != nil {
			return 0, err
		}
		if kind != wire.FrameReply {
			return 0, fmt.Errorf("bench: door answered frame kind %d", kind)
		}
		if _, rs, err = wire.ParseReply(body, kinds, rs[:0]); err != nil {
			return 0, err
		}
		for j, r := range rs {
			out[i+j] = r.Dist
			if r.Status != wire.StatusOK {
				out[i+j] = -1
			}
		}
	}
	ns := nsPer(t, n)
	p.check(idx[n:], out[n:])
	return ns, nil
}

// wireCodec times the four codec steps of one 16-query frame in memory.
func wireCodec(p *probe) (nsPerQuery, bytesPerQuery, allocsPerFrame float64, err error) {
	_, pairs := p.pairsAt(0, p.n)
	qs := make([]wire.Query, waveDoor)
	kinds := make([]uint8, waveDoor)
	rs := make([]wire.Result, waveDoor)
	var req, rep []byte
	var parsedQ []wire.Query
	var parsedR []wire.Result
	var bytesTotal int
	frames := 0
	m0, t := mallocs(), time.Now()
	for i := 0; i+waveDoor <= len(pairs); i += waveDoor {
		for j := range qs {
			qs[j] = wire.Query{Kind: wire.QDist, U: pairs[i+j][0], V: pairs[i+j][1]}
			rs[j] = wire.Result{Kind: wire.QDist, Status: wire.StatusOK, Dist: graph.Weight(j + 1), Far: -1}
		}
		if req, err = wire.AppendRequest(req[:0], uint64(i), qs); err != nil {
			return
		}
		if _, parsedQ, err = wire.ParseRequest(req[8:], parsedQ[:0]); err != nil {
			return
		}
		if rep, err = wire.AppendReply(rep[:0], uint64(i), rs); err != nil {
			return
		}
		if _, parsedR, err = wire.ParseReply(rep[8:], kinds, parsedR[:0]); err != nil {
			return
		}
		bytesTotal += len(req) + len(rep)
		frames++
	}
	ns := float64(time.Since(t).Nanoseconds())
	q := float64(frames * waveDoor)
	return ns / q, float64(bytesTotal) / q, float64(mallocs()-m0) / float64(frames), nil
}

// runTraced is the traced run of one workload: the same set-up, then
// every layer of the stack priced on the workload's fixture and stream
// — by calling its public functions directly, and by replaying the
// stream through a stack decorated with spies and reading the spans.
func runTraced(sp spec, cfg config, outDir string) (*result, error) {
	res := &result{Workload: sp.name, Seed: cfg.seed, Traced: true, Metrics: map[string]metric{}, Extra: map[string]any{}, Fingerprint: newFingerprint(1)}
	m := func(name string, v float64) { res.set(perLayer, name, v, 0) }
	fx, err := prepare(sp, cfg, true)
	if err != nil {
		return nil, err
	}
	lc := &fx.lc
	p := &probe{fx: fx, n: traceQueries}
	if cfg.toy {
		p.n = traceQueries >> 5
	}
	n := p.n

	m("gen.graph_ms", lc.genMS)
	m("pll.build_s", median(lc.buildS))
	t := time.Now()
	if _, err := pll.BuildUnfrozen(fx.g, pll.Options{Workers: runtime.NumCPU()}); err != nil {
		return nil, err
	}
	m("pll.build_workers_s", time.Since(t).Seconds())
	m("pll.labels_total", float64(lc.labelsTotal))
	m("pll.max_label", float64(lc.maxLabel))

	// Container codec in memory, then through the file system.
	m("hub.freeze_ms", lc.freezeMS)
	m("hub.compact_ms", lc.compactMS)
	var v3 bytes.Buffer
	v3.Grow(int(lc.bytesExpanded))
	t = time.Now()
	if _, err := fx.flat.WriteContainer(&v3, hub.ContainerOptions{Aligned: true}); err != nil {
		return nil, err
	}
	m("hub.write_v3_ms", msSince(t))
	var cw countWriter
	t = time.Now()
	if _, err := fx.compactStore.WriteContainer(&cw, hub.ContainerOptions{Compact: true}); err != nil {
		return nil, err
	}
	m("hub.write_v4_ms", msSince(t))
	t = time.Now()
	if _, err := hub.ReadContainerStore(bytes.NewReader(v3.Bytes())); err != nil {
		return nil, err
	}
	m("hub.read_ms", msSince(t))
	v3 = bytes.Buffer{}
	m("index.save_ms", median(lc.saveMS))
	m("index.load_ms", median(lc.loadMS))

	// From here on the in-memory build products are gone and the layers
	// see what a server sees: the reopened container.
	fx.flat, fx.compactStore = nil, nil
	runtime.GC()
	t = time.Now()
	mapped, err := hub.OpenStoreMmap(fx.servePath)
	if err != nil {
		return nil, err
	}
	m("hub.open_mmap_us", msSince(t)*1e3)
	if err := mapped.Release(); err != nil {
		return nil, err
	}
	t = time.Now()
	cold, err := index.LoadMmap(fx.servePath)
	if err != nil {
		return nil, err
	}
	idx64, pairs64 := p.pairsAt(0, 64)
	out64 := make([]graph.Weight, 64)
	for i, pr := range pairs64 {
		out64[i] = cold.Distance(pr[0], pr[1])
	}
	m("index.loadmmap_first64_us", msSince(t)*1e3)
	p.check(idx64, out64)
	if err := cold.Release(); err != nil {
		return nil, err
	}

	idx, err := openIndex(fx.servePath, sp.mmap)
	if err != nil {
		return nil, err
	}
	defer idx.Release()
	store := idx.Store()
	t = time.Now()
	if err := store.Validate(); err != nil {
		return nil, err
	}
	m("hub.validate_ms", msSince(t))

	// hub: the merge kernel on the stream's pairs.
	sIdx, sPairs := p.pairsAt(0, 2*n)
	out := make([]graph.Weight, 2*n)
	query := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d, ok := store.Query(sPairs[i][0], sPairs[i][1])
			if !ok {
				d = graph.Infinity
			}
			out[i] = d
		}
	}
	query(0, n)
	m0 := mallocs()
	t = time.Now()
	query(n, 2*n)
	m("hub.query_ns", nsPer(t, n))
	m("hub.allocs_per_query", float64(mallocs()-m0)/float64(n))
	p.check(sIdx[n:], out[n:])
	t = time.Now()
	for i := n; i+waveHub <= 2*n; i += waveHub {
		store.QueryBatch(sPairs[i:i+waveHub], out[i:i+waveHub])
	}
	m("hub.batch_ns_per_query", nsPer(t, n/waveHub*waveHub))
	p.check(sIdx[n:], out[n:])
	var entries, skewed int
	for _, pr := range sPairs[n:] {
		a, b := store.LabelLen(pr[0]), store.LabelLen(pr[1])
		entries += a + b
		if lo, hi := min(a, b), max(a, b); hi >= 4*lo {
			skewed++
		}
	}
	m("hub.entries_per_query", float64(entries)/float64(n))
	m("hub.gallop_share", float64(skewed)/float64(n))
	m("hub.query_bytes", float64(store.QueryBytes()))

	// Paths walk the pool in order, like the end-to-end verb probe: under
	// a Zipf order a few hot pairs would decide the mean.
	var pathBuf []graph.NodeID
	paths := min(tracePaths, n, len(fx.st.pool))
	t = time.Now()
	for i, pr := range fx.st.pool[:paths] {
		if pathBuf, err = store.AppendPath(pathBuf[:0], pr[0], pr[1]); err != nil {
			return nil, err
		}
		p.attempted++
		if !pathMatches(fx.g, pr[0], pr[1], pathBuf, fx.st.truth[i]) {
			p.wrong++
		}
	}
	m("hub.path_ns", nsPer(t, paths))
	t = time.Now()
	ecc := hub.NewEccIndex(store)
	m("hub.ecc_warm_ms", msSince(t))
	t = time.Now()
	for i := 0; i < traceEccs; i++ {
		got, _ := ecc.Eccentricity(fx.eccV[i])
		p.attempted++
		if got != fx.eccTruth[i] {
			p.wrong++
		}
	}
	m("hub.ecc_ns", nsPer(t, traceEccs))
	ecc = nil

	// hotcache and flowctl through their own public doors, on the
	// stream's keys.
	hc := hotcache.New(hotCacheEntries)
	t = time.Now()
	for i, pr := range sPairs[n:] {
		hc.Insert(hotcache.Key(pr[0], pr[1]), out[n+i])
	}
	m("hotcache.insert_ns", nsPer(t, n))
	var hits int
	t = time.Now()
	for _, pr := range sPairs[n:] {
		if _, ok := hc.Lookup(hotcache.Key(pr[0], pr[1])); ok {
			hits++
		}
	}
	m("hotcache.lookup_ns", nsPer(t, n))
	res.Extra["hotcache_direct_hits"] = hits
	ctl := flowctl.New(flowctl.Options{})
	var shed int
	t = time.Now()
	for i := 0; i < n; i++ {
		if ctl.Shed(benchClient) {
			shed++
		}
		ctl.OnServed(benchClient)
	}
	m("flowctl.decision_ns", nsPer(t, n))
	if shed != 0 {
		p.problem("idle admission controller shed %d requests", shed)
	}

	codecNS, codecBytes, codecAllocs, err := wireCodec(p)
	if err != nil {
		return nil, err
	}
	m("wire.codec_ns_per_query", codecNS)
	m("wire.bytes_per_query", codecBytes)
	m("wire.allocs_per_frame", codecAllocs)

	// The plain stack gives the doors' untraced costs; the spied stack
	// replays the same calls and yields the spans.
	plain, err := newStack(idx, nil)
	if err != nil {
		return nil, err
	}
	var req int32
	ps := plain.replay(p, &req)
	var raw [3]float64
	for i, b := range []int{1, 16, 64} {
		if raw[i], err = rawFrames(p, plain.wd.addr, b); err != nil {
			plain.wd.close()
			return nil, err
		}
	}
	ds, cs := plain.wd.nd.Stats(), plain.wd.cl.Stats()
	st := plain.srv.Stats()
	if err := plain.wd.close(); err != nil {
		p.problem("%v", err)
	}

	tr := newTracer(24*n + 4*traceHTTPCalls)
	spied, err := newStack(idx, tr)
	if err != nil {
		return nil, err
	}
	ss := spied.replay(p, &req)
	if err := spied.wd.close(); err != nil {
		p.problem("%v", err)
	}

	// hubserve: the real binary over HTTP, one connection.
	hd, err := openHTTPDoor(config{callers: 1, hubserve: cfg.hubserve}, fx.servePath, sp.mmap)
	if err != nil {
		return nil, err
	}
	defer hd.close()
	calls := min(traceHTTPCalls, n)
	one := make([]graph.Weight, 1)
	httpGet := func(i int) {
		if hd.distance(0, sPairs[i:i+1], one) != 0 {
			one[0] = -1
		}
		out[i] = one[0]
	}
	for i := 0; i < calls; i++ {
		httpGet(i)
	}
	cpu0, err := cpuSeconds(hd.childPID())
	if err != nil {
		return nil, err
	}
	t = time.Now()
	for i := calls; i < 2*calls; i++ {
		tr.cur.Store(req)
		t0 := tr.now()
		httpGet(i)
		tr.record(kHTTPRequest, t0, 1)
		req++
	}
	httpNS := nsPer(t, calls)
	cpu1, err := cpuSeconds(hd.childPID())
	if err != nil {
		return nil, err
	}
	p.check(sIdx[calls:2*calls], out[calls:2*calls])
	served, err := hd.childStat("served")
	if err != nil {
		return nil, err
	}
	startMS := hd.ch.startMS
	if err := hd.close(); err != nil {
		p.problem("%v", err)
	}

	spans := tr.finish()
	if d := tr.dropped.Load(); d != 0 {
		p.problem("tracer dropped %d spans", d)
	}
	la := sumLayers(spans, ss.rangeTryQuery[0], ss.rangeTryQuery[1])
	lb := sumLayers(spans, ss.rangeTryBatch[0], ss.rangeTryBatch[1])
	lcl := sumLayers(spans, ss.rangeClient[0], ss.rangeClient[1])
	perQuery := func(ns, q int64) float64 { return float64(ns) / float64(max(q, 1)) }
	indexSelf := func(l *layerTotals) int64 { return l[kIndexDistance].selfNS + l[kIndexBatch].selfNS }
	indexQueries := func(l *layerTotals) int64 { return l[kIndexDistance].queries + l[kIndexBatch].queries }
	hubDur := func(l *layerTotals) int64 { return l[kHubQuery].durNS + l[kHubBatch].durNS }

	batchSelf := perQuery(lb[kTryQueryBatch].selfNS, lb[kTryQueryBatch].queries)
	frameSelf := perQuery(lcl[kFrame].selfNS, lcl[kClientBatch].queries)
	m("trace.overhead_pct", (ss.tryQuery/ps.tryQuery-1)*100)
	m("index.self_ns", perQuery(indexSelf(la), indexQueries(la)))
	m("server.tryquery_ns", ps.tryQuery)
	m("server.self_ns", perQuery(la[kTryQuery].selfNS, la[kTryQuery].queries))
	m("server.batch_self_ns_per_query", batchSelf)
	m("server.coalesce", float64(st.Served-st.HotHits)/float64(max(st.Batches, 1)))
	m("server.rejected", float64(st.Rejected))
	m("server.shed", float64(st.Shed))
	m("server.timeouts", float64(st.Timeouts))
	m("server.faulted", float64(st.Faulted))
	m("server.allocs_per_query", ps.allocsTryQuery)
	probes := float64(max(ps.stats.HotHits+ps.stats.HotMisses, 1))
	m("hotcache.hit_rate", float64(ps.stats.HotHits)/probes)
	m("hotcache.evicts_per_query", float64(ps.stats.HotEvicts)/probes)
	m("netserve.b1_ns_per_query", raw[0])
	m("netserve.b16_ns_per_query", raw[1])
	m("netserve.b64_ns_per_query", raw[2])
	// The door calls the server directly, so the server's share of a
	// frame cannot be spanned from outside; it is taken from the
	// TryQueryBatch section, which runs the same waves without the door.
	m("netserve.self_ns_per_query", frameSelf-batchSelf)
	m("netserve.frames", float64(ds.Frames))
	m("netserve.queries", float64(ds.Queries))
	m("netserve.bad_frames", float64(ds.BadFrames))
	m("hubclient.batch16_ns_per_query", ps.client16)
	m("hubclient.self_ns_per_query", perQuery(lcl[kClientBatch].selfNS, lcl[kClientBatch].queries))
	m("hubclient.single_ns", ps.clientSingle)
	m("hubclient.achieved_batch", float64(cs.Queries)/float64(max(cs.Frames, 1)))
	m("hubclient.retries", float64(cs.Retries))
	m("hubclient.hedges", float64(cs.Hedges))
	m("hubclient.transport_errors", float64(cs.TransportErrors))
	m("hubclient.pool_exhausted", float64(cs.PoolExhausted))
	m("hubclient.allocs_per_query", ps.allocsClient)
	m("hubserve.start_ms", startMS)
	m("hubserve.http_ns_per_query", httpNS)
	m("hubserve.http_self_ns", httpNS-ps.tryQuery)
	m("hubserve.cpu_us_per_query", (cpu1-cpu0)*1e6/float64(calls))
	m("hubserve.served", float64(served))
	// The eccentricity warm-up request is the one request beyond the
	// distance calls.
	if want := int64(2*calls + 1); served != want {
		p.problem("hubserve served %d requests, harness sent %d", served, want)
	}

	// The waterfall: traced single-caller latency per query through each
	// door, split into the self time of every layer on the blocking
	// path. Through TryQuery one query is in flight at a time and the
	// parts sum to the whole. Behind a 16-query frame two shard workers
	// run side by side, so the time the frame spends below the server is
	// the union of their index spans (frame duration minus frame self
	// time), divided between index and hub in proportion to their summed
	// times; "worker_overlap" is that sum over the union.
	below := lcl[kFrame].durNS - lcl[kFrame].selfNS
	belowSum := indexSelf(lcl) + hubDur(lcl)
	share := func(part int64) float64 {
		return perQuery(below, lcl[kClientBatch].queries) * float64(part) / float64(max(belowSum, 1))
	}
	res.Extra["waterfall_ns_per_query"] = map[string]map[string]float64{
		"server.TryQuery": {
			"total":  perQuery(la[kTryQuery].durNS, la[kTryQuery].queries),
			"server": perQuery(la[kTryQuery].selfNS, la[kTryQuery].queries),
			"index":  perQuery(indexSelf(la), la[kTryQuery].queries),
			"hub":    perQuery(hubDur(la), la[kTryQuery].queries),
		},
		"hubclient.DistanceBatch16": {
			"total":           perQuery(lcl[kClientBatch].durNS, lcl[kClientBatch].queries),
			"hubclient":       perQuery(lcl[kClientBatch].selfNS, lcl[kClientBatch].queries),
			"netserve+server": frameSelf,
			"index":           share(indexSelf(lcl)),
			"hub":             share(hubDur(lcl)),
			"worker_overlap":  float64(belowSum) / float64(max(below, 1)),
		},
		"hubserve.GET/distance": {
			"total":        httpNS,
			"http":         httpNS - ps.tryQuery,
			"server+below": ps.tryQuery,
		},
	}
	res.Extra["traced_ns_per_query"] = map[string]float64{"server.TryQuery": ss.tryQuery, "server.TryQueryBatch16": ss.tryBatch, "hubclient.DistanceBatch16": ss.client16}
	res.Extra["untraced_ns_per_query"] = map[string]float64{"server.TryQuery": ps.tryQuery, "server.TryQueryBatch16": ps.tryBatch, "hubclient.DistanceBatch16": ps.client16}
	res.Extra["spans"] = len(spans)

	spanFile := filepath.Join(outDir, "trace-"+sp.name+".json")
	if err := writeSpans(spanFile, sp.name, spans); err != nil {
		return nil, err
	}
	res.Extra["span_file"] = spanFile

	res.Attempted = p.attempted
	res.Failed = p.wrong
	res.ErrorRate = float64(p.wrong) / float64(max(p.attempted, 1))
	res.Problems = p.problems
	if p.wrong > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d answers differ from the answer key", p.wrong))
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}
