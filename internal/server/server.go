// Package server is the in-process concurrent query service over an
// index.Index: client goroutines submit (u,v) pairs, the server shards
// them across request queues, and each shard's worker drains its queue
// in groups of up to three adjacent requests to feed the interleaved
// merge of the hub-label batch path. The served index is held behind an
// atomic snapshot pointer, so a rebuilt or freshly loaded index can be
// swapped in under live traffic without pausing queries.
//
// Each shard is guarded by one mutex: whoever holds it serves the
// shard, and nobody else touches its buffers, hot cache or pin. A lone
// query with no deadline that finds its shard's queue empty and the
// lock free (TryLock) is served on the calling goroutine, with no queue
// slot and no hand-off to a worker and back. Such a query starts at the
// shard its pooled envelope remembers, so each processor keeps to one
// shard, and the lone path — close gate stripe, lock, snapshot pin, hot
// cache — writes only that shard. Everything else — waves,
// deadline-bound calls, and a lone query that finds both of its shards
// busy — is queued and left to the worker, which waits for the lock
// when a caller holds it. A wave thus spreads over the shards and a
// caller's deadline never waits behind its own merge.
//
// The per-query hot path performs zero allocations in steady state:
// request envelopes (including their reply channels) are pooled, shard
// routing is a shard hint or a single atomic round-robin tick, and
// every shard reuses its batch buffers across groups.
//
// One request core serves every door: Do takes a wave of typed queries
// (wire.Query — distance, witness path, eccentricity) and resolves each
// to one wire.Result status. It never blocks on a full queue and never
// panics — overload, shutdown, deadlines, contained backend faults and
// out-of-range vertices are all statuses — and, with Options.Admission
// set, consults a constant-memory fair admission controller
// (internal/flowctl) so overload is shed per-client instead of starving
// whoever queues last. TryQuery, TryPath, TryEccentricity and
// TryQueryBatch are logic-free adapters over Do for callers that want
// Go values and errors.
//
// A wave may mix kinds: every query rides the same queues, workers and
// admission door, with the all-distance worker group still taking the
// interleaved-merge batch path. Capabilities are resolved per snapshot,
// so swapping in an index without path support degrades those requests
// to StatusUnsupported rather than breaking the server.
//
// Snapshots are reference-counted, which is what makes serving
// view-backed (mmap-loaded) indexes safe: each shard holds a pin on the
// snapshot it serves on, moved when a swap installs another, and a
// capability warm pins the snapshot it warms. An index installed as
// owned (Options.OwnIndex, SwapRetire) is released (for a view,
// unmapped) only when the retired snapshot's last pin drops. Hot reload
// is therefore one SwapRetire: new queries land on the new mapping
// immediately, in-flight queries finish on the old one, every shard
// moves its pin at once (a swap wakes the workers), and the old
// container unmaps the instant the last of them drains — zero dropped
// queries, zero stop-the-world.
package server

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"hublab/internal/faultinject"
	"hublab/internal/flowctl"
	"hublab/internal/graph"
	"hublab/internal/hotcache"
	"hublab/internal/hub"
	"hublab/internal/index"
	"hublab/internal/par"
	"hublab/internal/wire"
)

// The errors of the adapters are the wire package's status sentinels —
// one family on both sides of a socket, so errors.Is(err,
// server.ErrOverloaded) holds for an answer that came back through
// hubclient exactly as for one from TryQuery.
var (
	// ErrOverloaded reports that a request was not admitted: either its
	// shard queue was full, or the admission controller shed it to
	// protect the queues. Callers should back off (HTTP front ends
	// translate it to 429 + Retry-After).
	ErrOverloaded = wire.ErrOverloaded
	// ErrClosed reports a request issued after (or concurrent with)
	// Close.
	ErrClosed = wire.ErrClosed
	// ErrUnsupported reports a query kind (path, eccentricity) the
	// currently served index does not implement. The capability is
	// re-checked per snapshot, so a Swap to a capable index clears the
	// condition without a restart.
	ErrUnsupported = wire.ErrUnsupported
	// ErrBackendFault reports that the backend panicked (or raised an
	// injected fault) while computing this request's group. The panic
	// was contained: whoever was serving the group recovered, failed it
	// with this error, and resumed serving — the process never crashes
	// and completions never hang. Counted in Stats.Faulted (the panic
	// events themselves in Stats.Panics).
	ErrBackendFault = wire.ErrBackendFault
	// ErrTimeout reports a request that outlived Options.QueryTimeout
	// before its answer was delivered — stuck behind a stalled backend,
	// a never-finishing capability warm, or a queue the workers stopped
	// draining. The caller is unblocked and the abandoned envelope is
	// reclaimed by whichever worker eventually touches it; timed-out
	// requests are counted in Stats.Timeouts and drive the health state
	// machine, never Served.
	ErrTimeout = wire.ErrTimeout
	// ErrBadRequest reports a vertex outside the range of the snapshot
	// that served the request.
	ErrBadRequest = wire.ErrBadRequest
)

// batchSize is how many adjacent requests a shard coalesces into one
// DistanceBatch call. Three matches the stream count of the interleaved
// merge in hub.QueryBatch, and the value is pinned by measurement: the
// merge sweep in batchsize_sweep_test.go feeds DistanceBatch groups of
// 1–8 — groups of 1–2 fall back to the scalar merge (~3.1 µs/q on
// gnm10k), 3 fills the interleave (2.3 µs/q), and everything past 3
// sits on the same plateau because the interleave refills its streams
// continuously regardless of group length. 3 is the smallest size on
// the plateau; deeper coalescing buys no merge throughput and only adds
// queueing delay for the requests at the back of a group.
const batchSize = 3

// Options configures a Server.
type Options struct {
	// Shards is the number of worker goroutines (and request queues).
	// 0 means the par worker bound (runtime.NumCPU(), or the par.SetWorkers
	// override — so pinning the pool pins the server too).
	Shards int
	// QueueDepth is the per-shard request buffer (default 64).
	QueueDepth int
	// Admission, when non-nil, attaches a flowctl fair admission
	// controller to Do: clients whose traffic overflows the shard queues
	// are probabilistically shed at the door (counted in Stats.Shed)
	// instead of racing everyone else for queue slots.
	Admission *flowctl.Options
	// OwnIndex transfers ownership of the initial index to the server:
	// when the snapshot retires (replaced by SwapRetire, removed by Swap,
	// or at Close), its resources are released (index.Releaser) once the
	// last in-flight query drains. Required for view-backed (mmap)
	// indexes the caller will not release manually; harmless for
	// heap-owned ones, whose Release is a no-op.
	OwnIndex bool
	// QueryTimeout, when positive, bounds every Do call end to end —
	// capability warming, queueing and service of the whole wave. A query
	// that misses the deadline answers StatusTimeout immediately instead
	// of accumulating blocked callers behind a stuck backend.
	QueryTimeout time.Duration
	// HotCache, when positive, attaches a per-shard hotcache.Cache of at
	// least this many entries (rounded up to power-of-two sets) to every
	// shard: distance requests probe it before the batch merge,
	// and computed answers are inserted after. The cache is invalidated
	// wholesale on Swap/SwapRetire via the snapshot generation, so a hit
	// can never survive a reload. 0 disables caching.
	HotCache int
	// Health tunes the fault-health state machine (healthy → degraded →
	// failed, driven by recent panic and timeout counts). The zero value
	// applies the package defaults; overload (Rejected/Shed) never moves
	// the health state — shedding is the designed response to load, not a
	// fault.
	Health HealthOptions
}

// Server shards query streams over worker goroutines against an
// atomically swappable index snapshot.
type Server struct {
	snap    atomic.Pointer[snapshot]
	shards  []*shard
	rr      atomic.Uint64
	pool    sync.Pool
	wg      sync.WaitGroup
	closing atomic.Bool
	// drained wakes a Close waiting for the close gate (the shards'
	// active counts) to drain.
	drained chan struct{}
	// ctl is the optional fair admission controller of Do.
	ctl      *flowctl.Controller
	rejected atomic.Uint64
	shed     atomic.Uint64
	// refused counts negative ids answered StatusBadRequest at the door;
	// Stats folds it into Served beside the workers' own refusals.
	refused atomic.Uint64
	// gen issues snapshot generation numbers: every installed snapshot
	// (New, Swap, SwapRetire) gets the next value. Shards compare
	// the generation of the snapshot they pinned against their hot
	// cache's fill generation and discard stale contents before probing
	// (hotcache.ResetIfStale) — tagging contents by the pinned snapshot,
	// not by a counter read racily beside the swap, is what makes a
	// cached answer provably from the snapshot it is served against.
	gen atomic.Uint64
	// timeout is Options.QueryTimeout; zero disables deadlines.
	timeout time.Duration
	// Fault containment: panics counts recovered worker/warm panics
	// (events), faulted counts requests failed with ErrBackendFault, and
	// timeouts counts requests abandoned at their deadline. Every
	// submitted request lands in exactly one of Served / Rejected / Shed
	// / Faulted / Timeouts.
	panics   atomic.Uint64
	faulted  atomic.Uint64
	timeouts atomic.Uint64
	health   *healthTracker
}

// snapshot pairs an index with its (possibly nil) capability fast paths
// so one atomic load fetches all of them, plus the reference count that
// makes retiring a snapshot safe under live traffic.
//
// refs starts at 1 — the "installed" reference the Server itself holds.
// Each shard holds one more while it serves on the snapshot: the
// first group after a swap moves the shard's pin to the installed
// snapshot (see pinned), so a query pays no reference count of its own.
// A capability warm pins the snapshot for the duration of the warm.
// Retiring drops the installed reference; whoever drops refs to zero
// runs the release, so a view-backed (mmap) index is unmapped exactly
// once, strictly after the last group on it finishes and every shard
// has moved on, without any stop-the-world drain.
type snapshot struct {
	idx   index.Index
	batch index.Batcher
	paths index.PathReporter
	ecc   index.EccentricityReporter
	warm  index.CapabilityWarmer
	refs  atomic.Int64
	// pathsWarm / eccWarm single-flight the capability warms, so
	// steady-state path/ecc requests skip the bounded-warm machinery (one
	// atomic load) and concurrent cold requests share one warm attempt.
	pathsWarm warmFlight
	eccWarm   warmFlight
	// gen is this snapshot's generation number (see Server.gen); shard
	// hot caches are valid for exactly one gen.
	gen uint64
	// owned records that the server must release the index's resources
	// (index.Releaser) when the snapshot retires — set by Options.OwnIndex
	// and SwapRetire, never by plain Swap, whose caller keeps the old
	// index.
	owned bool
	// n is idx's vertex count, cached at install so every group
	// range-checks its requests against the snapshot it is served on
	// without a Meta call. It sits down here, in the struct's read-only
	// tail beside gen, away from refs, which swaps and warms write.
	n graph.NodeID
}

// pin acquires a reference on the current snapshot, retrying against
// concurrent swaps. The CAS-from-nonzero loop closes the classic race:
// between loading the pointer and incrementing, the snapshot may retire
// and drop to zero — a dead snapshot is never resurrected, the loop
// simply reloads the (by then replaced) pointer. It returns nil only
// when the server is closed and its final snapshot already retired.
func (s *Server) pin() *snapshot {
	for {
		snap := s.snap.Load()
		n := snap.refs.Load()
		if n <= 0 {
			if s.closing.Load() && s.snap.Load() == snap {
				return nil
			}
			continue
		}
		if snap.refs.CompareAndSwap(n, n+1) {
			return snap
		}
	}
}

// unpin releases a pin; the dropper of the last reference releases the
// snapshot's resources.
func (snap *snapshot) unpin() {
	if snap.refs.Add(-1) == 0 {
		snap.release()
	}
}

// retire drops the installed reference a snapshot was created with.
func (snap *snapshot) retire() { snap.unpin() }

// release frees an owned snapshot's resources (the munmap of a
// view-backed index). It runs exactly once, on whichever goroutine
// dropped the last reference.
func (snap *snapshot) release() {
	if !snap.owned {
		return
	}
	if r, ok := snap.idx.(index.Releaser); ok {
		r.Release() // serving cannot surface this; Release errors are terminal for the mapping only
	}
}

// deliverHook, when set, runs between a request's answer and its
// delivery. Tests set it to hold an answer back while a deadline fires;
// it is nil otherwise.
var deliverHook func(*request)

// Envelope delivery states: exactly one side — the worker delivering an
// answer, or a waiter abandoning at its deadline — wins the CAS from
// pending, so a request resolves exactly once and a timed-out envelope
// is recycled by the worker instead of racing a pooled reuse. An inline
// request is served by its own waiter, which nothing else can see: it
// is answered without a CAS and without a signal on done.
const (
	stPending int32 = iota
	stDelivered
	stAbandoned
	stInline
)

// request is one query of a wave in flight: the wire.Query going in,
// the fields of its wire.Result coming out.
type request struct {
	kind   uint8 // wire.QDist / QPath / QEcc
	status uint8 // wire.Status*, written under the shard lock before delivery
	u, v   graph.NodeID
	d      graph.Weight
	far    graph.NodeID
	// path carries the caller's destination buffer in and the appended
	// path out (QPath only); the envelope drops the reference before
	// returning to the pool, so the buffer's ownership stays with the
	// caller.
	path []graph.NodeID
	// state arbitrates delivery against deadline abandonment (see the
	// st* constants).
	state atomic.Int32
	done  chan struct{}
	// hint is the shard a lone query carried by this envelope starts at.
	// The envelope pool is per processor, so the hint stays with the
	// processor, and moving it to the shard that last served keeps each
	// caller on a shard of its own.
	hint uint32
}

// shard is one request queue and the state that serves it. mu is held
// by whoever serves the shard — its worker, or a lone submitter serving
// itself — and everything below it except the atomics is touched only
// under mu.
type shard struct {
	ch chan *request
	// wake (capacity 1) is what the worker parks on. A token means "the
	// queue may hold work"; it is sent after every enqueue, and a woken
	// worker waits for mu rather than giving up, so no token is lost.
	// The worker never parks on ch itself: a request it received there
	// while waiting for mu would sit outside the queue, and QueueDepth
	// would no longer bound admitted work.
	wake chan struct{}
	mu   sync.Mutex
	// active is this shard's stripe of the close gate: it counts the
	// submissions between acquire and release whose first envelope
	// hinted at this shard. Close waits for every stripe to drain before
	// closing the wake channels, so no enqueue or signal can race a
	// channel close. Striping by the hint keeps callers on different
	// processors from writing one shared counter twice per call.
	active atomic.Int64
	// snap is the shard's pin, the snapshot it last served on (see
	// pinned).
	snap *snapshot
	// Reusable per-shard batch buffers, so groups recycle the same
	// storage forever.
	reqs    [batchSize]*request
	pairs   [batchSize][2]graph.NodeID
	out     [batchSize]graph.Weight
	served  atomic.Uint64
	batches atomic.Uint64
	// cache is the shard's private Zipf-hot result cache (nil when
	// Options.HotCache is 0) — see hotcache's package comment.
	cache *hotcache.Cache
	// The tail pad keeps the next shard's lock off this shard's last
	// cache line whatever size class the allocator puts shards in.
	_ [64]byte
}

// signal leaves the worker a wake token (at most one is ever pending).
func (sh *shard) signal() {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// New starts a server over idx. Callers must Close it to release the
// worker goroutines.
func New(idx index.Index, opts Options) *Server {
	shards := opts.Shards
	if shards <= 0 {
		shards = par.Workers(math.MaxInt32)
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	s := &Server{shards: make([]*shard, shards), drained: make(chan struct{}, 1)}
	s.timeout = opts.QueryTimeout
	s.health = newHealthTracker(opts.Health)
	if opts.Admission != nil {
		s.ctl = flowctl.New(*opts.Admission)
	}
	first := newSnapshot(idx, opts.OwnIndex)
	first.gen = s.gen.Add(1)
	s.snap.Store(first)
	s.pool.New = func() any {
		return &request{done: make(chan struct{}, 1), hint: uint32(s.rr.Add(1) % uint64(shards))}
	}
	for i := range s.shards {
		sh := &shard{ch: make(chan *request, depth), wake: make(chan struct{}, 1), cache: hotcache.New(opts.HotCache)}
		s.shards[i] = sh
		s.wg.Add(1)
		go s.run(sh)
	}
	return s
}

func newSnapshot(idx index.Index, owned bool) *snapshot {
	ns := &snapshot{idx: idx, n: graph.NodeID(idx.Meta().Vertices), owned: owned}
	ns.refs.Store(1)
	if b, ok := idx.(index.Batcher); ok {
		ns.batch = b
	}
	if p, ok := idx.(index.PathReporter); ok {
		ns.paths = p
	}
	if e, ok := idx.(index.EccentricityReporter); ok {
		ns.ecc = e
	}
	if w, ok := idx.(index.CapabilityWarmer); ok {
		ns.warm = w
	}
	return ns
}

// acquire registers a submission against the close gate, on the stripe
// of shard gate. It returns false when the server is closing: after
// closing flips, every acquire backs out, so once every stripe drains
// to zero no submission can ever touch the shard channels again and
// Close may close the wake channels safely.
func (s *Server) acquire(gate *shard) bool {
	if s.closing.Load() {
		return false
	}
	gate.active.Add(1)
	if s.closing.Load() { // re-check: Close may have begun between the two
		s.release(gate)
		return false
	}
	return true
}

// release undoes acquire and wakes a draining Close when the last
// in-flight submission on its stripe leaves.
func (s *Server) release(gate *shard) {
	if gate.active.Add(-1) == 0 && s.closing.Load() {
		select {
		case s.drained <- struct{}{}:
		default:
		}
	}
}

// Do is the request core, the one way a query enters the server. It
// resolves qs[i] into rs[i] — status always, answer fields when the
// status is wire.StatusOK — and returns when every query of the wave
// has resolved. client identifies the caller for fair load shedding
// (remote address, connection id, tenant — any stable string). Do never
// waits for a queue slot and never panics on bad input; per query it
//
//   - gates on Close (StatusClosed),
//   - refuses a negative id, which no index could hold (StatusBadRequest),
//   - flips the admission controller's shed coin (StatusOverloaded),
//   - warms the capability a path or eccentricity query needs,
//   - claims a shard queue slot without blocking (StatusOverloaded),
//
// then awaits the answers in order. The queries proceed concurrently
// across the shards and coalesce into merge groups there, whatever
// their kinds; a single query is the wave of one. A single query with
// no deadline is answered on the calling goroutine when a shard is free,
// without a queue slot (see admit); everything else is served by the
// shard workers. Whoever serves a query range-checks its vertices
// against the snapshot it pinned (StatusBadRequest), so a reload to a
// smaller index cannot slip between check and use. With
// Options.QueryTimeout set, one deadline bounds the whole call: when it
// fires, every query still unanswered resolves StatusTimeout and its
// envelope is left to the worker.
//
// A path is appended to rs[i].Path as passed in (callers reusing
// storage pass it truncated); the other fields of rs[i] are
// overwritten. rs must hold at least len(qs) entries. Zero allocations
// in steady state, and the exact accounting identity holds query by
// query: each lands in exactly one of Stats.Served / Rejected / Shed /
// Faulted / Timeouts (a range-checked refusal is an answer, so Served).
func (s *Server) Do(client string, qs []wire.Query, rs []wire.Result) {
	// A small wave — every single query — keeps its envelope list on the
	// stack: a sync.Pool round trip per call is cheap only until the
	// caller wakes on another P, and then it is a steal or an allocation.
	var small [8]*request
	if len(qs) <= len(small) {
		s.do(small[:0], client, qs, rs)
		return
	}
	w := wavePool.Get().(*wave)
	w.reqs = s.do(w.reqs[:0], client, qs, rs)
	wavePool.Put(w)
}

// do is Do on the caller's scratch: reqs (empty, any capacity) receives
// the in-flight envelope of each query — nil where the door resolved it
// — and is returned, emptied, for reuse.
func (s *Server) do(reqs []*request, client string, qs []wire.Query, rs []wire.Result) []*request {
	rs = rs[:len(qs)]
	for i := range qs {
		rs[i] = wire.Result{Kind: qs[i].Kind, Status: wire.StatusClosed, Dist: graph.Infinity, Far: -1, Path: rs[i].Path}
	}
	if len(qs) == 0 {
		return reqs
	}
	// The first envelope is taken before the close gate: its hint, which
	// stays with the processor, picks the gate's stripe.
	lead := s.pool.Get().(*request)
	gate := s.shards[lead.hint]
	if !s.acquire(gate) {
		s.pool.Put(lead)
		return reqs
	}
	defer s.release(gate)
	// The deadline timer (if any) is armed before capability warming:
	// QueryTimeout bounds the call end to end, and a stalled warm is
	// exactly the kind of hang it exists to shed.
	var deadline <-chan time.Time
	if s.timeout > 0 {
		t := getTimer(s.timeout)
		defer putTimer(t)
		deadline = t.C
	}
	// A lone query with no deadline serves itself (see admit).
	self := len(qs) == 1 && deadline == nil
	// expired latches once the deadline has fired: the timer channel
	// yields exactly once, so nothing may select on it again, and every
	// query not yet answered is a timeout.
	expired := false
	for i := range qs {
		var r *request
		if expired {
			rs[i].Status = s.timedOut()
		} else {
			if r = lead; i > 0 { // the first query always reaches admit
				r = s.pool.Get().(*request)
			}
			if rs[i].Status = s.admit(r, client, &qs[i], rs[i].Path, deadline, self); rs[i].Status != wire.StatusOK {
				s.putRequest(r)
				r = nil
			}
			// Only a warm cut short by the deadline times out here.
			expired = rs[i].Status == wire.StatusTimeout
		}
		reqs = append(reqs, r)
	}
	for i, r := range reqs {
		if r == nil {
			continue
		}
		delivered := false
		switch {
		case expired:
		case r.state.Load() == stInline:
			delivered = true
		case deadline == nil:
			<-r.done
			delivered = true
		default:
			select {
			case <-r.done:
				delivered = true
			case <-deadline:
				expired = true
			}
		}
		if !delivered {
			if r.state.CompareAndSwap(stPending, stAbandoned) {
				// The envelope is now the worker's to reclaim; it must
				// not return to the pool through this path.
				rs[i].Status = s.timedOut()
				continue
			}
			// Lost the race: the worker delivered concurrently with the
			// deadline — consume the signal and keep the answer.
			<-r.done
		}
		rs[i].Status, rs[i].Dist, rs[i].Far, rs[i].Path = r.status, r.d, r.far, r.path
		s.putRequest(r)
		if s.ctl != nil {
			s.ctl.OnServed(client)
		}
	}
	return reqs[:0]
}

// admit takes one query through the door in envelope r and sees that it
// gets served. It returns StatusOK when r is admitted — answered inline
// or queued — or the status that resolved the query on the spot, and
// then r is the caller's to recycle.
//
// With self set — a lone query (the wave of one) with no deadline — the
// query tries its envelope's hint shard, then the neighbour, and on the
// first whose queue is empty and whose lock it gets without waiting it
// is served inline as a group of one: no queue slot, no round-robin
// tick, and the merge runs where the answer is awaited, with no hand-off
// to a worker and back. When both shards are busy it takes a slot in the
// hint shard's queue and wakes the worker, like every other query. The
// others take a slot in the round-robin shard: a wave's queries then
// run in parallel across the shards, and a deadline is never left
// waiting behind a merge its own caller runs.
func (s *Server) admit(r *request, client string, q *wire.Query, dst []graph.NodeID, deadline <-chan time.Time, self bool) uint8 {
	// An id no index could hold is refused ahead of admission, the way a
	// door refuses a line it cannot parse — and the way hubclient must,
	// the frame format having no way to carry it — so overload never
	// changes the verdict on it.
	if q.U < 0 || (q.Kind != wire.QEcc && q.V < 0) {
		s.refused.Add(1)
		return wire.StatusBadRequest
	}
	if s.ctl != nil && s.ctl.Shed(client) {
		s.shed.Add(1)
		return wire.StatusOverloaded
	}
	// Lazily materialized capability state (the matrix next-hop table,
	// the inverted eccentricity lists) is warmed here, on the submitting
	// side: the one-time build blocks only this caller, never a shard
	// worker with other clients' requests queued behind it. The warm is
	// panic-contained and deadline-bounded (warmFor); once a snapshot is
	// warmed the check is one atomic load.
	if q.Kind != wire.QDist {
		if err := s.warmFor(q.Kind, deadline); err != nil {
			return wire.StatusOf(err)
		}
	}
	r.kind, r.u, r.v, r.path = q.Kind, q.U, q.V, dst
	r.status, r.d, r.far = wire.StatusOK, graph.Infinity, -1
	r.state.Store(stPending)
	var sh *shard
	if self {
		for k := range uint32(min(2, len(s.shards))) {
			i := (r.hint + k) % uint32(len(s.shards))
			if c := s.shards[i]; len(c.ch) == 0 && c.mu.TryLock() {
				r.hint = i
				r.state.Store(stInline)
				c.reqs[0] = r
				s.serveGroup(c, 1)
				c.mu.Unlock()
				return wire.StatusOK
			}
		}
		sh = s.shards[r.hint]
	} else {
		sh = s.shards[s.rr.Add(1)%uint64(len(s.shards))]
	}
	select {
	case sh.ch <- r:
	default:
		s.rejected.Add(1)
		if s.ctl != nil {
			s.ctl.OnQueueFull(client)
		}
		return wire.StatusOverloaded
	}
	sh.signal()
	return wire.StatusOK
}

// timedOut accounts one query abandoned at the deadline.
func (s *Server) timedOut() uint8 {
	s.timeouts.Add(1)
	s.health.noteTimeout()
	return wire.StatusTimeout
}

// TryQuery answers one distance query: Do's wave of one, its status as
// an error of the Err* family.
func (s *Server) TryQuery(client string, u, v graph.NodeID) (graph.Weight, error) {
	qs := [1]wire.Query{{Kind: wire.QDist, U: u, V: v}}
	var rs [1]wire.Result
	s.Do(client, qs[:], rs[:])
	return rs[0].Dist, wire.StatusError(rs[0].Status)
}

// TryPath answers one witness-path query: the path vertices (u→v
// inclusive) are appended to dst, whose ownership stays with the caller
// — reusing it keeps the call allocation-free apart from the path
// storage itself. Nothing is appended for unreachable pairs.
func (s *Server) TryPath(client string, u, v graph.NodeID, dst []graph.NodeID) ([]graph.NodeID, error) {
	qs := [1]wire.Query{{Kind: wire.QPath, U: u, V: v}}
	rs := [1]wire.Result{{Path: dst}}
	s.Do(client, qs[:], rs[:])
	return rs[0].Path, wire.StatusError(rs[0].Status)
}

// TryEccentricity answers one eccentricity query.
func (s *Server) TryEccentricity(client string, v graph.NodeID) (graph.Weight, error) {
	qs := [1]wire.Query{{Kind: wire.QEcc, U: v}}
	var rs [1]wire.Result
	s.Do(client, qs[:], rs[:])
	return rs[0].Dist, wire.StatusError(rs[0].Status)
}

// putRequest scrubs an answered envelope and returns it to the pool. The
// path buffer belongs to the caller, so the reference must not survive
// into the pool.
func (s *Server) putRequest(r *request) {
	r.path = nil
	s.pool.Put(r)
}

// timerPool recycles deadline timers across calls so the QueryTimeout
// path stays allocation-free in steady state.
var timerPool = sync.Pool{New: func() any { return time.NewTimer(time.Hour) }}

func getTimer(d time.Duration) *time.Timer {
	t := timerPool.Get().(*time.Timer)
	t.Reset(d)
	return t
}

func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// warmFlight single-flights one capability warm per snapshot. The first
// cold request starts the warm in a goroutine and every concurrent cold
// request waits on the same broadcast channel, each bounded by its own
// deadline; a failed attempt resets to cold so the next request retries
// instead of the failure poisoning the snapshot, while a completed warm
// flips the fast-path flag for good.
type warmFlight struct {
	warmed atomic.Bool
	mu     sync.Mutex
	// done broadcasts the in-flight attempt's completion; nil when no
	// attempt is running. err is the attempt's outcome, written before
	// the close so waiters read it race-free after the channel fires.
	done chan struct{}
	err  error
}

// warmFor runs the capability warm for a query kind, bounded by the deadline and
// contained against panics. The common case — the snapshot has already
// warmed this capability — is one atomic load; cold requests join the
// snapshot's single warm attempt so their waits can be abandoned at the
// deadline (the warm itself keeps running and completes the snapshot
// for everyone behind it).
func (s *Server) warmFor(kind uint8, deadline <-chan time.Time) error {
	// The common case reads the installed snapshot unpinned: it touches
	// no index memory, and a pin would be one more write every caller
	// shares.
	if snap := s.snap.Load(); snap.warm == nil || snap.flight(kind).warmed.Load() {
		return nil
	}
	snap := s.pin()
	if snap == nil {
		return ErrClosed
	}
	w := snap.flight(kind)
	w.mu.Lock()
	ch := w.done
	if ch == nil {
		if w.warmed.Load() {
			w.mu.Unlock()
			snap.unpin()
			return nil
		}
		ch = make(chan struct{})
		w.done = ch
		// A second reference for the warm goroutine: the caller's pin
		// holds refs nonzero, so a plain Add cannot resurrect a retired
		// snapshot here.
		snap.refs.Add(1)
		go s.runWarm(snap, kind, w, ch)
	}
	w.mu.Unlock()
	if deadline != nil {
		select {
		case <-ch:
		case <-deadline:
			snap.unpin()
			s.timedOut()
			return ErrTimeout
		}
	} else {
		<-ch
	}
	// Relock to read the outcome: a retry attempt may already be
	// rewriting err, and the mutex orders that rewrite against this read.
	w.mu.Lock()
	err := w.err
	w.mu.Unlock()
	snap.unpin()
	if err != nil {
		s.faulted.Add(1)
	}
	return err
}

// flight is the snapshot's single-flight warm of the capability a
// query kind needs.
func (snap *snapshot) flight(kind uint8) *warmFlight {
	if kind == wire.QPath {
		return &snap.pathsWarm
	}
	return &snap.eccWarm
}

// runWarm executes one capability warm attempt, contained against
// panics — a fault on a lost page of a truncated mapping included, as
// in serveGroup. It owns one snapshot reference and the flight's
// broadcast channel.
func (s *Server) runWarm(snap *snapshot, kind uint8, w *warmFlight, ch chan struct{}) {
	debug.SetPanicOnFault(true) // this goroutine only ever runs the warm
	defer snap.unpin()
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				s.panics.Add(1)
				s.health.notePanic()
				err = ErrBackendFault
			}
		}()
		if ferr := faultinject.Fire(faultinject.PointServerWarm); ferr != nil {
			return ErrBackendFault
		}
		if kind == wire.QPath {
			snap.warm.WarmPaths()
		} else {
			snap.warm.WarmEccentricity()
		}
		return nil
	}()
	w.mu.Lock()
	w.err = err
	if err == nil {
		w.warmed.Store(true)
	}
	w.done = nil
	w.mu.Unlock()
	close(ch)
}

// Index returns the currently served index snapshot. The reference is
// unpinned: an index installed as owned (OwnIndex, SwapRetire) may be
// released as soon as a reload retires it, so callers must not retain
// the return value across swaps — use Meta for per-request metadata.
func (s *Server) Index() index.Index { return s.snap.Load().idx }

// Meta returns the currently served index's metadata under a snapshot
// pin, so it stays safe against a concurrent retire of a view-backed
// index. After Close of an owned final snapshot it returns the zero
// Meta.
func (s *Server) Meta() index.Meta {
	snap := s.pin()
	if snap == nil {
		return index.Meta{}
	}
	defer snap.unpin()
	return snap.idx.Meta()
}

// Swap atomically replaces the served index and returns the previous one.
// In-flight groups finish on the snapshot they started with; every
// request picked up afterwards is served by next. The two indexes may
// cover different graphs — callers own that transition, and the caller
// keeps the returned index: Swap never takes ownership of next and never
// releases the old index on its own. (If the old index was installed as
// owned — OwnIndex or SwapRetire — that standing obligation still fires
// once in-flight queries drain; the returned value is then only good
// until that moment. Don't mix the two styles on the same index.)
func (s *Server) Swap(next index.Index) index.Index {
	ns := newSnapshot(next, false)
	ns.gen = s.gen.Add(1)
	old := s.snap.Swap(ns)
	idx := old.idx
	old.retire()
	s.wakeAll()
	return idx
}

// SwapRetire atomically replaces the served index with next, taking
// ownership of it, and retires the previous snapshot: once the last
// in-flight query on it drains, its resources are released
// (index.Releaser — for a view-backed index, the munmap). No query is
// ever dropped or served from unmapped memory: in-flight groups hold
// pins, and the release runs on whichever goroutine drops the last one.
// This is the hot-reload door (hubserve /reload, SIGHUP).
func (s *Server) SwapRetire(next index.Index) {
	ns := newSnapshot(next, true)
	ns.gen = s.gen.Add(1)
	old := s.snap.Swap(ns)
	old.retire()
	s.wakeAll()
}

// wakeAll signals every worker after a swap: a woken worker moves its
// shard's pin to the installed snapshot (see run), so a retired index is
// released as soon as its in-flight groups drain, even on a server with
// no traffic to move the pins. The close gate keeps the signals off
// closed wake channels; a closing server's workers drop their pins as
// they exit.
func (s *Server) wakeAll() {
	gate := s.shards[0]
	if !s.acquire(gate) {
		return
	}
	for _, sh := range s.shards {
		sh.signal()
	}
	s.release(gate)
}

// Stats is a point-in-time view of served traffic.
type Stats struct {
	// Shards is the worker count.
	Shards int
	// Served is the total number of requests answered — with a result
	// or with a refusal of their vertex ids (StatusBadRequest).
	Served uint64
	// Batches is the number of DistanceBatch groups issued; Served /
	// Batches approximates the achieved coalescing factor (≤ 3).
	Batches uint64
	// Rejected counts requests turned away because their shard queue
	// was full at arrival.
	Rejected uint64
	// Shed counts requests dropped at the door by the fair admission
	// controller (always 0 without Options.Admission).
	Shed uint64
	// PerClientHot estimates the number of distinct client flows the
	// admission controller is currently throttling (0 without a
	// controller).
	PerClientHot int
	// Queued is the instantaneous number of admitted requests waiting in
	// the shard queues (a pressure gauge, not a counter). A lone query
	// served inline never takes a queue slot, so it is never counted.
	Queued int
	// Panics counts recovered backend panics (events, not requests): a
	// group that panics mid-merge is recovered by whoever was serving
	// it, which fails the group with ErrBackendFault and resumes; a capability warm that panics counts
	// here too. A nonzero value means the backend misbehaved and the
	// server contained it.
	Panics uint64
	// Faulted counts requests that resolved with ErrBackendFault. One
	// panic event may fault up to batchSize requests.
	Faulted uint64
	// Timeouts counts requests abandoned at Options.QueryTimeout.
	Timeouts uint64
	// HotHits / HotMisses / HotEvicts aggregate the per-shard hot
	// result caches (all zero when Options.HotCache is 0). A hit is a
	// distance request answered without touching the index; hits are
	// counted in Served like any other answer but never in Batches,
	// so Served/Batches can exceed the coalescing factor on cache-warm
	// workloads. HotHits + HotMisses equals the number of distance
	// requests that probed a cache.
	HotHits   uint64
	HotMisses uint64
	HotEvicts uint64
	// Health is the fault-health state (healthy / degraded / failed),
	// derived from recent panic and timeout counts — never from
	// Rejected/Shed, because shedding under overload is the designed
	// behavior, not a fault. HealthReason says which threshold tripped.
	Health       HealthState
	HealthReason string
	// PerShard is the served count of each shard.
	PerShard []uint64
}

// Stats returns a snapshot of the served-traffic counters. A request's
// outcome is visible here no later than its reply: every query of a Do
// call has been counted exactly once across Served / Rejected / Shed /
// Faulted / Timeouts by the time the call returns, and those five
// buckets sum exactly to the number of queries submitted while the
// server was open.
func (s *Server) Stats() Stats {
	st := Stats{Shards: len(s.shards), PerShard: make([]uint64, len(s.shards))}
	for i, sh := range s.shards {
		n := sh.served.Load()
		st.PerShard[i] = n
		st.Served += n
		st.Batches += sh.batches.Load()
		st.Queued += len(sh.ch)
	}
	st.Served += s.refused.Load()
	for _, sh := range s.shards {
		if sh.cache != nil {
			h, m, e := sh.cache.Stats()
			st.HotHits += h
			st.HotMisses += m
			st.HotEvicts += e
		}
	}
	st.Rejected = s.rejected.Load()
	st.Shed = s.shed.Load()
	st.Panics = s.panics.Load()
	st.Faulted = s.faulted.Load()
	st.Timeouts = s.timeouts.Load()
	st.Health, st.HealthReason = s.health.state()
	if s.ctl != nil {
		st.PerClientHot = s.ctl.Stats().HotFlows
	}
	return st
}

// Health returns the current fault-health state and the reason it is
// not healthy ("ok" when it is) — the /healthz hook.
func (s *Server) Health() (HealthState, string) { return s.health.state() }

// Close stops the workers and waits for them to drain. It is safe to
// call concurrently with Do: calls that lose the race resolve
// StatusClosed, calls already past the gate are answered before the
// workers exit. Only the first caller performs the drain, later calls
// return immediately. Stats remains usable after Close. A final
// snapshot that was owned (Options.OwnIndex, SwapRetire) is retired
// too, releasing its resources after the workers drain so an owned
// mapping can never outlive the server.
func (s *Server) Close() {
	if s.closing.Swap(true) {
		return
	}
	// Wait for every submission that passed the gate to leave before
	// closing the wake channels — a signal can then never hit a closed
	// channel. Whatever is still queued (envelopes abandoned at their
	// deadline) has a wake token pending, so each worker drains it
	// before its range over wake ends.
	for _, sh := range s.shards {
		for sh.active.Load() != 0 {
			<-s.drained
		}
	}
	for _, sh := range s.shards {
		close(sh.wake)
	}
	s.wg.Wait()
	// Workers are gone and no submission can pass the gate: retiring the
	// final snapshot now releases an owned index with nothing in flight.
	// Un-owned snapshots keep their installed reference so Meta keeps
	// answering (release would be a no-op anyway).
	if snap := s.snap.Load(); snap.owned {
		snap.retire()
	}
}

// run is the shard worker loop: park until signalled, then lock the
// shard — waiting out a lone submitter serving itself there — move its
// pin to the installed snapshot and drain its queue group by group
// until it is empty. Every queued request sent a token after it was
// queued, and a woken worker always drains, so none is stranded. All
// computation and delivery happens inside serveGroup, which contains
// backend panics — a worker survives any number of faults and keeps
// draining its queue. Once Close has closed wake no submitter is left
// to hold the shard, and the worker drops its pin.
func (s *Server) run(sh *shard) {
	defer s.wg.Done()
	for range sh.wake {
		sh.mu.Lock()
		s.pinned(sh)
		for s.serveNext(sh) {
		}
		sh.mu.Unlock()
	}
	if sh.snap != nil {
		sh.snap.unpin()
		sh.snap = nil
	}
}

// pinned returns the snapshot the shard serves on, first moving the
// shard's pin to the installed snapshot if a swap replaced it. The
// caller must hold sh.mu. pin cannot return nil here: a group is
// served for submitters holding the close gate, and a worker runs
// before Close retires the final snapshot.
func (s *Server) pinned(sh *shard) *snapshot {
	if snap := s.snap.Load(); snap == sh.snap {
		return snap
	}
	snap := s.pin()
	if sh.snap != nil {
		sh.snap.unpin()
	}
	sh.snap = snap
	return snap
}

// serveNext is the one place a request leaves a shard queue. The
// caller must hold sh.mu: it takes up to batchSize queued requests
// without blocking and answers them as one group. It reports false when
// the queue was empty.
func (s *Server) serveNext(sh *shard) bool {
	n := 0
coalesce:
	for n < batchSize {
		select {
		case r := <-sh.ch:
			sh.reqs[n] = r
			n++
		default:
			break coalesce
		}
	}
	if n == 0 {
		return false
	}
	s.serveGroup(sh, n)
	return true
}

// serveGroup answers the group sh.reqs[:n] on one snapshot, probing the
// shard's hot cache (when enabled) for distance requests before paying
// for the merge and feeding computed answers back in, and leaves
// sh.reqs empty. It runs under sh.mu, on the worker or on a lone
// submitter serving itself, and returns normally whatever the backend
// does, so its caller always unlocks. A panic out of the backend — or
// an injected worker fault, or a fault on a page of a mapped container
// that was truncated under the mapping — is recovered here: every
// undelivered request in the group fails StatusBackendFault (counted in
// Faulted, the panic event in Panics), completions are still signaled
// so no caller ever hangs, and the shard carries on.
func (s *Server) serveGroup(sh *shard, n int) {
	// The shard's pin holds the snapshot for the whole group: a
	// concurrent SwapRetire can replace the pointer at any time, but the
	// old index is only released once this shard (and every other) has
	// moved its pin — the group always finishes on mapped memory.
	snap := s.pinned(sh)
	// Panic-on-fault turns the SIGBUS of a lost mapped page into a panic
	// the deferred recover contains. It is a per-goroutine setting, and
	// submitters serve groups too, so it is set and restored per group.
	onFault := debug.SetPanicOnFault(true)
	defer func() {
		debug.SetPanicOnFault(onFault)
		if p := recover(); p != nil {
			s.panics.Add(1)
			s.health.notePanic()
			for i := 0; i < n; i++ {
				if r := sh.reqs[i]; r != nil {
					s.failRequest(r)
				}
			}
		}
		clear(sh.reqs[:n])
	}()
	if err := faultinject.Fire(faultinject.PointServerWorker); err != nil {
		// An injected non-panic backend error fails the group the same
		// way a contained panic does, minus the panic accounting.
		for i := 0; i < n; i++ {
			s.failRequest(sh.reqs[i])
		}
		return
	}
	if sh.cache != nil {
		// Validate the cache against the snapshot this group is pinned
		// to. ResetIfStale keys on the pinned snapshot's generation, so a
		// hit is by construction an answer this exact snapshot once
		// computed — a Swap racing this group cannot smuggle an old
		// index's answer past the reset.
		sh.cache.ResetIfStale(snap.gen)
	}
	// Answer on the spot what needs no backend — a vertex outside this
	// snapshot's range (checked here, against the snapshot that serves
	// the request, so no reload can slip between check and use), a
	// distance the hot cache holds — and compact the rest to the front.
	m := 0
	for i := 0; i < n; i++ {
		r := sh.reqs[i]
		sh.reqs[i] = nil
		if uint32(r.u) >= uint32(snap.n) || (r.kind != wire.QEcc && uint32(r.v) >= uint32(snap.n)) {
			r.status = wire.StatusBadRequest
			s.deliver(r, &sh.served)
			continue
		}
		if sh.cache != nil && r.kind == wire.QDist {
			if d, ok := sh.cache.Lookup(hotcache.Key(r.u, r.v)); ok {
				r.d = d
				s.deliver(r, &sh.served)
				continue
			}
		}
		sh.reqs[m] = r
		m++
	}
	n = m
	if n == 0 {
		return
	}
	allDist := true
	for i := 0; i < n; i++ {
		if sh.reqs[i].kind != wire.QDist {
			allDist = false
			break
		}
	}
	if snap.batch != nil && n > 1 && allDist {
		for i := 0; i < n; i++ {
			sh.pairs[i] = [2]graph.NodeID{sh.reqs[i].u, sh.reqs[i].v}
		}
		snap.batch.DistanceBatch(sh.pairs[:n], sh.out[:n])
		for i := 0; i < n; i++ {
			sh.reqs[i].d = sh.out[i]
		}
	} else {
		for i := 0; i < n; i++ {
			serveOne(snap, sh.reqs[i])
		}
	}
	if sh.cache != nil {
		// Computed distances (including Infinity for unreachable pairs)
		// go into the cache before delivery, so an immediate repeat of
		// the same pair hits even under adversarial timing.
		for i := 0; i < n; i++ {
			if r := sh.reqs[i]; r.kind == wire.QDist {
				sh.cache.Insert(hotcache.Key(r.u, r.v), r.d)
			}
		}
	}
	// Count before replying: once done is signaled, callers may observe
	// the query as served, and Stats() must not lag behind them.
	sh.batches.Add(1)
	for i := 0; i < n; i++ {
		s.deliver(sh.reqs[i], &sh.served)
	}
}

// deliver hands a resolved request back to its waiter, counting it in
// count (a shard's served counter, or the server's faulted one) —
// unless the waiter abandoned it at the deadline, in which case the
// lock holder owns the envelope and recycles it. Exactly one of the two
// happens (the state CAS arbitrates), so a request is counted exactly
// once and a pooled envelope can never be signaled twice.
func (s *Server) deliver(r *request, count *atomic.Uint64) {
	if deliverHook != nil {
		deliverHook(r)
	}
	switch {
	case r.state.Load() == stInline:
		count.Add(1)
	case r.state.CompareAndSwap(stPending, stDelivered):
		count.Add(1)
		r.done <- struct{}{}
	default:
		s.putRequest(r)
	}
}

// failRequest resolves a request StatusBackendFault. The answer fields
// are forced to the unreachable shape so a half-computed value can
// never leak into a fault reply.
func (s *Server) failRequest(r *request) {
	r.status, r.d, r.far = wire.StatusBackendFault, graph.Infinity, -1
	s.deliver(r, &s.faulted)
}

// serveOne answers a single in-range request of any kind on one
// snapshot. Requests against capabilities the snapshot lacks degrade to
// StatusUnsupported — never a panic, and re-evaluated per snapshot so
// Swap can add or remove capabilities under live traffic.
func serveOne(snap *snapshot, r *request) {
	var err error
	switch {
	case r.kind == wire.QDist:
		r.d = snap.idx.Distance(r.u, r.v)
		return
	case r.kind == wire.QPath && snap.paths != nil:
		r.path, err = snap.paths.AppendPath(r.path, r.u, r.v)
	case r.kind == wire.QEcc && snap.ecc != nil:
		r.far, r.d, err = snap.ecc.Farthest(r.u)
	default:
		err = ErrUnsupported
	}
	// A hub-label index served from a version-1 container has the path
	// methods but no parent column: the same missing capability.
	if errors.Is(err, hub.ErrNoParents) {
		err = ErrUnsupported
	}
	r.status = wire.StatusOf(err)
}

// String summarizes the server for logs.
func (s *Server) String() string {
	st := s.Stats()
	meta := s.Meta()
	return fmt.Sprintf("server{%s n=%d shards=%d served=%d batches=%d}",
		meta.Kind, meta.Vertices, st.Shards, st.Served, st.Batches)
}
