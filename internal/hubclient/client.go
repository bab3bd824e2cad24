// Package hubclient is the Go client of the binary serving protocol
// (internal/wire): connection pooling per replica, frame-native
// batching, per-request deadlines, and hedged retries across a replica
// set.
//
// The unit that travels through the client is the submission: the slab
// of queries one caller handed over in one call — a whole DistanceBatch,
// or the batch of one behind Distance, Path and Eccentricity. A
// submission joins its replica's collector queue as one item. The
// collector packs queued submissions into frames — whole, splitting
// only at Options.MaxBatch, and coalescing whatever other callers
// queued meanwhile into the same frame — and the caller is woken once,
// by whichever resolution drops the submission's countdown to zero. A
// 16-pair DistanceBatch on an idle client is one queue hand-off, one
// frame, one write, one reply parse and one wake; a thousand concurrent
// single callers still pay ~1/1000th of the framing and syscall cost
// each.
//
// Every guarantee is kept per query, not per submission. A query
// resolves exactly once: it may be in flight on two replicas at a time
// (a hedge fired, or a retry raced a slow first attempt); whichever
// answer arrives first wins an atomic CAS and later answers are dropped
// and counted (Stats.LateDrops) — never delivered twice, never silently
// lost. Statuses and errors are per query, failover re-sends only the
// queries that failed retryably, a hedge duplicates only the queries
// still pending, and the deadline fails exactly those.
package hubclient

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hublab/internal/graph"
	"hublab/internal/wire"
)

// Typed client-side errors. Server-side statuses surface as the wire
// sentinels (wire.ErrOverloaded and friends).
var (
	// ErrNoReplicas reports that every replica is marked down.
	ErrNoReplicas = errors.New("hubclient: no live replicas")
	// ErrPoolExhausted reports that every live replica's submit queue is
	// full — the typed answer to "the pool is saturated", returned
	// immediately instead of blocking the caller behind it.
	ErrPoolExhausted = errors.New("hubclient: connection pool exhausted")
	// ErrDeadline reports a request that outlived Options.Timeout
	// client-side (distinct from wire.ErrTimeout, the replica's own
	// deadline verdict).
	ErrDeadline = errors.New("hubclient: request deadline exceeded")
	// ErrClientClosed reports a request issued after Close.
	ErrClientClosed = errors.New("hubclient: client closed")
)

// transportError wraps connection-level failures (dial, read, write,
// replica hangup). Transport errors are retryable on another replica —
// the request may never have been seen — unlike a replica's explicit
// verdict, which is final.
type transportError struct{ err error }

func (e *transportError) Error() string { return "hubclient: transport: " + e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// retryable reports whether err may be answered by trying another
// replica. wire.ErrClosed counts: the replica announced shutdown, so
// the query should fail over.
func retryable(err error) bool {
	var te *transportError
	return errors.As(err, &te) || errors.Is(err, wire.ErrClosed)
}

// Options configures a Client.
type Options struct {
	// Replicas is the replica set (host:port of binary doors). At least
	// one is required.
	Replicas []string
	// Name identifies this client to the fleet's admission controllers
	// (sent in a hello frame on every new connection). Unset, replicas
	// fall back to the connection's remote host — useless when many
	// clients share a machine, so set it.
	Name string
	// PoolSize is the number of connections kept per replica (default 2).
	PoolSize int
	// MaxBatch bounds queries per frame (default 64, capped at
	// wire.MaxBatch).
	MaxBatch int
	// QueueDepth is the per-replica collector queue, counted in
	// submissions: a DistanceBatch of any size occupies one slot, as does
	// a single query (default 256). When every live replica's queue is
	// full, the submission's queries answer ErrPoolExhausted immediately.
	QueueDepth int
	// Timeout is the per-request end-to-end deadline (default 2s).
	Timeout time.Duration
	// HedgeAfter, when positive, sends a request a second time — to a
	// different replica — if no answer arrived within this duration. The
	// first answer wins; the loser is dropped by the exactly-once CAS.
	HedgeAfter time.Duration
	// DownFor is how long a replica sits out after a dial failure
	// (default 1s). Read/write failures kill the connection but only a
	// failed dial marks the replica down.
	DownFor time.Duration
	// MaxFrame bounds accepted reply frames (default
	// wire.DefaultMaxFrame).
	MaxFrame int
}

// Stats counts client-side events since New.
type Stats struct {
	// Queries counts requests resolved (any outcome); Frames the request
	// frames written. Queries/Frames is the achieved batching factor.
	Queries, Frames uint64
	// Retries counts queries failed over after a retryable error; Hedges
	// counts hedge copies packed into frames, HedgeWins the queries a
	// hedge answered first.
	Retries, Hedges, HedgeWins uint64
	// LateDrops counts answers that lost the exactly-once race (the
	// request had already resolved — by the other attempt, the deadline,
	// or a transport verdict).
	LateDrops uint64
	// PoolExhausted counts requests refused with ErrPoolExhausted;
	// TransportErrors counts connection-level failures observed: one per
	// failed dial, one per connection that died.
	PoolExhausted, TransportErrors uint64
}

// Client is a pooled, hedging client over a replica set. Safe for
// concurrent use by any number of goroutines.
type Client struct {
	opts   Options
	reps   []*replica
	rr     atomic.Uint64
	closed atomic.Bool
	stop   chan struct{}
	// wgCollect tracks collector goroutines, wgConns reader goroutines;
	// Close drains them in that order (collectors first, so no new
	// connection can be dialed once the readers are being killed).
	wgCollect sync.WaitGroup
	wgConns   sync.WaitGroup

	queries       atomic.Uint64
	frames        atomic.Uint64
	retries       atomic.Uint64
	hedges        atomic.Uint64
	hedgeWins     atomic.Uint64
	lateDrops     atomic.Uint64
	poolExhausted atomic.Uint64
	transportErrs atomic.Uint64
}

// New returns a client over the replica set. It dials lazily: a replica
// that is down at New simply sits out until its cooldown expires.
func New(opts Options) (*Client, error) {
	if len(opts.Replicas) == 0 {
		return nil, errors.New("hubclient: no replicas configured")
	}
	if opts.PoolSize <= 0 {
		opts.PoolSize = 2
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 64
	}
	if opts.MaxBatch > wire.MaxBatch {
		opts.MaxBatch = wire.MaxBatch
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 256
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 2 * time.Second
	}
	if opts.DownFor <= 0 {
		opts.DownFor = time.Second
	}
	if opts.MaxFrame <= 0 {
		opts.MaxFrame = wire.DefaultMaxFrame
	}
	c := &Client{opts: opts, stop: make(chan struct{})}
	for _, addr := range opts.Replicas {
		rep := &replica{
			c:      c,
			addr:   addr,
			submit: make(chan attempt, opts.QueueDepth),
			conns:  make([]*rconn, opts.PoolSize),
		}
		c.reps = append(c.reps, rep)
		c.wgCollect.Add(1)
		go rep.collect()
	}
	return c, nil
}

// Close stops the collectors, hangs up every connection, and fails any
// still-queued requests. Safe to call twice.
func (c *Client) Close() {
	if c.closed.Swap(true) {
		return
	}
	close(c.stop)
	c.wgCollect.Wait()
	for _, rep := range c.reps {
		rep.mu.Lock()
		for i, rc := range rep.conns {
			if rc != nil {
				rc.kill(ErrClientClosed)
				rep.conns[i] = nil
			}
		}
		rep.mu.Unlock()
	}
	c.wgConns.Wait()
	// Fail requests still parked in the collector queues.
	for _, rep := range c.reps {
		for {
			select {
			case att := <-rep.submit:
				for i := range att.sub.calls {
					att.sub.calls[i].failAttempt(ErrClientClosed)
				}
			default:
				goto next
			}
		}
	next:
	}
}

// Stats returns the client counters.
func (c *Client) Stats() Stats {
	return Stats{
		Queries:         c.queries.Load(),
		Frames:          c.frames.Load(),
		Retries:         c.retries.Load(),
		Hedges:          c.hedges.Load(),
		HedgeWins:       c.hedgeWins.Load(),
		LateDrops:       c.lateDrops.Load(),
		PoolExhausted:   c.poolExhausted.Load(),
		TransportErrors: c.transportErrs.Load(),
	}
}

// Distance asks the fleet for the exact distance u–v.
func (c *Client) Distance(u, v graph.NodeID) (graph.Weight, error) {
	cl := c.one(wire.Query{Kind: wire.QDist, U: u, V: v})
	if cl.err != nil {
		return graph.Infinity, cl.err
	}
	return cl.res.Dist, nil
}

// Path asks for a witness path u→v, appended to dst (nothing appended
// for unreachable pairs).
func (c *Client) Path(u, v graph.NodeID, dst []graph.NodeID) ([]graph.NodeID, error) {
	cl := c.one(wire.Query{Kind: wire.QPath, U: u, V: v})
	if cl.err != nil {
		return dst, cl.err
	}
	return append(dst, cl.res.Path...), nil
}

// Eccentricity asks for v's eccentricity and the farthest vertex
// attaining it.
func (c *Client) Eccentricity(v graph.NodeID) (graph.NodeID, graph.Weight, error) {
	cl := c.one(wire.Query{Kind: wire.QEcc, U: v})
	if cl.err != nil {
		return -1, graph.Infinity, cl.err
	}
	return cl.res.Far, cl.res.Dist, nil
}

// DistanceBatch resolves pairs[k] into out[k] with per-pair errors in
// errs[k]. The batch travels as one submission: on an idle client, up
// to Options.MaxBatch pairs are one frame and one wake of the caller.
func (c *Client) DistanceBatch(pairs [][2]graph.NodeID, out []graph.Weight, errs []error) {
	if len(out) < len(pairs) || len(errs) < len(pairs) {
		panic("hubclient: DistanceBatch out/errs shorter than pairs")
	}
	if len(pairs) == 0 {
		return
	}
	calls := make([]call, len(pairs))
	for i, p := range pairs {
		calls[i].q = wire.Query{Kind: wire.QDist, U: p[0], V: p[1]}
	}
	c.run(calls)
	for i := range calls {
		out[i], errs[i] = calls[i].res.Dist, calls[i].err
		if errs[i] != nil {
			out[i] = graph.Infinity
		}
	}
}

// one runs a single query as the submission of one.
func (c *Client) one(q wire.Query) *call {
	calls := make([]call, 1)
	calls[0].q = q
	c.run(calls)
	return &calls[0]
}

// Request lifecycle states (call.state).
const (
	callPending int32 = iota
	callDone
)

// call is one in-flight query, a slot of its submission's slab. It
// resolves exactly once: answers, transport verdicts and the client
// deadline all race on one CAS from callPending, and only the winner
// writes the result fields (before counting the submission down, so the
// waiter reads them race-free).
type call struct {
	q     wire.Query
	res   wire.Result
	err   error
	state atomic.Int32
	// attempts counts in-flight submissions. A transport failure only
	// resolves the call when it drops the last attempt — if a hedge is
	// still out there, its answer gets to win instead.
	attempts atomic.Int32
	// hedgeWon marks resolution by a hedge attempt (Stats.HedgeWins).
	hedgeWon bool
	sub      *submission
}

// submission is the unit a caller hands the collectors: a slab of calls
// joined by one countdown. Whichever resolution drops pending to zero
// sends on done — one wake per submission, whatever its size.
type submission struct {
	calls   []call
	pending atomic.Int32
	done    chan struct{}
}

func newSubmission(calls []call) *submission {
	sub := &submission{calls: calls, done: make(chan struct{}, 1)}
	sub.pending.Store(int32(len(calls)))
	for i := range calls {
		calls[i].sub = sub
	}
	return sub
}

// attempt is one hand-off of a submission to one replica; hedge marks
// the speculative second copy. The collector packs only the calls still
// pending when it gets to them, so a hedge or a hand-off that sat in the
// queue duplicates nothing already answered.
type attempt struct {
	sub   *submission
	hedge bool
}

// settle is the exactly-once gate: the first resolution of a call wins
// the CAS, writes the outcome and counts the submission down. Reports
// whether this resolution won.
func (cl *call) settle(res wire.Result, err error, hedge bool) bool {
	if !cl.state.CompareAndSwap(callPending, callDone) {
		return false
	}
	cl.res, cl.err, cl.hedgeWon = res, err, hedge
	if cl.sub.pending.Add(-1) == 0 {
		cl.sub.done <- struct{}{}
	}
	return true
}

// complete resolves the call with a replica's answer and retires the
// attempt that carried it. An answer that lost the exactly-once race is
// dropped and counted.
func (cl *call) complete(c *Client, res wire.Result, hedge bool) {
	if !cl.settle(res, wire.StatusError(res.Status), hedge) {
		c.lateDrops.Add(1)
	}
	cl.attempts.Add(-1)
}

// failAttempt records that one attempt on this call died in transport
// (err is already a transport or client-closed error). The call resolves
// only when no other attempt remains in flight.
func (cl *call) failAttempt(err error) {
	if cl.attempts.Add(-1) == 0 {
		cl.settle(wire.Result{}, err, false)
	}
}

// asTransport marks err as a connection-level failure, retryable on
// another replica.
func asTransport(err error) error {
	var te *transportError
	if errors.As(err, &te) || errors.Is(err, ErrClientClosed) {
		return err
	}
	return &transportError{err: err}
}

// run drives one submission end to end — submit, await, hedge, fail
// over — and returns with every call of the slab resolved into its res
// and err fields. It is the only request path: the single-query verbs
// run a slab of one.
func (c *Client) run(calls []call) {
	n := uint64(len(calls))
	defer c.queries.Add(n)
	sub := newSubmission(calls)
	// A negative id cannot be framed. Answer it here: left in, the
	// encoder would refuse the whole frame it rode in, frame-mates and
	// all.
	for i := range calls {
		if q := &calls[i].q; q.U < 0 || (q.Kind != wire.QEcc && q.V < 0) {
			calls[i].settle(wire.Result{}, wire.ErrBadRequest, false)
		}
	}
	start := int(c.rr.Add(1) % uint64(len(c.reps)))
	tried := 0
	if err := c.submit(sub, start, &tried, false); err != nil {
		if errors.Is(err, ErrPoolExhausted) {
			c.poolExhausted.Add(n)
		}
		for i := range calls {
			calls[i].settle(wire.Result{}, err, false)
		}
		return
	}
	deadline := time.NewTimer(c.opts.Timeout)
	defer deadline.Stop()
	var hedge <-chan time.Time
	if c.opts.HedgeAfter > 0 {
		ht := time.NewTimer(c.opts.HedgeAfter)
		defer ht.Stop()
		hedge = ht.C
	}
	// back maps a failover round's slab onto the caller's: sub.calls[k]
	// re-asks calls[back[k]]. Nil on the first round, whose slab is the
	// caller's own.
	var back []int
	expired := false
	for {
		select {
		case <-sub.done:
		case <-hedge:
			hedge = nil
			if tried < len(c.reps) {
				// Best effort: a hedge no replica has room for is not sent.
				_ = c.submit(sub, start, &tried, true)
			}
			continue
		case <-deadline.C:
			expired = true
			for i := range sub.calls {
				sub.calls[i].settle(wire.Result{}, ErrDeadline, false)
			}
			// Calls that lost to a concurrent resolution keep that
			// answer; their resolvers finish the countdown.
			<-sub.done
		}
		for k, orig := range back {
			from, to := &sub.calls[k], &calls[orig]
			to.res, to.err, to.hedgeWon = from.res, from.err, from.hedgeWon
		}
		if expired || tried >= len(c.reps) {
			break
		}
		// Fail over the calls whose replica never answered (transport) or
		// announced shutdown — only those, as fresh calls. The old ones
		// are abandoned: a hedge still out on them resolves into a dead
		// slab and is dropped, never racing the retry's state machine.
		var next []call
		var nextBack []int
		for k := range sub.calls {
			if cl := &sub.calls[k]; cl.err != nil && retryable(cl.err) {
				orig := k
				if back != nil {
					orig = back[k]
				}
				next = append(next, call{q: cl.q})
				nextBack = append(nextBack, orig)
			}
		}
		if len(next) == 0 {
			break
		}
		nsub := newSubmission(next)
		if c.submit(nsub, start, &tried, false) != nil {
			break // the calls keep their original failures
		}
		c.retries.Add(uint64(len(next)))
		sub, back = nsub, nextBack
	}
	if c.opts.HedgeAfter > 0 {
		for i := range calls {
			if calls[i].err == nil && calls[i].hedgeWon {
				c.hedgeWins.Add(1)
			}
		}
	}
}

// submit hands the submission to the next live replica after
// start+tried, walking the ring until one accepts. Live replicas with
// full queues make the verdict ErrPoolExhausted; a ring with no live
// replica at all is ErrNoReplicas.
func (c *Client) submit(sub *submission, start int, tried *int, hedge bool) error {
	if c.closed.Load() {
		return ErrClientClosed
	}
	// Count the attempt on every call before the hand-off: the collector
	// may pack the submission, and a reply retire the attempt, before the
	// send below returns.
	for i := range sub.calls {
		sub.calls[i].attempts.Add(1)
	}
	sawLive := false
	for ; *tried < len(c.reps); *tried++ {
		rep := c.reps[(start+*tried)%len(c.reps)]
		if rep.isDown() {
			continue
		}
		sawLive = true
		select {
		case rep.submit <- attempt{sub: sub, hedge: hedge}:
			*tried++
			return nil
		default:
		}
	}
	for i := range sub.calls {
		sub.calls[i].attempts.Add(-1)
	}
	if sawLive {
		return ErrPoolExhausted
	}
	return ErrNoReplicas
}

// replica is one member of the replica set: a collector goroutine that
// packs the submit queue into frames, and a small connection pool.
type replica struct {
	c      *Client
	addr   string
	submit chan attempt

	mu    sync.Mutex
	conns []*rconn
	next  int

	downUntil atomic.Int64 // UnixNano; 0 = up

	// Packing state, owned by the collector goroutine: the frame being
	// filled, and the encode buffer reused across frames.
	open  *entry
	frame []byte
}

func (rep *replica) isDown() bool {
	d := rep.downUntil.Load()
	return d != 0 && time.Now().UnixNano() < d
}

func (rep *replica) markDown() {
	rep.downUntil.Store(time.Now().Add(rep.c.opts.DownFor).UnixNano())
}

// collect is the replica's batching loop: block for one submission, pack
// it and whatever else is queued into frames, ship them. Full frames
// leave as they fill; the last, partial one leaves as soon as the queue
// is empty, so nothing waits for company that is not already there.
func (rep *replica) collect() {
	defer rep.c.wgCollect.Done()
	for {
		select {
		case <-rep.c.stop:
			return
		case att := <-rep.submit:
			rep.pack(att)
		}
		for queued := true; queued; {
			select {
			case att := <-rep.submit:
				rep.pack(att)
			default:
				queued = false
			}
		}
		rep.flush()
	}
}

// pack appends the submission's still-pending calls to the open frame,
// shipping it whenever it reaches MaxBatch. Calls that resolved while
// queued (the deadline, a faster hedge) are retired here — their slots
// would only waste reply bytes.
func (rep *replica) pack(att attempt) {
	for i := range att.sub.calls {
		cl := &att.sub.calls[i]
		if cl.state.Load() != callPending {
			cl.attempts.Add(-1)
			continue
		}
		if rep.open == nil {
			rep.open = entryPool.Get().(*entry)
		}
		e := rep.open
		e.slots = append(e.slots, slot{cl: cl, hedge: att.hedge})
		e.qs = append(e.qs, cl.q)
		e.kinds = append(e.kinds, cl.q.Kind)
		if att.hedge {
			rep.c.hedges.Add(1)
		}
		if len(e.slots) == rep.c.opts.MaxBatch {
			rep.flush()
		}
	}
}

// flush ships the open frame, if any, on a pooled connection. Every
// attempt packed into it is retired exactly once on every path: by its
// reply, by the connection's death, or here when no connection is to be
// had.
func (rep *replica) flush() {
	e := rep.open
	if e == nil {
		return
	}
	rep.open = nil
	rc, err := rep.conn()
	if err != nil {
		rep.c.transportErrs.Add(1)
		rep.markDown()
		e.fail(err)
		return
	}
	// Counted before the write, so a caller woken by the reply already
	// sees its frame in Stats; a failed write takes it back.
	rep.c.frames.Add(1)
	if rc.send(e) != nil {
		rep.c.frames.Add(^uint64(0))
	}
}

// conn returns a live pooled connection, dialing if the slot under the
// rotation cursor is empty or its occupant died.
func (rep *replica) conn() (*rconn, error) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.c.closed.Load() {
		return nil, ErrClientClosed
	}
	slot := rep.next % len(rep.conns)
	rep.next = slot + 1
	if rc := rep.conns[slot]; rc != nil && !rc.dead.Load() {
		return rc, nil
	}
	// The cursor landed on an empty or dead slot: dial its replacement,
	// growing the pool toward PoolSize so frames actually fan out over
	// that many connections. If the dial fails, fall back to any live
	// connection before giving up — a replica with one working
	// connection is degraded, not down.
	nc, err := net.DialTimeout("tcp", rep.addr, rep.c.opts.Timeout)
	if err != nil {
		for i := 0; i < len(rep.conns); i++ {
			if rc := rep.conns[(slot+1+i)%len(rep.conns)]; rc != nil && !rc.dead.Load() {
				return rc, nil
			}
		}
		return nil, err
	}
	rc := &rconn{
		rep:     rep,
		nc:      nc,
		bw:      bufio.NewWriterSize(nc, 32<<10),
		pending: make(map[uint64]*entry),
	}
	if name := rep.c.opts.Name; name != "" {
		hello, herr := wire.AppendHello(nil, name)
		if herr != nil {
			nc.Close()
			return nil, herr
		}
		if _, werr := rc.bw.Write(hello); werr != nil {
			nc.Close()
			return nil, werr
		}
	}
	rep.conns[slot] = rc
	rep.c.wgConns.Add(1)
	go rc.readLoop()
	rep.downUntil.Store(0)
	return rc, nil
}

// slot is one query of a frame: the call it answers, and whether this
// copy is the hedge.
type slot struct {
	cl    *call
	hedge bool
}

// entry is one request frame's bookkeeping from packing until its reply
// or its connection's death: the calls it carries, their queries in wire
// form, and the query kinds (the positional schema ParseReply needs).
// Entries are recycled through entryPool by whoever removes them from a
// connection's pending map — ownership moves with that removal, so a
// frame is answered or failed exactly once.
type entry struct {
	slots []slot
	qs    []wire.Query
	kinds []uint8
}

var entryPool = sync.Pool{New: func() any { return new(entry) }}

// release recycles the entry. The call pointers are cleared first: a
// pooled entry must not pin a caller's slab.
func (e *entry) release() {
	clear(e.slots)
	e.slots, e.qs, e.kinds = e.slots[:0], e.qs[:0], e.kinds[:0]
	entryPool.Put(e)
}

// fail retires every attempt of the frame with a transport verdict and
// recycles the entry.
func (e *entry) fail(err error) {
	err = asTransport(err)
	for _, s := range e.slots {
		s.cl.failAttempt(err)
	}
	e.release()
}

// rconn is one pooled connection: a write path used only by its
// replica's collector goroutine, a pending-frame map, and a reader
// goroutine demultiplexing replies.
type rconn struct {
	rep  *replica
	nc   net.Conn
	dead atomic.Bool
	bw   *bufio.Writer

	nextID uint64 // last frame id issued; collector-owned like the write path

	pmu     sync.Mutex
	pending map[uint64]*entry
}

// take removes and returns the pending frame id, or nil if someone else
// already owns it.
func (rc *rconn) take(id uint64) *entry {
	rc.pmu.Lock()
	e := rc.pending[id]
	delete(rc.pending, id)
	rc.pmu.Unlock()
	return e
}

// send encodes the frame into the collector's buffer, registers it and
// writes it; a failed write kills the connection. Once registered, the
// entry belongs to whoever takes it out of pending — the reader, a kill,
// or the error path here — so nothing below the registration touches it
// otherwise.
func (rc *rconn) send(e *entry) error {
	rc.nextID++
	id := rc.nextID & 0x7fffffff // wire ids are capped at MaxInt32
	frame, err := wire.AppendRequest(rc.rep.frame[:0], id, e.qs)
	rc.rep.frame = frame
	if err != nil {
		e.fail(err)
		return err
	}
	rc.pmu.Lock()
	rc.pending[id] = e
	rc.pmu.Unlock()
	// Bound the write so a stalled replica (reading nothing, TCP window
	// shut) cannot wedge the collector goroutine forever.
	_ = rc.nc.SetWriteDeadline(time.Now().Add(rc.rep.c.opts.Timeout))
	if _, err = rc.bw.Write(frame); err == nil {
		err = rc.bw.Flush()
	}
	if err != nil {
		// Kill first: it counts the dead connection (once) before any
		// caller can wake on the failure, and fails every pending frame,
		// this one included — unless a concurrent kill swept pending
		// before the registration above, which the take covers.
		rc.kill(err)
		if e := rc.take(id); e != nil {
			e.fail(err)
		}
	}
	return err
}

// readLoop demultiplexes reply frames into their entries until the
// connection dies, then fails every outstanding attempt. The payload
// buffer and the parsed results are reused across frames.
func (rc *rconn) readLoop() {
	defer rc.rep.c.wgConns.Done()
	br := bufio.NewReaderSize(rc.nc, 32<<10)
	var buf []byte
	var rs []wire.Result
	var readErr error
	for {
		kind, payload, err := wire.ReadFrame(br, &buf, rc.rep.c.opts.MaxFrame)
		if err != nil {
			readErr = err
			break
		}
		if kind != wire.FrameReply {
			readErr = fmt.Errorf("wire: unexpected frame kind %d from replica", kind)
			break
		}
		id, err := wire.PeekReplyID(payload)
		if err != nil {
			readErr = err
			break
		}
		e := rc.take(id)
		if e == nil {
			continue // reply to a frame we already gave up on
		}
		_, rs, err = wire.ParseReply(payload, e.kinds, rs[:0])
		if err != nil {
			readErr = err
			e.fail(err)
			break
		}
		for i, s := range e.slots {
			r := rs[i]
			// rs keeps its path storage for the next frame; the call
			// gets its own copy.
			r.Path = append([]graph.NodeID(nil), r.Path...)
			s.cl.complete(rc.rep.c, r, s.hedge)
		}
		e.release()
	}
	rc.kill(readErr)
}

// kill marks the connection dead, closes it, and fails every pending
// frame. Idempotent: a connection's death is counted once, whoever
// notices it first.
func (rc *rconn) kill(err error) {
	if rc.dead.Swap(true) {
		return
	}
	if err == nil {
		err = net.ErrClosed
	}
	if !errors.Is(err, ErrClientClosed) {
		rc.rep.c.transportErrs.Add(1)
	}
	rc.nc.Close()
	rc.pmu.Lock()
	entries := make([]*entry, 0, len(rc.pending))
	for id, e := range rc.pending {
		entries = append(entries, e)
		delete(rc.pending, id)
	}
	rc.pmu.Unlock()
	for _, e := range entries {
		e.fail(err)
	}
}
