// Package netserve is the binary network door of the serving layer: it
// speaks the internal/wire batch protocol over TCP (or any
// net.Listener) and rides the existing server.Server machinery — shard
// queues, fair admission, deadlines, hot cache — without adding any
// queueing of its own. The door is a codec over the request core: one
// goroutine per connection decodes a frame into wire.Query values,
// hands the whole wave to server.Do, and encodes the wire.Result values
// it filled as one reply frame; batching
// lives inside the frame (up to wire.MaxBatch queries), so throughput
// scales with batch size while the per-connection state stays a pair of
// reused buffers.
//
// The door is also the fleet's gossip sink: FrameGossip frames from
// peer replicas merge remote flowctl bucket state into the local
// admission controller (max-merge, see flowctl.MergeMax), so a flooder
// shed elsewhere is shed here before it costs a queue slot.
package netserve

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"hublab/internal/flowctl"
	"hublab/internal/server"
	"hublab/internal/wire"
)

// Options tunes a Door.
type Options struct {
	// MaxFrame bounds accepted frame payloads (default
	// wire.DefaultMaxFrame). Oversized frames close the connection.
	MaxFrame int
}

// Door accepts wire-protocol connections against one server.
type Door struct {
	srv      *server.Server
	ctl      *flowctl.Controller
	maxFrame int

	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	frames       atomic.Uint64
	queries      atomic.Uint64
	badFrames    atomic.Uint64
	gossipMerged atomic.Uint64
}

// Stats is a point-in-time view of door traffic.
type Stats struct {
	// Frames counts request frames answered; Queries the queries inside
	// them.
	Frames, Queries uint64
	// BadFrames counts connections dropped for protocol violations.
	BadFrames uint64
	// GossipMerged counts gossip entries that raised a local admission
	// bucket.
	GossipMerged uint64
	// Conns is the number of currently open connections.
	Conns int
}

// New returns a door serving srv. The door shares the server's
// admission controller (if any): request frames consult it through
// server.Do, and incoming gossip merges into it.
func New(srv *server.Server, opts Options) *Door {
	maxFrame := opts.MaxFrame
	if maxFrame <= 0 {
		maxFrame = wire.DefaultMaxFrame
	}
	return &Door{
		srv:      srv,
		ctl:      srv.AdmissionController(),
		maxFrame: maxFrame,
		conns:    make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on ln until Close. It owns ln and always
// returns a non-nil error (net.ErrClosed after a clean Close).
func (d *Door) Serve(ln net.Listener) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	d.ln = ln
	d.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			c.Close()
			return net.ErrClosed
		}
		d.conns[c] = struct{}{}
		d.wg.Add(1)
		d.mu.Unlock()
		go d.serveConn(c)
	}
}

// Close stops accepting, closes every open connection, and waits for
// the connection goroutines to drain. Safe to call more than once.
func (d *Door) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.wg.Wait()
		return
	}
	d.closed = true
	ln := d.ln
	for c := range d.conns {
		c.Close()
	}
	d.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	d.wg.Wait()
}

// Kill abruptly closes every open connection (the listener keeps
// accepting) — the chaos hook that simulates a replica dropping its
// clients mid-batch without a graceful shutdown.
func (d *Door) Kill() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for c := range d.conns {
		c.Close()
	}
}

// Stats returns the door's traffic counters.
func (d *Door) Stats() Stats {
	d.mu.Lock()
	conns := len(d.conns)
	d.mu.Unlock()
	return Stats{
		Frames:       d.frames.Load(),
		Queries:      d.queries.Load(),
		BadFrames:    d.badFrames.Load(),
		GossipMerged: d.gossipMerged.Load(),
		Conns:        conns,
	}
}

// connState is the per-connection scratch: every buffer is reused
// across frames, so a connection serving any number of batches settles
// into zero allocations per frame — including frames that are entirely
// shed by admission.
type connState struct {
	client  string // admission identity: remote host until a hello renames it
	payload []byte
	reply   []byte
	qs      []wire.Query
	rs      []wire.Result
	gossip  []wire.GossipEntry
}

func (d *Door) serveConn(c net.Conn) {
	defer d.wg.Done()
	defer func() {
		d.mu.Lock()
		delete(d.conns, c)
		d.mu.Unlock()
		c.Close()
	}()
	st := &connState{client: ClientID(c.RemoteAddr().String())}
	br := bufio.NewReaderSize(c, 32<<10)
	bw := bufio.NewWriterSize(c, 32<<10)
	for {
		kind, payload, err := wire.ReadFrame(br, &st.payload, d.maxFrame)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				d.badFrames.Add(1)
			}
			return
		}
		switch kind {
		case wire.FrameHello:
			name, err := wire.ParseHello(payload)
			if err != nil {
				d.badFrames.Add(1)
				return
			}
			if name != "" {
				st.client = name
			}
		case wire.FrameGossip:
			if !d.mergeGossip(st, payload) {
				d.badFrames.Add(1)
				return
			}
		case wire.FrameRequest:
			id, qs, err := wire.ParseRequest(payload, st.qs[:0])
			if err != nil {
				d.badFrames.Add(1)
				return
			}
			st.qs = qs
			d.frames.Add(1)
			d.queries.Add(uint64(len(qs)))
			d.answer(st, qs)
			frame, err := wire.AppendReply(st.reply[:0], id, st.rs)
			if err != nil {
				// Only possible for an over-long path; drop the
				// connection rather than desync the stream.
				d.badFrames.Add(1)
				return
			}
			st.reply = frame
			if _, err := bw.Write(frame); err != nil {
				return
			}
			if br.Buffered() > 0 {
				continue // more pipelined frames queued; flush once drained
			}
			if err := bw.Flush(); err != nil {
				return
			}
		default:
			// ParseReply-only kinds (FrameReply) are client-bound;
			// receiving one here is a protocol violation.
			d.badFrames.Add(1)
			return
		}
	}
}

// answer resolves one request frame into st.rs, reusing its storage
// (each slot's path buffer included) from the previous frame.
func (d *Door) answer(st *connState, qs []wire.Query) {
	if cap(st.rs) < len(qs) {
		st.rs = make([]wire.Result, len(qs))
	}
	st.rs = st.rs[:len(qs)]
	for i := range st.rs {
		st.rs[i].Path = st.rs[i].Path[:0]
	}
	d.srv.Do(st.client, qs, st.rs)
}

// mergeGossip folds a peer's bucket deltas into the local admission
// controller. Frames whose controller shape or seed disagree with ours
// are protocol violations — merging across hash geometries would
// throttle unrelated flows.
func (d *Door) mergeGossip(st *connState, payload []byte) bool {
	seed, levels, buckets, entries, err := wire.ParseGossip(payload, st.gossip[:0])
	if err != nil {
		return false
	}
	st.gossip = entries
	if d.ctl == nil {
		return true // no controller: gossip is valid but moot
	}
	if seed != d.ctl.Seed() || levels != d.ctl.Levels() || buckets != d.ctl.Buckets() {
		return false
	}
	for _, e := range entries {
		changed, err := d.ctl.MergeMax(int(e.Bucket), e.Prob)
		if err != nil {
			return false
		}
		if changed {
			d.gossipMerged.Add(1)
		}
	}
	return true
}

// ClientID is the admission identity of a peer known only by its
// network address: the address without the ephemeral port, so
// reconnecting does not reset a flow's admission state. The binary door
// uses it until a hello names the connection; the HTTP door uses it for
// every request.
func ClientID(remoteAddr string) string {
	if host, _, err := net.SplitHostPort(remoteAddr); err == nil {
		return host
	}
	return remoteAddr
}
