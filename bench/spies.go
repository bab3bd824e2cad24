package main

import (
	"net"

	"hublab/internal/graph"
	"hublab/internal/hub"
	"hublab/internal/index"
)

// The traced run sees inside the stack through the three seams its
// public API already has — a hub.LabelStore under index.FromStore, an
// index.Index under server.New, a net.Listener under Door.Serve — each
// decorated with a wrapper that records a span around the calls on the
// distance path and forwards everything else untouched. The untraced
// run installs none of them.

// storeSpy times the merge kernel.
type storeSpy struct {
	hub.LabelStore
	tr *tracer
}

func (s *storeSpy) Query(u, v graph.NodeID) (graph.Weight, bool) {
	t := s.tr.now()
	d, ok := s.LabelStore.Query(u, v)
	s.tr.record(kHubQuery, t, 1)
	return d, ok
}

func (s *storeSpy) QueryBatch(pairs [][2]graph.NodeID, out []graph.Weight) {
	t := s.tr.now()
	s.LabelStore.QueryBatch(pairs, out)
	s.tr.record(kHubBatch, t, len(pairs))
}

// indexSpy times index.HubLabels on top of a (spied) store. Embedding
// the concrete index forwards its optional capabilities — Batcher,
// PathReporter, EccentricityReporter, CapabilityWarmer, Releaser — so
// the server sees the same capability set as without the spy.
type indexSpy struct {
	*index.HubLabels
	tr *tracer
}

var (
	_ index.Batcher              = (*indexSpy)(nil)
	_ index.PathReporter         = (*indexSpy)(nil)
	_ index.EccentricityReporter = (*indexSpy)(nil)
	_ index.CapabilityWarmer     = (*indexSpy)(nil)
	_ index.Releaser             = (*indexSpy)(nil)
)

func (x *indexSpy) Distance(u, v graph.NodeID) graph.Weight {
	t := x.tr.now()
	d := x.HubLabels.Distance(u, v)
	x.tr.record(kIndexDistance, t, 1)
	return d
}

func (x *indexSpy) DistanceBatch(pairs [][2]graph.NodeID, out []graph.Weight) {
	t := x.tr.now()
	x.HubLabels.DistanceBatch(pairs, out)
	x.tr.record(kIndexBatch, t, len(pairs))
}

// spyIndex wraps store in both spies.
func spyIndex(store hub.LabelStore, tr *tracer) *indexSpy {
	return &indexSpy{HubLabels: index.FromStore(&storeSpy{LabelStore: store, tr: tr}), tr: tr}
}

// listenerSpy hands out connections that time the door's work on each
// burst of frames: from the read that delivers request bytes to the
// write that carries the replies out.
type listenerSpy struct {
	net.Listener
	tr *tracer
}

func (l *listenerSpy) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &connSpy{Conn: c, tr: l.tr, open: -1}, nil
}

// connSpy is used by the one door goroutine that serves the connection,
// so its fields need no synchronisation.
type connSpy struct {
	net.Conn
	tr   *tracer
	open int64 // start of the interval in progress, -1 when idle
}

func (c *connSpy) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.open < 0 {
		c.open = c.tr.now()
	}
	return n, err
}

func (c *connSpy) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.open >= 0 {
		c.tr.record(kFrame, c.open, 0)
		c.open = -1
	}
	return n, err
}
