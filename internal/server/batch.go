package server

import (
	"sync"

	"hublab/internal/flowctl"
	"hublab/internal/graph"
	"hublab/internal/wire"
)

// wave is the reusable scratch of one large Do call — the in-flight
// envelope of each query — plus the typed queries and results
// TryQueryBatch translates its pairs through. Pooled so the core
// allocates nothing in steady state regardless of wave size.
type wave struct {
	reqs []*request
	qs   []wire.Query
	rs   []wire.Result
}

var wavePool = sync.Pool{New: func() any { return new(wave) }}

// AdmissionController returns the server's fair admission controller,
// or nil when Options.Admission was not set. Fleet gossip reads
// snapshots from it and merges remote bucket state into it; the
// serving path itself never needs this accessor.
func (s *Server) AdmissionController() *flowctl.Controller { return s.ctl }

// TryQueryBatch answers pairs[k] into out[k] with a per-query error in
// errs[k]: Do's wave of distance queries for callers holding pairs. out
// and errs must each hold len(pairs) entries.
func (s *Server) TryQueryBatch(client string, pairs [][2]graph.NodeID, out []graph.Weight, errs []error) {
	w := wavePool.Get().(*wave)
	w.qs, w.rs = w.qs[:0], w.rs[:0]
	for _, p := range pairs {
		w.qs = append(w.qs, wire.Query{Kind: wire.QDist, U: p[0], V: p[1]})
		w.rs = append(w.rs, wire.Result{})
	}
	w.reqs = s.do(w.reqs[:0], client, w.qs, w.rs)
	for i := range w.rs {
		out[i], errs[i] = w.rs[i].Dist, wire.StatusError(w.rs[i].Status)
	}
	wavePool.Put(w)
}
