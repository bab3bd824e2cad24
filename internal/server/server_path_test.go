package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"hublab/internal/graph"
	"hublab/internal/index/indextest"
	"hublab/internal/wire"
)

// TestServerPathAndEccDoors drives the new query kinds end to end through
// the shard queues against a real hub-labels index: paths must be
// edge-valid and weigh the served distance, eccentricities must match the
// farthest door, and reused buffers must come back extended in place.
func TestServerPathAndEccDoors(t *testing.T) {
	g, idx := buildIndex(t, 200, 360, 3)
	srv := New(idx, Options{Shards: 2})
	defer srv.Close()

	var buf []graph.NodeID
	for k := 0; k < 200; k++ {
		u := graph.NodeID(k % g.NumNodes())
		v := graph.NodeID((k * 37) % g.NumNodes())
		d, err := srv.TryQuery("c", u, v)
		if err != nil {
			t.Fatalf("TryQuery: %v", err)
		}
		buf = buf[:0]
		buf, err = srv.TryPath("c", u, v, buf)
		if err != nil {
			t.Fatalf("TryPath(%d,%d): %v", u, v, err)
		}
		if msg := indextest.CheckPath(g, u, v, buf, d); msg != "" {
			t.Fatalf("path(%d,%d): %s", u, v, msg)
		}
	}
	for v := graph.NodeID(0); v < 20; v++ {
		ecc, err := srv.TryEccentricity("c", v)
		if err != nil {
			t.Fatalf("TryEccentricity: %v", err)
		}
		rs := make([]wire.Result, 1)
		srv.Do("c", []wire.Query{{Kind: wire.QEcc, U: v}}, rs)
		if rs[0].Status != wire.StatusOK || rs[0].Dist != ecc {
			t.Fatalf("Do ecc(%d) = status %d, %d; TryEccentricity %d", v, rs[0].Status, rs[0].Dist, ecc)
		}
		if got, err := srv.TryQuery("c", v, rs[0].Far); err != nil || got != ecc {
			t.Fatalf("distance(%d, far=%d) = %d/%v, ecc %d", v, rs[0].Far, got, err, ecc)
		}
	}
}

// TestServerUnsupportedKinds: a backend without the capabilities answers
// ErrUnsupported (never panics), and a Swap to a capable index clears the
// condition under live traffic.
func TestServerUnsupportedKinds(t *testing.T) {
	srv := New(&indextest.Fixed{N: 50}, Options{Shards: 1})
	defer srv.Close()
	if _, err := srv.TryPath("c", 0, 3, nil); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("TryPath on fixed index = %v, want ErrUnsupported", err)
	}
	if _, err := srv.TryEccentricity("c", 0); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("TryEccentricity on fixed index = %v, want ErrUnsupported", err)
	}

	g, idx := buildIndex(t, 60, 100, 5)
	srv.Swap(idx)
	p, err := srv.TryPath("c", 0, graph.NodeID(g.NumNodes()-1), nil)
	if err != nil {
		t.Fatalf("TryPath after Swap: %v", err)
	}
	if len(p) == 0 {
		t.Fatal("TryPath after Swap returned no path on a connected graph")
	}
}

// TestServerMixedKindsConcurrent hammers all three kinds, as single
// queries and as waves of 2–5 distances, from many goroutines over small
// queues, so the shards see mixed coalesced groups and lone queries
// serving themselves contend for shard ownership with workers draining
// waves — on one shard and on two. Every request must be answered or
// rejected cleanly (a lost wake-up hangs the test), and Stats must
// account for each served request exactly once.
func TestServerMixedKindsConcurrent(t *testing.T) {
	g, idx := buildIndex(t, 150, 270, 7)
	n := graph.NodeID(g.NumNodes())
	for _, shards := range []int{1, 2} {
		srv := New(idx, Options{Shards: shards, QueueDepth: 4})
		const goroutines, perG = 8, 200
		var wg sync.WaitGroup
		var submitted, served, rejected atomic.Uint64
		count := func(err error) bool {
			switch {
			case err == nil:
				served.Add(1)
			case errors.Is(err, ErrOverloaded):
				rejected.Add(1)
			default:
				t.Errorf("shards=%d: unexpected error: %v", shards, err)
				return false
			}
			return true
		}
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var buf []graph.NodeID
				var pairs [5][2]graph.NodeID
				var out [5]graph.Weight
				var errs [5]error
				for i := 0; i < perG; i++ {
					u, v := graph.NodeID((w*31+i)%int(n)), graph.NodeID((w*17+i*3)%int(n))
					var err error
					switch i % 4 {
					case 0:
						_, err = srv.TryQuery("c", u, v)
					case 1:
						buf, err = srv.TryPath("c", u, v, buf[:0])
					case 2:
						_, err = srv.TryEccentricity("c", u)
					default:
						k := 2 + (w+i)%4
						for j := 0; j < k; j++ {
							pairs[j] = [2]graph.NodeID{(u + graph.NodeID(j)) % n, (v + graph.NodeID(7*j)) % n}
						}
						srv.TryQueryBatch("c", pairs[:k], out[:k], errs[:k])
						submitted.Add(uint64(k))
						for j := 0; j < k; j++ {
							if !count(errs[j]) {
								return
							}
						}
						continue
					}
					submitted.Add(1)
					if !count(err) {
						return
					}
				}
			}(w)
		}
		wg.Wait()
		st := srv.Stats()
		srv.Close()
		if st.Served != served.Load() {
			t.Errorf("shards=%d: Stats.Served = %d, answered %d", shards, st.Served, served.Load())
		}
		if st.Rejected+st.Shed != rejected.Load() {
			t.Errorf("shards=%d: Stats.Rejected+Shed = %d, turned away %d", shards, st.Rejected+st.Shed, rejected.Load())
		}
		if served.Load()+rejected.Load() != submitted.Load() {
			t.Errorf("shards=%d: accounted %d of %d requests", shards, served.Load()+rejected.Load(), submitted.Load())
		}
	}
}
