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

// TestServerMixedKindsConcurrent hammers all three kinds from many
// goroutines over small queues so the workers see mixed coalesced groups;
// every request must be answered or rejected cleanly, and Stats must
// account for each served request exactly once.
func TestServerMixedKindsConcurrent(t *testing.T) {
	g, idx := buildIndex(t, 150, 270, 7)
	srv := New(idx, Options{Shards: 2, QueueDepth: 4})
	defer srv.Close()
	n := graph.NodeID(g.NumNodes())
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	var served, rejected atomic.Uint64
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []graph.NodeID
			for i := 0; i < perG; i++ {
				u, v := graph.NodeID((w*31+i)%int(n)), graph.NodeID((w*17+i*3)%int(n))
				var err error
				switch i % 3 {
				case 0:
					_, err = srv.TryQuery("c", u, v)
				case 1:
					buf, err = srv.TryPath("c", u, v, buf[:0])
				default:
					_, err = srv.TryEccentricity("c", u)
				}
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, ErrOverloaded):
					rejected.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := srv.Stats()
	if st.Served != served.Load() {
		t.Errorf("Stats.Served = %d, answered %d", st.Served, served.Load())
	}
	if st.Rejected+st.Shed != rejected.Load() {
		t.Errorf("Stats.Rejected+Shed = %d, turned away %d", st.Rejected+st.Shed, rejected.Load())
	}
	if served.Load()+rejected.Load() != goroutines*perG {
		t.Errorf("accounted %d of %d requests", served.Load()+rejected.Load(), goroutines*perG)
	}
}
