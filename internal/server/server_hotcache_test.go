package server

import (
	"sync"
	"testing"

	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/index"
	"hublab/internal/sssp"
)

// TestServerHotCacheHits drives repeated pairs through a cached server
// and checks that (a) every answer matches ground truth regardless of
// whether it came from the cache or the merge, and (b) the cache
// actually fields the repeats.
func TestServerHotCacheHits(t *testing.T) {
	g, idx := buildIndex(t, 200, 360, 11)
	truth := sssp.AllPairs(g)
	srv := New(idx, Options{Shards: 1, HotCache: 1024})
	defer srv.Close()
	pairs := [][2]graph.NodeID{{3, 90}, {17, 17}, {5, 180}, {44, 101}}
	const rounds = 50
	for r := 0; r < rounds; r++ {
		for _, p := range pairs {
			if got := query(srv, p[0], p[1]); got != truth[p[0]][p[1]] {
				t.Fatalf("round %d (%d,%d): got %d, want %d", r, p[0], p[1], got, truth[p[0]][p[1]])
			}
			// The reversed pair must hit the same canonical entry.
			if got := query(srv, p[1], p[0]); got != truth[p[0]][p[1]] {
				t.Fatalf("round %d reversed (%d,%d): got %d", r, p[1], p[0], got)
			}
		}
	}
	st := srv.Stats()
	if st.HotHits == 0 {
		t.Fatalf("no cache hits over %d repeats: %+v", rounds, st)
	}
	if st.HotHits+st.HotMisses == 0 || st.HotMisses > st.HotHits {
		t.Fatalf("repeat-heavy traffic should be hit-dominated: hits=%d misses=%d", st.HotHits, st.HotMisses)
	}
	if want := uint64(rounds * len(pairs) * 2); st.Served != want {
		t.Fatalf("served %d, want %d (hits must count as served)", st.Served, want)
	}
}

// TestServerHotCacheSwapInvalidates is the coherence test: warm the
// cache on one graph, swap in an index over a different graph, and
// require the very next query to answer from the new graph — a stale
// hit would return the old distance.
func TestServerHotCacheSwapInvalidates(t *testing.T) {
	g1, idx1 := buildIndex(t, 150, 270, 21)
	g2, err := gen.Gnm(150, 270, 22) // different seed, different distances
	if err != nil {
		t.Fatal(err)
	}
	idx2, err := index.NewHubLabels(g2)
	if err != nil {
		t.Fatal(err)
	}
	truth1 := sssp.AllPairs(g1)
	truth2 := sssp.AllPairs(g2)
	// Find a pair whose distance differs between the graphs, so a stale
	// cache entry is distinguishable from a correct recompute.
	var pu, pv graph.NodeID = -1, -1
	for u := graph.NodeID(0); u < 150 && pu < 0; u++ {
		for v := u + 1; v < 150; v++ {
			if truth1[u][v] != truth2[u][v] {
				pu, pv = u, v
				break
			}
		}
	}
	if pu < 0 {
		t.Fatal("fixture graphs agree everywhere; pick new seeds")
	}
	srv := New(idx1, Options{Shards: 1, HotCache: 256})
	defer srv.Close()
	for i := 0; i < 10; i++ { // warm the entry well past the first miss
		if got := query(srv, pu, pv); got != truth1[pu][pv] {
			t.Fatalf("pre-swap: got %d, want %d", got, truth1[pu][pv])
		}
	}
	if st := srv.Stats(); st.HotHits == 0 {
		t.Fatal("entry never became hot before the swap")
	}
	old := srv.Swap(idx2)
	if old != idx1 {
		t.Fatal("Swap returned the wrong index")
	}
	for i := 0; i < 3; i++ {
		if got := query(srv, pu, pv); got != truth2[pu][pv] {
			t.Fatalf("post-swap query %d: got %d, want %d (stale cache?)", i, got, truth2[pu][pv])
		}
	}
}

// TestServerHotCacheConcurrentSwaps hammers a cached server from many
// goroutines while snapshots swap between two indexes over the same
// graph. Both snapshots answer identically, so every reply has exactly
// one correct value no matter which generation served it — any
// cross-generation cache confusion shows up as a wrong distance, and
// the race detector watches the single-writer cache arrays.
func TestServerHotCacheConcurrentSwaps(t *testing.T) {
	g, idxA := buildIndex(t, 200, 360, 31)
	idxB, err := index.NewHubLabels(g)
	if err != nil {
		t.Fatal(err)
	}
	truth := sssp.AllPairs(g)
	srv := New(idxA, Options{Shards: 3, HotCache: 512})
	defer srv.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan string, 1)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				// Zipf-ish: a few hot pairs plus a cold tail.
				u := graph.NodeID((c + k*k) % 7 * 11 % 200)
				v := graph.NodeID((k % 13) * 15 % 200)
				if got := query(srv, u, v); got != truth[u][v] {
					select {
					case fail <- "mismatch under swaps":
					default:
					}
					return
				}
			}
		}(c)
	}
	cur := 0
	for i := 0; i < 40; i++ {
		if cur == 0 {
			srv.Swap(idxB)
		} else {
			srv.Swap(idxA)
		}
		cur = 1 - cur
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}
