// Package servertest holds serving-layer property runners that cannot
// live in indextest without importing internal/server into its own
// test cycle.
package servertest

import (
	"math/rand"
	"testing"

	"hublab/internal/graph"
	"hublab/internal/index"
	"hublab/internal/server"
	"hublab/internal/sssp"
)

// RunCachedServing asserts that serving idx through a hot-cached server
// is answer-for-answer indistinguishable from the index itself across
// the three cache states a query can meet: cold (first touch, a miss),
// warm (a repeat, served from the cache), and post-swap cold (the
// generation bump discarded the contents). Every answer is also checked
// against brute-force truth, so a cache that returns a stale or
// corrupted value fails even if it is self-consistent.
func RunCachedServing(t *testing.T, g *graph.Graph, idx index.Index, seed int64) {
	t.Helper()
	n := g.NumNodes()
	if n == 0 {
		return
	}
	truth := sssp.AllPairs(g)
	srv := server.New(idx, server.Options{Shards: 2, HotCache: 256})
	defer srv.Close()
	rng := rand.New(rand.NewSource(seed))
	// A working set small enough to go fully hot in a 256-entry cache,
	// including u==v and (via random collisions on small n) repeats.
	pairs := make([][2]graph.NodeID, 48)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
	}
	pairs[0][1] = pairs[0][0] // force a self-pair

	check := func(phase string) {
		t.Helper()
		for _, p := range pairs {
			got, err := srv.TryQuery("cached", p[0], p[1])
			if err != nil {
				t.Fatalf("%s: TryQuery(%d,%d): %v", phase, p[0], p[1], err)
			}
			if want := truth[p[0]][p[1]]; got != want {
				t.Fatalf("%s: cached server says d(%d,%d)=%d, truth %d", phase, p[0], p[1], got, want)
			}
			if want := idx.Distance(p[0], p[1]); got != want {
				t.Fatalf("%s: cached server says d(%d,%d)=%d, index %d", phase, p[0], p[1], got, want)
			}
		}
	}

	check("cold")
	before := srv.Stats()
	check("warm")
	check("warm-repeat")
	after := srv.Stats()
	if after.HotHits <= before.HotHits {
		t.Fatalf("warm passes produced no cache hits (hits %d → %d, misses %d)",
			before.HotHits, after.HotHits, after.HotMisses)
	}
	// Swap the same index back in: answers cannot change, but the
	// generation bump must discard the cache — the cold pass still has
	// to be correct and must register fresh misses, not stale hits.
	srv.Swap(idx)
	preCold := srv.Stats()
	check("post-swap-cold")
	postCold := srv.Stats()
	if postCold.HotMisses <= preCold.HotMisses {
		t.Fatalf("post-swap pass registered no misses (misses %d → %d) — stale contents survived the swap",
			preCold.HotMisses, postCold.HotMisses)
	}
}
