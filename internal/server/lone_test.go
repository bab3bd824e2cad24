package server

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"hublab/internal/flowctl"
	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/index"
	"hublab/internal/pll"
)

// shortRoadIndex builds RoadLike(64,64,8,3) labels in degree order with
// ties broken by betweenness-sketch rank, which keeps the labels short
// (about 29 hubs per vertex against the default order's ~1 073): a
// merge then costs a few hundred nanoseconds and the server around it
// is most of a query.
func shortRoadIndex(tb testing.TB) *index.HubLabels {
	tb.Helper()
	g, err := gen.RoadLike(64, 64, 8, 3)
	if err != nil {
		tb.Fatal(err)
	}
	rank, err := pll.BetweennessSketchOrder(g, 1)
	if err != nil {
		tb.Fatal(err)
	}
	pos := make([]int, g.NumNodes())
	for i, v := range rank {
		pos[v] = i
	}
	order := make([]graph.NodeID, g.NumNodes())
	for v := range order {
		order[v] = graph.NodeID(v)
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if da, db := g.Degree(a), g.Degree(b); da != db {
			return da > db
		}
		return pos[a] < pos[b]
	})
	l, err := pll.Build(g, pll.Options{Custom: order, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return index.NewHubLabelsFrom(l)
}

// BenchmarkDoLone measures lone distance queries — the wave of one with
// no deadline, the serving benchmark's in-process door — from one and
// from two concurrent callers on a two-shard server with the hot cache
// and the admission controller on. Pairs are drawn Zipf(1.1) from a
// pool of 16 Ki, so most queries hit the cache and the cost measured is
// the dispatch around the answer. ns/op is wall time per query over all
// callers, so two callers that do not slow each other down read half
// of one caller's; q/s is the aggregate rate.
func BenchmarkDoLone(b *testing.B) {
	idx := shortRoadIndex(b)
	n := idx.Meta().Vertices
	rng := rand.New(rand.NewSource(1))
	pool := make([][2]graph.NodeID, 1<<14)
	for i := range pool {
		pool[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
	pairs := make([][2]graph.NodeID, 1<<16)
	for i := range pairs {
		pairs[i] = pool[zipf.Uint64()]
	}
	for _, callers := range []int{1, 2} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			srv := New(idx, Options{Shards: 2, HotCache: 4096, Admission: &flowctl.Options{}})
			defer srv.Close()
			for _, p := range pairs { // warm the cache and the envelope pool
				srv.TryQuery("bench", p[0], p[1])
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; i < b.N; i += callers {
						p := pairs[i&(len(pairs)-1)]
						if _, err := srv.TryQuery("bench", p[0], p[1]); err != nil {
							b.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "q/s")
		})
	}
}
