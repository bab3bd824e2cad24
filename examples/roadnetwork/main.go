// Command roadnetwork demonstrates the practice-side motivation the paper
// opens with: on transportation-like networks, hub labelings exploiting the
// highway structure stay small and answer queries orders of magnitude
// faster than graph search — while random sparse graphs of the same size
// need near-linear labels under ANY landmark order (the hardness this paper
// explains).
// Labelings are cached as index containers under the user cache
// directory, so repeated runs load the stored query structure instead of
// rebuilding it — the build → persist → load → serve lifecycle in
// miniature.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"hublab"
	"hublab/internal/pll"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const side, period = 40, 8
	// Weighted grid with fast highway rows/columns every `period` blocks.
	road, err := hublab.GenerateRoadLike(side, side, period, 3)
	if err != nil {
		return err
	}
	// A random max-degree-3 graph with the same vertex count.
	random, err := hublab.GenerateRandomRegular(road.NumNodes(), 3, 3)
	if err != nil {
		return err
	}
	highwayOrder, err := pll.RoadHighwayOrder(side, side, period)
	if err != nil {
		return err
	}

	for _, tc := range []struct {
		name string
		g    *hublab.Graph
		opts hublab.PLLOptions
	}{
		{"road-like (highway order)", road, hublab.PLLOptions{Custom: highwayOrder}},
		{"road-like (degree order)", road, hublab.PLLOptions{}},
		{"random degree-3", random, hublab.PLLOptions{}},
	} {
		start := time.Now()
		idx, cached, err := cachedLabels(tc.name, tc.g, tc.opts)
		if err != nil {
			return err
		}
		build := time.Since(start)
		flat := idx.Flat()
		if err := flat.Thaw().VerifySampled(tc.g, 200, 9); err != nil {
			return err
		}
		stats := flat.ComputeStats()
		how := "build"
		if cached {
			how = "load"
		}
		fmt.Printf("%-26s n=%d  avg|S(v)|=%6.1f  max=%4d  %s=%v\n",
			tc.name, tc.g.NumNodes(), stats.Avg, stats.Max, how, build.Round(time.Millisecond))

		// Compare label query vs bidirectional search on one far pair.
		u, v := hublab.NodeID(0), hublab.NodeID(tc.g.NumNodes()-1)
		qs := time.Now()
		const reps = 2000
		var d hublab.Weight
		for i := 0; i < reps; i++ {
			d, _ = flat.Query(u, v)
		}
		perQuery := time.Since(qs) / reps
		ds := time.Now()
		want := hublab.ShortestDistance(tc.g, u, v)
		searchTime := time.Since(ds)
		if d != want {
			return fmt.Errorf("%s: label decode %d != %d", tc.name, d, want)
		}
		fmt.Printf("%-26s dist(%d,%d)=%d  label-query=%v  graph-search=%v\n\n",
			"", u, v, d, perQuery, searchTime.Round(time.Microsecond))
	}
	fmt.Println("the highway order exploits the road structure (small hubs, the")
	fmt.Println("highway-dimension story); the random sparse graph stays near-linear")
	fmt.Println("under any order — the hardness regime this paper proves.")
	return nil
}

// cachedLabels loads the labeling for key from the container cache when a
// prior run saved it (reporting cached=true), building and saving it
// otherwise.
func cachedLabels(key string, g *hublab.Graph, opts hublab.PLLOptions) (*hublab.HubLabelsIndex, bool, error) {
	dir, err := os.UserCacheDir()
	if err != nil {
		dir = os.TempDir()
	}
	dir = filepath.Join(dir, "hublab-roadnetwork")
	path := filepath.Join(dir, sanitize(key)+".hli")
	if idx, err := hublab.LoadIndex(path); err == nil && hublab.VerifySampledIndex(idx, g, 32, 41) == nil {
		return idx, true, nil
	}
	// Missing, unreadable or stale (the instance changed across versions
	// while n stayed the same): rebuild and save over the old file.
	labels, err := hublab.BuildPLL(g, opts)
	if err != nil {
		return nil, false, err
	}
	idx := hublab.NewHubLabelsIndex(labels)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, false, err
	}
	if err := hublab.SaveIndex(path, idx, hublab.ContainerOptions{}); err != nil {
		return nil, false, err
	}
	return idx, false, nil
}

func sanitize(s string) string {
	out := []rune(s)
	for i, r := range out {
		switch r {
		case ' ', '(', ')', '/':
			out[i] = '-'
		}
	}
	return string(out)
}
