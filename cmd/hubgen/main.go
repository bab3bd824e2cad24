// Command hubgen builds hub labelings with any of the library's
// constructions and reports size statistics and verification results.
//
// With -out the labeling is persisted as an index container that
// cmd/hubserve, cmd/experiments and the library (index.Load) reload
// without rebuilding; -graphout writes the (possibly generated) graph so
// the two tools share inputs. For PLL the container is emitted through
// the streaming writer (index.SaveStreaming), so peak memory stays at
// about one copy of the labeling even at millions of vertices; see
// cmd/hubserve/README.md for the full build→serve pipeline.
//
// Usage:
//
//	hubgen -gen gnm -n 500 -m 900 -algo pll
//	hubgen -gen reg3 -n 300 -algo thm41 -d 3
//	hubgen -gen road -n 400 -algo pll -order betweenness
//	hubgen -gen rmat -n 1048576 -algo pll -workers 8 -progress -out labels.hli
//	hubgen -gen gnm -n 100000 -algo pll -out labels.hli -v4
//	hubgen -in USA-road-d.NY.gr.gz -algo pll
//	hubgen -dataset rome99 -algo pll -out rome.hli
//
// -out writes the expanded (v3) container; with -v4, the compact (v4) one
// at a fraction of the resident bytes. Every written container is
// servable zero-copy (hubserve -mmap).
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hublab/internal/cover"
	"hublab/internal/dataset"
	"hublab/internal/faultinject"
	"hublab/internal/gen"
	"hublab/internal/graph"
	"hublab/internal/hub"
	"hublab/internal/index"
	"hublab/internal/pll"
	"hublab/internal/sparsehub"
	"hublab/internal/ubound"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	genName := flag.String("gen", "gnm", "generator: gnm|reg3|grid|road|tree|btree|rmat")
	in := flag.String("in", "", "read graph from file (.gr/.gr.gz DIMACS or the hubgen text format)")
	ds := flag.String("dataset", "", "load a fetched DIMACS dataset: "+strings.Join(dataset.Names(), "|"))
	n := flag.Int("n", 500, "vertex count")
	m := flag.Int("m", 0, "edge count for gnm/rmat (default 1.8n)")
	seed := flag.Int64("seed", 1, "generator seed")
	algo := flag.String("algo", "pll", "labeling: pll|greedy|sparse|thm41|thm14")
	order := flag.String("order", "degree", "pll landmark order: "+strings.Join(pll.OrderNames(), "|"))
	workers := flag.Int("workers", 0, "parallel build workers for pll (0 = all cores, 1 = sequential)")
	progress := flag.Bool("progress", false, "log pll build progress (roots done, labels, peak RSS)")
	d := flag.Int("d", 0, "threshold D for sparse/thm41/thm14 (0 = auto)")
	verify := flag.Bool("verify", true, "verify the labeling (exhaustive ≤ 1000 vertices, sampled beyond)")
	out := flag.String("out", "", "write the labeling as an index container (.hli)")
	v4 := flag.Bool("v4", false, "write the compact v4 container for -out instead of the expanded v3 one (queryable compressed; both are servable zero-copy: hubserve -mmap)")
	graphOut := flag.String("graphout", "", "write the graph in the text format hubgen/hubserve read")
	flag.Parse()

	// Validated before any build work: a mistake must fail in
	// milliseconds, not after an hour-long labeling construction.
	if *v4 && *out == "" {
		return fmt.Errorf("hubgen: -v4 shapes the container written by -out; pass -out")
	}

	if spec, on, err := faultinject.EnableFromEnv(); err != nil {
		return fmt.Errorf("hubgen: %w", err)
	} else if on {
		log.Printf("hubgen: FAULT INJECTION ACTIVE (HUBLAB_FAULTS=%q) — this process will misbehave on purpose", spec)
	}
	// A previous hubgen that crashed mid-Save can leave ".hli-*" temp
	// siblings next to the output; they are never valid containers.
	if *out != "" {
		if removed, err := index.CleanPartials(filepath.Dir(*out)); err != nil {
			log.Printf("hubgen: cleaning partial containers: %v", err)
		} else if len(removed) > 0 {
			log.Printf("hubgen: removed %d partial container file(s): %v", len(removed), removed)
		}
	}

	g, err := loadGraph(*in, *ds, *genName, *n, *m, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("graph: n=%d m=%d max-degree=%d avg-degree=%.2f weighted=%v\n",
		g.NumNodes(), g.NumEdges(), g.MaxDegree(), g.AvgDegree(), g.Weighted())

	// PLL builds unfrozen and streams the container out; every other
	// construction returns frozen labels.
	streaming := *algo == "pll" && *out != ""

	var labeling *hub.Labeling
	buildStart := time.Now()
	switch *algo {
	case "pll":
		opts := pll.Options{Seed: *seed, OrderBy: *order, Workers: *workers}
		if *progress {
			opts.Progress = progressLogger(g.NumNodes(), buildStart)
		}
		if streaming {
			labeling, err = pll.BuildUnfrozen(g, opts)
		} else {
			labeling, err = pll.Build(g, opts)
		}
	case "greedy":
		labeling, err = cover.Greedy(g)
	case "sparse":
		var res *sparsehub.Result
		res, err = sparsehub.Build(g, sparsehub.Options{D: graph.Weight(*d), Seed: *seed})
		if err == nil {
			labeling = res.Labeling
			fmt.Printf("sparse scheme: D=%d |S|=%d balls=%d fixups=%d\n",
				res.D, res.SharedHubs, res.BallTotal, res.FixupTotal)
		}
	case "thm41":
		var res *ubound.Result
		res, err = ubound.Build(g, ubound.Options{D: graph.Weight(*d), Seed: *seed})
		if err == nil {
			labeling = res.Labeling
			fmt.Printf("thm4.1: D=%d |S|=%d ΣQ=%d ΣR=%d ΣF=%d ΣN(F)=%d matchings=%d violations=%d\n",
				res.D, res.SharedSize, res.QTotal, res.RTotal, res.FTotal, res.NFTotal,
				res.InducedMatchings, res.Violations)
		}
	case "thm14":
		var res *ubound.Result
		res, _, err = ubound.BuildForSparse(g, ubound.Options{D: graph.Weight(*d), Seed: *seed})
		if err == nil {
			labeling = res.Labeling
		}
	default:
		return fmt.Errorf("unknown algo %q", *algo)
	}
	if err != nil {
		return err
	}
	buildDur := time.Since(buildStart)

	stats := labeling.ComputeStats()
	fmt.Printf("labeling: avg=%.2f max=%d total=%d avg-bits=%.1f\n",
		stats.Avg, stats.Max, stats.Total, labeling.AvgBits())
	if secs := buildDur.Seconds(); secs > 0 {
		fmt.Printf("build: %.2fs (%.0f labels/sec, workers=%d)\n", secs, float64(stats.Total)/secs, *workers)
	}
	fmt.Printf("reference n/log2(n) = %.1f\n", float64(g.NumNodes())/math.Log2(float64(g.NumNodes())+2))

	if *verify {
		if g.NumNodes() <= 1000 {
			if err := labeling.VerifyCover(g); err != nil {
				return err
			}
			fmt.Println("verified: exhaustive cover check passed")
		} else {
			if err := labeling.VerifySampled(g, 2000, 99); err != nil {
				return err
			}
			fmt.Println("verified: 2000 sampled pairs passed")
		}
	}

	if *graphOut != "" {
		f, err := os.Create(*graphOut)
		if err != nil {
			return err
		}
		if err := graph.Write(f, g); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote graph: %s\n", *graphOut)
	}
	if *out != "" {
		copts := hub.ContainerOptions{Compact: *v4}
		if streaming {
			err = index.SaveStreaming(*out, labeling, copts)
		} else {
			err = index.Save(*out, index.NewHubLabelsFrom(labeling), copts)
		}
		if err != nil {
			return err
		}
		info, err := os.Stat(*out)
		if err != nil {
			return err
		}
		fmt.Printf("wrote container: %s (%d bytes, v4=%v streamed=%v; serve with: hubserve -mmap -index %s)\n",
			*out, info.Size(), *v4, streaming, *out)
	}
	return nil
}

// progressLogger returns a pll.Progress callback that logs at most once
// every two seconds: roots done, labels committed, throughput, and the
// process's peak RSS so far (the number the streaming pipeline exists
// to keep flat).
func progressLogger(roots int, start time.Time) func(pll.Progress) {
	var last time.Time
	return func(p pll.Progress) {
		now := time.Now()
		if p.RootsDone < p.Roots && now.Sub(last) < 2*time.Second {
			return
		}
		last = now
		secs := now.Sub(start).Seconds()
		rate := float64(p.Labels)
		if secs > 0 {
			rate /= secs
		}
		log.Printf("hubgen: pll %d/%d roots, %d labels (%.0f labels/sec), peak RSS %s",
			p.RootsDone, p.Roots, p.Labels, rate, peakRSS())
	}
}

// peakRSS reports the process high-water mark: VmHWM from
// /proc/self/status where available, else the Go heap's HeapSys as a
// lower-bound stand-in.
func peakRSS() string {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				return strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:"))
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return fmt.Sprintf("%d kB (heap)", ms.HeapSys/1024)
}

func loadGraph(in, ds, genName string, n, m int, seed int64) (*graph.Graph, error) {
	if in != "" && ds != "" {
		return nil, fmt.Errorf("hubgen: -in and -dataset are mutually exclusive")
	}
	if ds != "" {
		return dataset.Load(ds)
	}
	if in != "" {
		if strings.HasSuffix(in, ".gr") || strings.HasSuffix(in, ".gr.gz") {
			return dataset.LoadFile(in)
		}
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.Read(f)
	}
	switch genName {
	case "gnm":
		if m == 0 {
			m = n * 9 / 5
		}
		return gen.Gnm(n, m, seed)
	case "reg3":
		return gen.RandomRegular(n, 3, seed)
	case "grid":
		side := int(math.Round(math.Sqrt(float64(n))))
		return gen.Grid(side, side)
	case "road":
		side := int(math.Round(math.Sqrt(float64(n))))
		return gen.RoadLike(side, side, 8, seed)
	case "tree":
		return gen.RandomTree(n, seed)
	case "btree":
		leaves := 1
		for 2*leaves-1 < n {
			leaves <<= 1
		}
		return gen.BalancedBinaryTree(leaves)
	case "rmat":
		scale := 0
		for 1<<scale < n {
			scale++
		}
		if m == 0 {
			m = n * 9 / 5
		}
		return gen.RMAT(scale, m, seed)
	default:
		return nil, fmt.Errorf("unknown generator %q", genName)
	}
}
