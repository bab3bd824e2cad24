package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"hublab/internal/graph"
	"hublab/internal/hub"
	"hublab/internal/index"
	"hublab/internal/pll"
	"hublab/internal/sssp"
)

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// lifecycle holds what set-up measured about the write side of a
// fixture: every stage from graph to a saved container, with the
// repetitions the workload asked for.
type lifecycle struct {
	n           int
	labelsTotal int
	maxLabel    int
	genMS       float64
	buildS      []float64
	freezeMS    float64
	compactMS   float64
	// serveSaveMS is the save of the container the door will serve;
	// saveMS/loadMS are the repeated aligned-v3 Save and heap Load.
	serveSaveMS    float64
	saveMS, loadMS []float64
	dropMS         float64
	bytesExpanded  int64
	bytesCompact   int64
}

// criticalS is the set-up time a deployment of this workload pays before
// its door can open: one of each stage on the path from nothing to a
// saved container, build structures dropped (the median build where the
// run repeats it). Extra repetitions and the harness's own
// answer keys are not set-up.
func (lc *lifecycle) criticalS(compact bool) float64 {
	ms := lc.genMS + lc.freezeMS + lc.serveSaveMS + lc.dropMS
	if compact {
		ms += lc.compactMS
	}
	return ms/1e3 + median(lc.buildS)
}

// fixture is a prepared workload: the saved container, the query stream
// with its answer key, and the lifecycle measurements.
type fixture struct {
	g         *graph.Graph
	st        *stream
	eccV      []graph.NodeID
	eccTruth  []graph.Weight
	servePath string
	lc        lifecycle
	// flat and compactStore stay set only when prepare was asked to keep
	// them (the traced run probes the in-memory stores directly).
	flat         *hub.FlatLabeling
	compactStore *hub.CompactLabeling
}

// Sample sizes of the answer key's cross-check against graph search,
// and of the eccentricity pool.
const (
	crossCheckPairs = 2000
	eccPoolSize     = 64
	eccPoolSeed     = 0xecc
	ioWarmReps      = 3
)

// countWriter measures a container's byte size without storing it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// prepare runs the fixture's lifecycle once (plus the repetitions sp
// asks for), saves the container the door will serve under cfg.tmpDir,
// and builds the stream and its answer key. With keep the in-memory
// label stores survive for the layer probes; otherwise they are dropped
// and the heap returned to the OS, the way a separate build step would
// leave things before a server starts.
func prepare(sp spec, cfg config, keep bool) (*fixture, error) {
	fx := &fixture{}
	lc := &fx.lc

	t := time.Now()
	g, err := sp.graph(cfg.toy)
	if err != nil {
		return nil, err
	}
	lc.genMS = msSince(t)
	fx.g, lc.n = g, g.NumNodes()

	var l *hub.Labeling
	for i := 0; i < sp.builds; i++ {
		l = nil
		runtime.GC()
		t = time.Now()
		// Workers: 1 is the sequential reference builder; the parallel
		// engine produces the same bytes and is timed by the traced run.
		if l, err = pll.BuildUnfrozen(g, pll.Options{Workers: 1}); err != nil {
			return nil, err
		}
		lc.buildS = append(lc.buildS, msSince(t)/1e3)
	}
	t = time.Now()
	flat := l.Freeze()
	lc.freezeMS = msSince(t)
	st := flat.ComputeStats()
	lc.labelsTotal, lc.maxLabel = st.Total, st.Max

	t = time.Now()
	comp := hub.CompactFromFlat(flat)
	lc.compactMS = msSince(t)

	var store hub.LabelStore = flat
	opts := hub.ContainerOptions{Aligned: true}
	if sp.compact {
		store, opts = comp, hub.ContainerOptions{Compact: true}
	}
	fx.servePath = filepath.Join(cfg.tmpDir, sp.name+".hli")
	t = time.Now()
	if err := index.Save(fx.servePath, index.FromStore(store), opts); err != nil {
		return nil, err
	}
	lc.serveSaveMS = msSince(t)

	// Repeated aligned-v3 Save and heap Load. The collector runs before
	// each so one repetition does not pay for the previous one's garbage
	// (the probe behind ISSUE 11 saw medians wander 15 % without it), and
	// the first ioWarmReps are discarded: the first saves of a new file
	// take two to three times the steady 60 ms on the reference box.
	repPath := filepath.Join(cfg.tmpDir, sp.name+".rep.hli")
	flatIdx := index.FromStore(flat)
	for i := -ioWarmReps; i < sp.ioReps; i++ {
		runtime.GC()
		t = time.Now()
		if err := index.Save(repPath, flatIdx, hub.ContainerOptions{Aligned: true}); err != nil {
			return nil, err
		}
		save := msSince(t)
		runtime.GC()
		t = time.Now()
		x, err := index.Load(repPath)
		if err != nil {
			return nil, err
		}
		if i >= 0 {
			lc.saveMS = append(lc.saveMS, save)
			lc.loadMS = append(lc.loadMS, msSince(t))
		}
		if x.Meta().Vertices != lc.n {
			return nil, fmt.Errorf("bench: reloaded container has %d vertices, want %d", x.Meta().Vertices, lc.n)
		}
	}
	if fi, err := os.Stat(repPath); err == nil {
		lc.bytesExpanded = fi.Size()
	}
	if err := os.Remove(repPath); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	var cw countWriter
	if _, err := comp.WriteContainer(&cw, hub.ContainerOptions{Compact: true}); err != nil {
		return nil, err
	}
	lc.bytesCompact = cw.n

	fx.st = newStream(lc.n, sp.zipf, cfg.toy, cfg.seed)
	fx.st.truth = answerKey(flat, fx.st.pool)
	if err := crossCheck(g, fx.st, cfg.seed); err != nil {
		return nil, err
	}
	// The eccentricity pool belongs to the fixture, not the stream: an
	// eccentricity call's cost varies several-fold from vertex to vertex,
	// and a median over a few dozen calls must not change with -seed.
	rng := splitmix(eccPoolSeed)
	for i := 0; i < eccPoolSize; i++ {
		v := graph.NodeID(rng.intn(lc.n))
		ecc, _ := sssp.Eccentricity(g, v)
		fx.eccV = append(fx.eccV, v)
		fx.eccTruth = append(fx.eccTruth, ecc)
	}

	if keep {
		fx.flat, fx.compactStore = flat, comp
		return fx, nil
	}
	t = time.Now()
	l, flat, comp, store, flatIdx = nil, nil, nil, nil, nil
	runtime.GC()
	debug.FreeOSMemory()
	lc.dropMS = msSince(t)
	return fx, nil
}

// answerKey computes the expected distance of every pool pair from the
// expanded labeling, on all cores.
func answerKey(flat *hub.FlatLabeling, pool [][2]graph.NodeID) []graph.Weight {
	truth := make([]graph.Weight, len(pool))
	parts := runtime.NumCPU()
	chunk := (len(pool) + parts - 1) / parts
	var wg sync.WaitGroup
	for lo := 0; lo < len(pool); lo += chunk {
		hi := min(lo+chunk, len(pool))
		wg.Add(1)
		go func() {
			defer wg.Done()
			flat.QueryBatch(pool[lo:hi], truth[lo:hi])
		}()
	}
	wg.Wait()
	return truth
}

// crossCheck compares a sample of the answer key against graph search,
// so the key itself is not taken on the labeling's word.
func crossCheck(g *graph.Graph, st *stream, seed uint64) error {
	rng := splitmix(seed ^ 0xc0ffee)
	for i := 0; i < min(crossCheckPairs, len(st.pool)); i++ {
		k := rng.intn(len(st.pool))
		p := st.pool[k]
		if want := sssp.Distance(g, p[0], p[1]); st.truth[k] != want {
			return fmt.Errorf("bench: labeling answers %d for (%d,%d), graph search %d", st.truth[k], p[0], p[1], want)
		}
	}
	return nil
}

// pathWeight verifies that path is a u→v walk in g and returns its
// total weight; ok is false on wrong endpoints or a missing edge.
func pathWeight(g *graph.Graph, u, v graph.NodeID, path []graph.NodeID) (graph.Weight, bool) {
	if len(path) == 0 || path[0] != u || path[len(path)-1] != v {
		return 0, false
	}
	var sum graph.Weight
	for i := 1; i < len(path); i++ {
		w, ok := g.EdgeWeight(path[i-1], path[i])
		if !ok {
			return 0, false
		}
		sum += w
	}
	return sum, true
}
