package main

import (
	"fmt"
	"runtime"

	"hublab/internal/gen"
	"hublab/internal/graph"
)

// doorKind names the outermost layer a workload's calls enter through.
type doorKind int

const (
	// doorLib calls index.Index directly: the library user, no server.
	doorLib doorKind = iota
	// doorServer calls server.TryQuery in the harness process.
	doorServer
	// doorWire drives a netserve.Door on a loopback listener in the
	// harness process through hubclient.
	doorWire
	// doorHTTP drives the real hubserve binary over keep-alive HTTP.
	doorHTTP
)

// spec is one workload. Graph-fixture seeds are fixed so label counts
// repeat exactly; only the query stream depends on -seed.
type spec struct {
	name  string
	graph func(toy bool) (*graph.Graph, error)
	// compact serves the version-4 compact container (else aligned
	// version 3); mmap reopens it zero-copy (else a decoded heap load).
	compact, mmap bool
	door          doorKind
	// batch is the number of distance queries per call.
	batch int
	// zipf draws pairs Zipf(1.1) from a 16 Ki pool (else the uniform
	// 2^18 pool in order).
	zipf bool
	// mixed schedules /path on 1 call in 20 and /ecc on 1 in 2000.
	mixed bool
	// builds and ioReps are how many pll builds and how many
	// save-aligned-v3 + heap-load repetitions the run times.
	builds, ioReps int
}

func gnm10k(toy bool) (*graph.Graph, error) {
	if toy {
		return gen.Gnm(500, 900, 17)
	}
	return gen.Gnm(10000, 18000, 17)
}

func road64(toy bool) (*graph.Graph, error) {
	if toy {
		return gen.RoadLike(16, 16, 4, 3)
	}
	return gen.RoadLike(64, 64, 8, 3)
}

func rmat14(toy bool) (*graph.Graph, error) {
	if toy {
		return gen.RMAT(9, 1500, 3)
	}
	return gen.RMAT(14, 60000, 3)
}

// workloads lists the five workloads in BENCHMARK.json order. The names
// are cited by later issues and must not change.
var workloads = []spec{
	{name: "gnm10k-uniform-inproc", graph: gnm10k, door: doorServer, batch: 1, builds: 1, ioReps: 15},
	{name: "road64-zipf-compact", graph: road64, compact: true, mmap: true, door: doorServer, batch: 1, zipf: true, builds: 1, ioReps: 15},
	{name: "rmat14-uniform-wire", graph: rmat14, door: doorWire, batch: 16, builds: 5, ioReps: 15},
	{name: "gnm10k-mixed-http", graph: gnm10k, mmap: true, door: doorHTTP, batch: 1, mixed: true, builds: 1, ioReps: 15},
	{name: "gnm10k-lifecycle", graph: gnm10k, door: doorLib, batch: 1, builds: 2, ioReps: 31},
}

func findWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("bench: unknown workload %q", name)
}

// Verbs of a call.
const (
	verbDist = iota
	verbPath
	verbEcc
)

// Mixed-verb schedule periods (workload gnm10k-mixed-http).
const (
	pathEvery = 20
	eccEvery  = 2000
)

// verbAt is the deterministic verb schedule of call k.
func (sp *spec) verbAt(k int) int {
	if !sp.mixed {
		return verbDist
	}
	switch {
	case k%eccEvery == eccEvery-1:
		return verbEcc
	case k%pathEvery == pathEvery-1:
		return verbPath
	}
	return verbDist
}

// config is the scale of one run.
type config struct {
	// toy shrinks fixtures and pools to the smoke test's scale; no flag
	// sets it.
	toy  bool
	seed uint64
	// window is the measured time in seconds, cut into blocks; warm is
	// the discarded time after the warm-up pass.
	window, warm float64
	blocks       int
	callers      int
	// tmpDir holds the run's containers; hubserve is the binary the HTTP
	// door spawns.
	tmpDir, hubserve string
}

// defaultCallers is the closed loop's client count: callers of a
// distance oracle wait for their reply, and the reference box has two
// cores.
func defaultCallers() int { return min(2, runtime.NumCPU()) }
