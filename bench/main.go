// Command bench is the repository's benchmark: five serving and
// lifecycle workloads over the hub-label stack, end-to-end metrics from
// an untraced closed-loop run, and per-layer metrics plus a span file
// from a traced one. BENCHMARK.json at the repository root names the
// workloads, metrics, units and regression bounds; README.md here says
// how to run and read it.
//
// The harness measures every layer from outside — through public
// functions and the interface seams the packages already expose — and
// runs on Linux only (it reads /proc).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// manifestPath is where -compare finds the bounds: the harness runs from
// the repository root.
const manifestPath = "BENCHMARK.json"

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run (see BENCHMARK.json), or \"all\"")
		seed     = flag.Uint64("seed", 1, "query-stream seed; graph fixtures are fixed")
		seconds  = flag.Float64("seconds", 10, "measured window, cut into one-second blocks")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of end-to-end metrics")
		hubserve = flag.String("hubserve", "", "the hubserve binary to spawn (run.sh builds it)")
		tmpBase  = flag.String("tmp", filepath.Join("bench", ".build", "tmp"), "directory for per-run temporary files")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for result and span files")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare A B (files or directories); exits 1 on a regression")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result sets")
			return 2
		}
		regressed, err := compareSets(os.Stdout, manifestPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}

	var specs []spec
	if *workload == "all" {
		specs = workloads
	} else {
		sp, err := findWorkload(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		specs = []spec{sp}
	}
	if *hubserve == "" {
		fmt.Fprintln(os.Stderr, "bench: -hubserve is required (bench/run.sh builds the binary and passes it)")
		return 2
	}
	cfg := config{
		seed: *seed, window: *seconds, warm: 1,
		blocks: max(1, int(*seconds)), callers: defaultCallers(),
		hubserve: *hubserve,
	}
	code := 0
	for _, sp := range specs {
		res, err := runOne(sp, cfg, *trace == 1, *tmpBase, *outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			return 1
		}
		printResult(res)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// runOne runs one workload in a temporary directory of its own and
// saves the result file.
func runOne(sp spec, cfg config, traced bool, tmpBase, outDir string) (*result, error) {
	dir, err := makeTempDir(tmpBase)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// An interrupted run still removes its containers; the hubserve child,
	// if any, is taken down by the kernel when this process exits
	// (Pdeathsig in startHubserve).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		if _, ok := <-sig; ok {
			os.RemoveAll(dir)
			os.Exit(130)
		}
	}()
	cfg.tmpDir = dir
	var res *result
	if traced {
		res, err = runTraced(sp, cfg, outDir)
	} else {
		res, err = runEndToEnd(sp, cfg)
	}
	if err != nil {
		return nil, err
	}
	mode := "e2e"
	if traced {
		mode = "traced"
	}
	name := fmt.Sprintf("result-%s-seed%d-%s.json", sp.name, cfg.seed, mode)
	return res, saveResult(filepath.Join(outDir, name), res)
}

func saveResult(path string, res *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints every metric by name with its unit, then — as the
// last line — the one-line JSON object the benchmark driver reads.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d traced=%v correct=%v attempted=%d failed=%d error_rate=%g\n",
		res.Workload, res.Seed, res.Traced, res.Correct, res.Attempted, res.Failed, res.ErrorRate)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, p := range res.Problems {
		fmt.Printf("! %s\n", p)
	}
	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]lineMetric{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = lineMetric{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(b))
}
