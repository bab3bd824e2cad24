package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// manifestMetric is one end_to_end or per_layer entry of BENCHMARK.json.
type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchManifest is BENCHMARK.json.
type benchManifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func readManifest(path string) (*benchManifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m benchManifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &m, nil
}

// resultSet is the results under one side of a comparison: values per
// (workload, metric), one per run.
type resultSet struct {
	values    map[[2]string][]float64
	incorrect []string
}

// loadSet reads one result file, or every result-*.json in a directory.
func loadSet(path string) (*resultSet, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "result-*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("bench: no result-*.json under %s", path)
	}
	set := &resultSet{values: map[[2]string][]float64{}}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", f, err)
		}
		if !r.Correct {
			set.incorrect = append(set.incorrect, f)
		}
		for name, m := range r.Metrics {
			k := [2]string{r.Workload, name}
			set.values[k] = append(set.values[k], m.Value)
		}
	}
	return set, nil
}

// Verdicts of one (workload, metric) comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictInfo       = "info" // per-layer metric: no bound to judge by
)

// judge compares side B against base A for a metric whose better
// direction and bound are given. change is (B−A)/A on the medians. A
// worsening beyond the bound is a regression — unless the runs' own
// spread exceeds the bound and the two sides' ranges overlap, in which
// case the harness cannot tell and says so.
func judge(a, b []float64, better string, bound float64) (change float64, verdict string) {
	change = relChange(a, b)
	worse := change
	if better == "higher" {
		worse = -change
	}
	if worse <= bound {
		return change, verdictOK
	}
	spread := max(relSpread(a), relSpread(b))
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	overlap := sa[0] <= sb[len(sb)-1] && sb[0] <= sa[len(sa)-1]
	if spread > bound && overlap {
		return change, verdictUnresolved
	}
	return change, verdictRegressed
}

// relChange is the change of B's median relative to A's.
func relChange(a, b []float64) float64 {
	ma, mb := median(a), median(b)
	switch {
	case ma != 0:
		return (mb - ma) / ma
	case mb != 0:
		return 1
	}
	return 0
}

// compareSets prints, per workload and metric present on both sides,
// both medians, the relative change with its base, the bound and the
// verdict, and reports whether anything regressed.
func compareSets(w io.Writer, manifestPath, pathA, pathB string) (regressed bool, err error) {
	man, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	for _, f := range append(a.incorrect, b.incorrect...) {
		fmt.Fprintf(w, "regressed: %s reports incorrect answers\n", f)
		regressed = true
	}
	defs := map[string]manifestMetric{}
	bounded := map[string]bool{}
	for _, m := range man.EndToEnd {
		defs[m.Name], bounded[m.Name] = m, true
	}
	for _, m := range man.PerLayer {
		defs[m.Name] = m
	}
	var keys [][2]string
	for k := range a.values {
		if _, ok := b.values[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	fmt.Fprintf(w, "%-24s %-32s %-6s %14s %14s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "unit", "A median", "B median", "B vs A", "bound", "spreadA", "spreadB", "verdict")
	counts := map[string]int{}
	for _, k := range keys {
		def, known := defs[k[1]]
		va, vb := a.values[k], b.values[k]
		verdict, change, bound := verdictInfo, relChange(va, vb), "-"
		if known && bounded[k[1]] {
			change, verdict = judge(va, vb, def.Better, def.Bound)
			bound = fmt.Sprintf("%.1f%%", def.Bound*100)
		}
		counts[verdict]++
		if verdict == verdictRegressed {
			regressed = true
		}
		fmt.Fprintf(w, "%-24s %-32s %-6s %14.6g %14.6g %+8.2f%% %7s %7.2f%% %7.2f%%  %s (n=%d,%d)\n",
			k[0], k[1], def.Unit, median(va), median(vb), change*100, bound,
			relSpread(va)*100, relSpread(vb)*100, verdict, len(va), len(vb))
	}
	var parts []string
	for _, v := range []string{verdictOK, verdictRegressed, verdictUnresolved, verdictInfo} {
		parts = append(parts, fmt.Sprintf("%d %s", counts[v], v))
	}
	fmt.Fprintf(w, "summary: %s (change is B relative to A's median)\n", strings.Join(parts, ", "))
	return regressed, nil
}
