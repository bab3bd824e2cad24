package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"
)

// hubserveBin is built once for the package's tests.
var hubserveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hubbench-test-*")
	if err != nil {
		panic(err)
	}
	// Tests run in the harness's module directory, where the hublab
	// module resolves (run.sh does the same build for real runs).
	hubserveBin = filepath.Join(dir, "hubserve")
	if out, err := exec.Command("go", "build", "-o", hubserveBin, "hublab/cmd/hubserve").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic(fmt.Sprintf("building hubserve: %v\n%s", err, out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func toyConfig(t *testing.T) config {
	return config{
		toy: true, seed: 1, window: 0.2, warm: 0.05, blocks: 1,
		callers: defaultCallers(), tmpDir: t.TempDir(), hubserve: hubserveBin,
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// sameNames fails unless the manifest's metric list and the emitted
// metrics are the same set of names, each once, each with its unit.
func sameNames(t *testing.T, what string, want []manifestMetric, got map[string]metric) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range want {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad name or unit %q / %q in BENCHMARK.json", what, m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: %s has better=%q", what, m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("%s: %s listed twice in BENCHMARK.json", what, m.Name)
		}
		seen[m.Name] = true
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: %s is in BENCHMARK.json but was not emitted", what, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: %s emitted in %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
	var extra []string
	for name := range got {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s: emitted but not in BENCHMARK.json: %v", what, extra)
	}
}

// TestSmokeAllWorkloads runs every workload end to end and traced at toy
// scale — real hubserve child included — and holds the harness and
// BENCHMARK.json to the same workload and metric names.
func TestSmokeAllWorkloads(t *testing.T) {
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range man.Workloads {
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		listed = append(listed, w.Name)
	}
	var have []string
	for _, sp := range workloads {
		have = append(have, sp.name)
	}
	if strings.Join(listed, " ") != strings.Join(have, " ") {
		t.Fatalf("BENCHMARK.json workloads %v, harness workloads %v", listed, have)
	}
	if len(man.Paths) != 1 || man.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", man.Paths)
	}
	var setup *manifestMetric
	for i, m := range man.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = &man.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("BENCHMARK.json needs setup_s in s, lower is better")
	}

	outDir := t.TempDir()
	for _, sp := range workloads {
		t.Run(sp.name, func(t *testing.T) {
			cfg := toyConfig(t)
			res, err := runEndToEnd(sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			sameNames(t, "end_to_end", man.EndToEnd, res.Metrics)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v; every one must be positive", name, m.Value)
				}
			}

			tres, err := runTraced(sp, cfg, outDir)
			if err != nil {
				t.Fatal(err)
			}
			if !tres.Correct || tres.Failed != 0 {
				t.Errorf("traced: correct=%v failed=%d problems=%v", tres.Correct, tres.Failed, tres.Problems)
			}
			sameNames(t, "per_layer", man.PerLayer, tres.Metrics)
			if fi, err := os.Stat(filepath.Join(outDir, "trace-"+sp.name+".json")); err != nil || fi.Size() == 0 {
				t.Errorf("span file missing or empty: %v", err)
			}
		})
	}
}

// TestChildIsAlwaysReaped starts the real hubserve and checks that stop
// leaves no process behind, whether the child is healthy or was already
// gone.
func TestChildIsAlwaysReaped(t *testing.T) {
	cfg := toyConfig(t)
	fx, err := prepare(workloads[3], cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := startHubserve(hubserveBin, fx.servePath, true)
	if err != nil {
		t.Fatal(err)
	}
	pid := ch.cmd.Process.Pid
	if ch.startMS <= 0 {
		t.Errorf("start_ms = %v", ch.startMS)
	}
	if err := ch.stop(); err != nil {
		t.Errorf("graceful stop: %v", err)
	}
	if err := ch.stop(); err != nil {
		t.Errorf("second stop: %v", err)
	}
	// Reaped means gone from the process table, not a zombie.
	deadline := time.Now().Add(2 * time.Second)
	for syscall.Kill(pid, 0) == nil {
		if time.Now().After(deadline) {
			t.Fatalf("hubserve pid %d survives stop", pid)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A container that does not exist: the child exits at once, start
	// reports it with the child's own words, nothing is left running.
	if _, err := startHubserve(hubserveBin, filepath.Join(cfg.tmpDir, "missing.hli"), false); err == nil {
		t.Errorf("starting on a missing container succeeded")
	} else if !strings.Contains(err.Error(), "hubserve") {
		t.Errorf("error does not name the child: %v", err)
	}
}
