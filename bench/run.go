package main

import (
	"fmt"
	"sync"
	"time"
)

// runEndToEnd is the untraced run of one workload: set-up, the door's
// closed-loop window, and the end-to-end metrics. No spy is installed
// and no span recorded.
func runEndToEnd(sp spec, cfg config) (*result, error) {
	res := &result{Workload: sp.name, Seed: cfg.seed, Metrics: map[string]metric{}, Extra: map[string]any{}, Fingerprint: newFingerprint(cfg.callers)}
	fx, err := prepare(sp, cfg, false)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	d, err := openDoor(sp, cfg, fx.servePath)
	if err != nil {
		return nil, err
	}
	openS := time.Since(t).Seconds()
	// closeDoor runs on every path out, so no server, listener or child
	// process outlives the run; the happy path calls it early to read
	// its verdict.
	closeDoor := sync.OnceValue(d.close)
	defer closeDoor()

	lp := &loop{sp: &sp, fx: fx, d: d, callers: cfg.callers}
	win, err := lp.measure(cfg)
	if err != nil {
		return nil, err
	}
	if err := closeDoor(); err != nil {
		res.Problems = append(res.Problems, err.Error())
	}

	rec, lc := win.total, &fx.lc
	// Every repeated measurement — the blocks of the window, the builds,
	// the save and load repetitions — is reported as its median.
	var blockP50, blockP99, blockWorst []float64
	for _, b := range win.blocks {
		blockP50 = append(blockP50, b.lat[verbDist].quantile(0.50)/1e3)
		blockP99 = append(blockP99, b.lat[verbDist].quantile(0.99)/1e3)
		blockWorst = append(blockWorst, b.lat[verbDist].tailMean(0.01)/1e3)
	}
	blocks := uint64(len(win.blocks))
	e := func(name string, v float64, samples uint64) { res.set(endToEnd, name, v, samples) }
	e("setup_s", lc.criticalS(sp.compact)+openS, 1)
	e("throughput_qps", median(win.blockRates), blocks)
	e("latency_p50_us", median(blockP50), rec.lat[verbDist].n)
	e("latency_worst1pct_us", median(blockWorst), rec.lat[verbDist].n)
	e("cpu_us_per_query", median(win.blockCPUus), blocks)
	e("resident_mb", win.residentMB, 1)
	// Path and eccentricity calls are too sparse to take a median of per
	// block (nine /ecc a second on the mixed workload, six after each
	// block elsewhere): the median over all of the window's.
	e("path_p50_us", rec.lat[verbPath].quantile(0.50)/1e3, rec.lat[verbPath].n)
	e("ecc_p50_ms", rec.lat[verbEcc].quantile(0.50)/1e6, rec.lat[verbEcc].n)
	e("build_s", median(lc.buildS), uint64(len(lc.buildS)))
	e("save_ms", median(lc.saveMS), uint64(len(lc.saveMS)))
	e("load_ms", median(lc.loadMS), uint64(len(lc.loadMS)))
	e("avg_hubs_per_vertex", float64(lc.labelsTotal)/float64(lc.n), 1)
	e("bytes_per_vertex_expanded", float64(lc.bytesExpanded)/float64(lc.n), 1)
	e("bytes_per_vertex_compact", float64(lc.bytesCompact)/float64(lc.n), 1)

	res.Attempted = rec.attempted
	res.Failed = rec.failed + rec.wrong
	res.ErrorRate = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	if rec.wrong > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d answers differ from the answer key", rec.wrong))
	}

	if p, ok := tailPercentile(rec.lat[verbDist].n); ok {
		res.Extra["latency_tail_percentile"] = p
		res.Extra["latency_tail_us"] = rec.lat[verbDist].quantile(p/100) / 1e3
	}
	res.Extra["latency_mean_us"] = rec.lat[verbDist].mean() / 1e3
	res.Extra["latency_p99_us"] = median(blockP99)
	// The quieter quartile of the blocks (third for the rate, first for
	// the costs): interference on a shared box only slows blocks down, so
	// a median that moved while this stood still points at the box.
	_, q3 := quartiles(win.blockRates)
	q1p50, _ := quartiles(blockP50)
	q1cpu, _ := quartiles(win.blockCPUus)
	res.Extra["quiet_quartile"] = map[string]float64{"throughput_qps": q3, "latency_p50_us": q1p50, "cpu_us_per_query": q1cpu}
	res.Extra["block_rates_qps"] = win.blockRates
	res.Extra["block_rel_spread"] = relSpread(win.blockRates)
	res.Extra["block_p50_us"] = blockP50
	res.Extra["block_p99_us"] = blockP99
	res.Extra["block_worst1pct_us"] = blockWorst
	res.Extra["block_cpu_us_per_query"] = win.blockCPUus
	res.Extra["build_s_reps"] = lc.buildS
	res.Extra["save_ms_reps"] = lc.saveMS
	res.Extra["load_ms_reps"] = lc.loadMS
	res.Extra["setup_breakdown_s"] = map[string]float64{
		"gen": lc.genMS / 1e3, "build": median(lc.buildS), "freeze": lc.freezeMS / 1e3,
		"compact": lc.compactMS / 1e3, "save": lc.serveSaveMS / 1e3, "drop": lc.dropMS / 1e3, "open_door": openS,
	}
	return res, nil
}
