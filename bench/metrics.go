package main

// metricDef names a metric and its unit. The two tables below are the
// harness's side of BENCHMARK.json; the smoke test fails when the two
// sides differ, so neither can drift from the other.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_qps", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_worst1pct_us", "us"},
	{"cpu_us_per_query", "us"},
	{"resident_mb", "MB"},
	{"path_p50_us", "us"},
	{"ecc_p50_ms", "ms"},
	{"build_s", "s"},
	{"save_ms", "ms"},
	{"load_ms", "ms"},
	{"avg_hubs_per_vertex", "count"},
	{"bytes_per_vertex_expanded", "B"},
	{"bytes_per_vertex_compact", "B"},
}

// perLayer is what a traced run reports, on every workload: the whole
// stack is priced on the workload's own fixture and stream, whichever
// door the workload itself enters through.
var perLayer = []metricDef{
	{"gen.graph_ms", "ms"},
	{"trace.overhead_pct", "%"},

	{"pll.build_s", "s"},
	{"pll.build_workers_s", "s"},
	{"pll.labels_total", "count"},
	{"pll.max_label", "count"},

	{"hub.query_ns", "ns"},
	{"hub.batch_ns_per_query", "ns"},
	{"hub.entries_per_query", "count"},
	{"hub.gallop_share", "ratio"},
	{"hub.query_bytes", "B"},
	{"hub.allocs_per_query", "count"},
	{"hub.path_ns", "ns"},
	{"hub.ecc_ns", "ns"},
	{"hub.ecc_warm_ms", "ms"},
	{"hub.freeze_ms", "ms"},
	{"hub.compact_ms", "ms"},
	{"hub.write_v3_ms", "ms"},
	{"hub.write_v4_ms", "ms"},
	{"hub.read_ms", "ms"},
	{"hub.open_mmap_us", "us"},
	{"hub.validate_ms", "ms"},

	{"index.self_ns", "ns"},
	{"index.save_ms", "ms"},
	{"index.load_ms", "ms"},
	{"index.loadmmap_first64_us", "us"},

	{"hotcache.hit_rate", "ratio"},
	{"hotcache.evicts_per_query", "count"},
	{"hotcache.lookup_ns", "ns"},
	{"hotcache.insert_ns", "ns"},

	{"flowctl.decision_ns", "ns"},

	{"server.tryquery_ns", "ns"},
	{"server.self_ns", "ns"},
	{"server.batch_self_ns_per_query", "ns"},
	{"server.coalesce", "ratio"},
	{"server.rejected", "count"},
	{"server.shed", "count"},
	{"server.timeouts", "count"},
	{"server.faulted", "count"},
	{"server.allocs_per_query", "count"},

	{"wire.codec_ns_per_query", "ns"},
	{"wire.bytes_per_query", "B"},
	{"wire.allocs_per_frame", "count"},

	{"netserve.b1_ns_per_query", "ns"},
	{"netserve.b16_ns_per_query", "ns"},
	{"netserve.b64_ns_per_query", "ns"},
	{"netserve.self_ns_per_query", "ns"},
	{"netserve.frames", "count"},
	{"netserve.queries", "count"},
	{"netserve.bad_frames", "count"},

	{"hubclient.batch16_ns_per_query", "ns"},
	{"hubclient.self_ns_per_query", "ns"},
	{"hubclient.single_ns", "ns"},
	{"hubclient.achieved_batch", "ratio"},
	{"hubclient.retries", "count"},
	{"hubclient.hedges", "count"},
	{"hubclient.transport_errors", "count"},
	{"hubclient.pool_exhausted", "count"},
	{"hubclient.allocs_per_query", "count"},

	{"hubserve.start_ms", "ms"},
	{"hubserve.http_ns_per_query", "ns"},
	{"hubserve.http_self_ns", "ns"},
	{"hubserve.cpu_us_per_query", "us"},
	{"hubserve.served", "count"},
}

// metric is one reported value. Samples is how many measurements the
// value summarises (0 when it is a single reading or a count).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples uint64  `json:"samples,omitempty"`
}

// result is one run's result file; the last line of standard output
// carries its correct/attempted/failed/metrics part.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	ErrorRate float64           `json:"error_rate"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra carries readings that explain the metrics but are not
	// themselves compared: the tail percentile the sample supports, the
	// per-block spread, the waterfall.
	Extra       map[string]any `json:"extra,omitempty"`
	Fingerprint fingerprint    `json:"fingerprint"`
	Problems    []string       `json:"problems,omitempty"`
}

// set stores a metric under the unit its table fixes.
func (r *result) set(defs []metricDef, name string, value float64, samples uint64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metric{Value: value, Unit: d.unit, Samples: samples}
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}
