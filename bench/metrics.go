package bench

// Metric describes one reported number. Bounds live in BENCHMARK.json;
// Floor is the absolute change below which a difference never counts
// as a regression (timings near the clock's resolution).
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Floor  float64
}

// EndToEnd are the metrics a user of the verifier sees, reported by
// every untraced run. Every workload is a fixed list of queries run in
// passes: latencies are per-query medians over passes, percentiles are
// nearest-rank over the queries.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Floor: 0.05},
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "throughput_qps", Unit: "1/s", Better: "higher"},
	{Name: "verdict_s_geomean", Unit: "s", Better: "lower"},
	{Name: "latency_p50_s", Unit: "s", Better: "lower", Floor: 1e-4},
	{Name: "latency_p95_s", Unit: "s", Better: "lower"},
}

// PerLayer are the metrics of single layers, reported by traced runs.
// Layer names are the repository's package names; times are totals
// over one pass unless the name says per state or per operation.
var PerLayer = []Metric{
	{Name: "lang.validate_s", Unit: "s", Better: "lower"},
	{Name: "lang.unroll_s", Unit: "s", Better: "lower"},
	{Name: "lang.compile_s", Unit: "s", Better: "lower"},
	{Name: "lang.canon_s", Unit: "s", Better: "lower"},
	{Name: "lang.self_s", Unit: "s", Better: "lower"},
	{Name: "core.translate_s", Unit: "s", Better: "lower"},
	{Name: "core.lift_s", Unit: "s", Better: "lower"},
	{Name: "core.run_s", Unit: "s", Better: "lower"},
	{Name: "core.probe_s", Unit: "s", Better: "lower"},
	{Name: "core.final_s", Unit: "s", Better: "lower"},
	{Name: "core.self_s", Unit: "s", Better: "lower"},
	{Name: "core.states", Unit: "count", Better: "lower"},
	{Name: "core.deepen_rounds", Unit: "count", Better: "lower"},
	{Name: "core.probe1_hits", Unit: "count", Better: "higher"},
	{Name: "core.probe2_hits", Unit: "count", Better: "higher"},
	{Name: "core.final_hits", Unit: "count", Better: "lower"},
	{Name: "core.ladder_overhead", Unit: "ratio", Better: "lower"},
	{Name: "sc.search_s", Unit: "s", Better: "lower"},
	{Name: "sc.search_states", Unit: "count", Better: "lower"},
	{Name: "sc.ns_per_state", Unit: "ns", Better: "lower"},
	{Name: "sc.bytes_per_state", Unit: "B", Better: "lower"},
	{Name: "sc.allocs_per_state", Unit: "count", Better: "lower"},
	{Name: "sc.self_s", Unit: "s", Better: "lower"},
	{Name: "sc.succ_ns", Unit: "ns", Better: "lower"},
	{Name: "sc.succ_allocs", Unit: "count", Better: "lower"},
	{Name: "sc.key_ns", Unit: "ns", Better: "lower"},
	{Name: "fp.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "fp.hit_ns", Unit: "ns", Better: "lower"},
	{Name: "replay.run_s", Unit: "s", Better: "lower"},
	{Name: "ra.oracle_s", Unit: "s", Better: "lower"},
	{Name: "ra.succ_ns", Unit: "ns", Better: "lower"},
	{Name: "ra.key_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.subsumed_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.miss_engine_s", Unit: "s", Better: "lower"},
	{Name: "cache.lookup_s", Unit: "s", Better: "lower"},
	{Name: "serve.handler_s", Unit: "s", Better: "lower"},
	{Name: "serve.transport_s", Unit: "s", Better: "lower"},
	{Name: "serve.queue_wait_s", Unit: "s", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "obs.trace_overhead", Unit: "ratio", Better: "lower"},
}

// lookupMetric finds a metric by name in either table.
func lookupMetric(name string) (Metric, bool) {
	for _, tab := range [][]Metric{EndToEnd, PerLayer} {
		for _, m := range tab {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}
