package main

// metric is one reported number: its name, unit and which direction is an
// improvement. The two catalogs below are the benchmark's whole vocabulary;
// BENCHMARK.json lists the same names and units (the self-test checks it).
type metric struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the numbers a user of the system sees. Every workload
// reports every one of them, so each has a meaning on every workload
// (README.md spells them out per workload). The p90 and p99 latencies are
// printed but not gated: between runs on a shared 2-core machine they moved
// by more than any allowed bound (README.md has the measured spreads).
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"persist_s", "s", "lower"},
	{"open_ms", "ms", "lower"},
	{"bytes_per_fact", "B", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"max_qps", "q/s", "higher"},
	{"update_visible_ms", "ms", "lower"},
}

// perLayer are the traced run's numbers, named <module>.<quantity>. A layer
// that does no work on a workload reports 0 there.
var perLayer = []metric{
	{"ir.parse_ms", "ms", "lower"},
	{"anders.analyze_s", "s", "lower"},
	{"anders.constraints", "count", "lower"},
	{"anders.hvn_merged", "count", "higher"},
	{"anders.cycle_merged", "count", "higher"},
	{"anders.rounds", "count", "lower"},
	{"matrix.facts", "count", "lower"},
	{"core.build_s", "s", "lower"},
	{"core.rects", "count", "lower"},
	{"core.rects_pruned", "count", "lower"},
	{"core.rect_keep_ratio", "ratio", "higher"},
	{"core.index_build_ms", "ms", "lower"},
	{"core.write_pes1_ms", "ms", "lower"},
	{"core.write_pes2_ms", "ms", "lower"},
	{"core.pes1_bytes", "B", "lower"},
	{"core.pes2_bytes", "B", "lower"},
	{"core.load_pes1_ms", "ms", "lower"},
	{"core.open_pes2_ms", "ms", "lower"},
	{"core.index_mib", "MiB", "lower"},
	{"core.isalias_ns", "ns", "lower"},
	{"core.aliases_us", "us", "lower"},
	{"core.pointsto_us", "us", "lower"},
	{"core.pointedby_us", "us", "lower"},
	{"core.ids_per_query", "count", "lower"},
	{"delta.snapshot_op_us", "us", "lower"},
	{"delta.write_segment_ms", "ms", "lower"},
	{"delta.chain_len", "count", "lower"},
	{"store.acquire_us", "us", "lower"},
	{"store.refresh_ms", "ms", "lower"},
	{"store.apply_ratio", "ratio", "higher"},
	{"server.handler_ms", "ms", "lower"},
	{"server.batch_ms", "ms", "lower"},
	{"server.codec_ms", "ms", "lower"},
	{"server.coord.handler_ms", "ms", "lower"},
	{"server.coord.hit_ratio", "ratio", "higher"},
	{"server.coord.cache_evictions", "count", "lower"},
	{"server.coord.dedup", "count", "higher"},
	{"server.coord.shard_ms", "ms", "lower"},
	{"server.coord.shard_balance", "ratio", "lower"},
	{"runtime.alloc_bytes_per_query", "B", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"bench.net_ms", "ms", "lower"},
	{"bench.gen_lag_ms", "ms", "lower"},
	{"bench.unattributed_ms", "ms", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
	{"bench.error_ratio", "ratio", "lower"},
	{"bench.latency_samples", "count", "higher"},
}
