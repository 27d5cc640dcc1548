package main

// metricDef names one reported number. BENCHMARK.json at the repository
// root lists the same names, units and bounds; smoke_test.go keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	// Per-layer metrics carry none.
	Bound float64
}

// endToEnd is what someone exploring the repository sees, measured with
// tracing off on every workload. Each bound is at least three times the
// widest spread (interquartile range over median, ten seeds, two sets) any
// workload showed on the 2-core reference box; README.md has the spreads.
// The timings sit at the 0.25 the contract allows at most: the box's
// neighbours move one seed's timings by 4-9 % between runs. What the
// program counts repeats within 1 % on one seed, and the workloads spread
// their inputs so that ten seeds differ by little more.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"alloc_kb_per_query", "KiB", "lower", 0.03},
	{"allocs_per_query", "count", "lower", 0.02},
	{"modeled_io_ms_per_query", "ms", "lower", 0.07},
}

// perLayer is the traced run's block: one entry per number a change to a
// single package under internal/ should move. A metric whose layer a
// workload never enters reads 0 there.
var perLayer = []metricDef{
	{Name: "trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "core.open_ms", Unit: "ms", Better: "lower"},
	{Name: "core.prepare_us", Unit: "us", Better: "lower"},
	{Name: "core.stage1_us", Unit: "us", Better: "lower"},
	{Name: "core.proceed_us", Unit: "us", Better: "lower"},
	{Name: "core.unattributed_share", Unit: "share", Better: "lower"},
	{Name: "mounts_per_query", Unit: "count", Better: "lower"},
	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "plan.bind_optimize_us", Unit: "us", Better: "lower"},
	{Name: "plan.normalize_fingerprint_us", Unit: "us", Better: "lower"},
	{Name: "plan.subsumption_us", Unit: "us", Better: "lower"},
	{Name: "stats.prune_ratio", Unit: "share", Better: "higher"},
	{Name: "stats.pruned_files_per_query", Unit: "count", Better: "higher"},
	{Name: "stats.join_flips", Unit: "count", Better: "higher"},
	{Name: "ingest.metadata_files_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ingest.eager_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "ingest.index_build_s", Unit: "s", Better: "lower"},
	{Name: "mseed.decode_msamples_per_s", Unit: "Msamples/s", Better: "higher"},
	{Name: "mseed.scan_headers_us_per_file", Unit: "us", Better: "lower"},
	{Name: "seismic.mount_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "seismic.mount_one_record_us", Unit: "us", Better: "lower"},
	{Name: "seismic.extract_metadata_us_per_file", Unit: "us", Better: "lower"},
	{Name: "mountsvc.flight_overhead_us", Unit: "us", Better: "lower"},
	{Name: "mountsvc.singleflight_hit_ratio", Unit: "share", Better: "higher"},
	{Name: "mountsvc.spilled_mb_per_query", Unit: "MiB", Better: "lower"},
	{Name: "mountsvc.spill_replay_reads", Unit: "count", Better: "lower"},
	{Name: "mountsvc.peak_replay_bytes", Unit: "B", Better: "lower"},
	{Name: "mountsvc.peak_inflight_bytes", Unit: "B", Better: "lower"},
	{Name: "admission.acquire_release_ns", Unit: "ns", Better: "lower"},
	{Name: "admission.wait_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "admission.waits", Unit: "count", Better: "lower"},
	{Name: "storage.spill_write_mb_per_s", Unit: "MiB/s", Better: "higher"},
	{Name: "storage.spill_read_mb_per_s", Unit: "MiB/s", Better: "higher"},
	{Name: "storage.pool_hit_ratio", Unit: "share", Better: "higher"},
	{Name: "storage.pool_misses_per_query", Unit: "count", Better: "lower"},
	{Name: "storage.pool_evictions", Unit: "count", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "share", Better: "higher"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "resultcache.hit_ratio", Unit: "share", Better: "higher"},
	{Name: "resultcache.subsumption_hit_ratio", Unit: "share", Better: "higher"},
	{Name: "resultcache.demotions", Unit: "count", Better: "lower"},
	{Name: "resultcache.promotions", Unit: "count", Better: "lower"},
	{Name: "resultcache.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "resultcache.promote_us", Unit: "us", Better: "lower"},
	{Name: "resultcache.refilter_us", Unit: "us", Better: "lower"},
	{Name: "exec.join_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "exec.agg_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "exec.filter_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "exec.sort_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "exec.serve_cached_us", Unit: "us", Better: "lower"},
	{Name: "expr.compare_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "vector.share_ns", Unit: "ns", Better: "lower"},
	{Name: "vector.gather_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "vector.permute_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "vector.cow_copies_per_query", Unit: "count", Better: "lower"},
	{Name: "par.foreach_overhead_us", Unit: "us", Better: "lower"},
	{Name: "index.lookup_us", Unit: "us", Better: "lower"},
}

// metricValue is one reported number in the shape the result line and
// the -out file share.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report pairs every definition with its measured value; a metric the
// run never set reads 0.
func report(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
