package main

// tailQuantile is the percentile behind latency_tail_ms on each
// workload, fixed per workload so runs compare like with like. It has
// at least ten samples beyond it: games-cold completes several hundred
// ops per run. serve-hot's p99 would land on the fsync'd job submits,
// 5% of its ops, whose latency follows the shared disk and swung
// between 3 and 15 ms from run to run; its p90 is the tail of the
// verdict ops.
func tailQuantile(workload string) float64 {
	if workload == "serve-hot" {
		return 0.90
	}
	return 0.95
}

// layerMetrics lists every per-layer row with its unit. A traced run
// prints all of them on every workload; a row whose layer the workload
// does not reach reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"router.hop_p50_ms", "ms"},
	{"router.route_key_p50_us", "us"},
	{"router.affinity_frac", "ratio"},
	{"router.retried", "count"},
	{"service.decode_p50_us", "us"},
	{"service.memo_hit_frac", "ratio"},
	{"service.memo_evictions", "count"},
	{"service.memo_phase_p50_us", "us"},
	{"service.cache_hit_frac", "ratio"},
	{"service.cache_evictions", "count"},
	{"service.shed_wait_p99_ms", "ms"},
	{"service.shed_frac", "ratio"},
	{"graph.hash_p50_us", "us"},
	{"simulate.prepare_p50_us", "us"},
	{"simulate.prepare_phase_p50_us", "us"},
	{"simulate.leaf_ns", "ns"},
	{"core.engine_p50_ms", "ms"},
	{"core.leaves_per_op", "count"},
	{"core.memo_hit_frac", "ratio"},
	{"core.memo_waits_per_op", "count"},
	{"search.cpu_busy_frac", "ratio"},
	{"journal.append_p50_ms", "ms"},
	{"journal.fsync_p50_ms", "ms"},
	{"journal.fsync_p99_ms", "ms"},
	{"journal.appends_per_job", "count"},
	{"jobs.idem_hit_frac", "ratio"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"obs.tracing_overhead_frac", "ratio"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.offered_ops_per_s", "1/s"},
	{"loadgen.clients", "count"},
	{"host.calib_ms", "ms"},
}

// zeroLayerMetrics seeds m with every per-layer row at 0, including
// one experiments.<slug>_ms row per experiment.
func zeroLayerMetrics(m metricSet) {
	for _, l := range layerMetrics {
		m.add(l.name, 0, l.unit)
	}
	for _, e := range experimentIndex() {
		m.add("experiments."+e.id+"_ms", 0, "ms")
	}
}
