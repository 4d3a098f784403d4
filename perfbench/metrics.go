package main

// metricDef is one metric of the benchmark: its unit, which direction is
// better and, for end-to-end metrics, the share of the parent's median by
// which it may worsen before a change counts as a regression. BENCHMARK.json
// at the repository root mirrors this table (TestBenchmarkJSONMatchesTable).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload. The timing bounds are the widest allowed:
// on the shared 2-core host this benchmark was defined on, the same binary's
// throughput drifts by ±7% between 2-second windows of one run and by ~10%
// (interquartile) between runs. On the engine workloads a "job" is the
// workload's unit of timed work: one sweep on persite-4096, one tempering
// round (ten sweeps, a swap phase and a measurement) on ladder-sharded.
var endToEnd = []metricDef{
	{"flips_per_ns", "flips/ns", "higher", 0.25},
	{"job_ms_p50", "ms", "lower", 0.25},
	{"job_ms_p90", "ms", "lower", 0.25},
	{"jobs_per_s", "jobs/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"max_rss_mb", "MiB", "lower", 0.2},
}

// perLayer is the traced run's ledger, down the stack: Philox block → row
// kernel → engine sweep → lane batch → mesh shards → tempering → service
// job. Every traced run reports all of them (see ledger.go).
var perLayer = []metricDef{
	{"rng.blockrow_words_per_ns", "words/ns", "higher", 0},
	{"rng.blocklanes_words_per_ns", "words/ns", "higher", 0},
	{"multispin.kernel_flips_per_ns", "flips/ns", "higher", 0},
	{"multispin.ref_flips_per_ns", "flips/ns", "higher", 0},
	{"multispin.row_us", "us", "lower", 0},
	{"multispin.compare_frac", "fraction", "lower", 0},
	{"multispin.sweep_ms_p50", "ms", "lower", 0},
	{"multispin.sweep_ms_p99", "ms", "lower", 0},
	{"multispin.parallel_eff", "fraction", "higher", 0},
	{"ensemble.kernel_flips_per_ns", "flips/ns", "higher", 0},
	{"ensemble.ref_flips_per_ns", "flips/ns", "higher", 0},
	{"shardedensemble.sweep_ms_p50", "ms", "lower", 0},
	{"shardedensemble.sweep_ms_p99", "ms", "lower", 0},
	{"shardedensemble.halo_frac", "fraction", "lower", 0},
	{"pod.halo_us", "us", "lower", 0},
	{"pod.halo_bytes_per_sweep", "bytes", "lower", 0},
	{"pod.halo_msgs_per_sweep", "count", "lower", 0},
	{"tempering.swap_us", "us", "lower", 0},
	{"tempering.measure_us", "us", "lower", 0},
	{"tempering.swap_accept", "fraction", "higher", 0},
	{"snapshot.encode_us", "us", "lower", 0},
	{"snapshot.bytes", "bytes", "lower", 0},
	{"backend.new_ms", "ms", "lower", 0},
	{"service.submit_ms_p50", "ms", "lower", 0},
	{"service.result_ms_p50", "ms", "lower", 0},
	{"service.queue_wait_ms_p50", "ms", "lower", 0},
	{"service.run_ms_p50", "ms", "lower", 0},
	{"service.run_ms_p95", "ms", "lower", 0},
	{"service.checkpoint_write_ms_p95", "ms", "lower", 0},
	{"service.stream_write_ms_p95", "ms", "lower", 0},
	{"service.run_frac", "fraction", "higher", 0},
	{"service.flips_per_ns", "flips/ns", "higher", 0},
	{"service.checkpoints_per_job", "count", "lower", 0},
	{"service.checkpoint_bytes_per_job", "bytes", "lower", 0},
	{"service.stream_wakeups_per_sweep", "1/sweep", "lower", 0},
	{"service.cache_hits", "count", "lower", 0},
	{"error_rate", "fraction", "lower", 0},
	{"trace.overhead_frac", "fraction", "lower", 0},
}
