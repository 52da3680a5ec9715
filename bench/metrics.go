package main

// metric is one reported number: its name, unit, which direction is better,
// and — for end-to-end metrics — the share of the parent's median by which
// it may worsen before a change counts as a regression. BENCHMARK.json
// repeats these rows; TestBenchmarkJSONMatchesRegistry keeps the two equal.
type metric struct {
	name   string
	unit   string
	higher bool
	bound  float64
}

// endToEnd are the numbers a user of the trainer sees, measured untraced and
// bounded for regressions. Times are in yardstick runs ("ys", yardstick.go)
// rather than seconds: on the calibration host, other tenants slow whole
// runs by up to 1.6×, which moves raw step times by 14–42% from run to run
// and the yardstick-normalized ones by a few percent. setup_s is reported in
// seconds, counting one ys as yardstickSeconds. See README.md.
var endToEnd = []metric{
	{"points_per_ys", "points/ys", true, 0.25},
	{"time_to_l2_ys", "ys", false, 0.25},
	{"final_l2", "ratio", false, 0.01},
	{"setup_s", "s", false, 0.25},
	{"peak_rss_mb", "MiB", false, 0.15},
}

// reported are untraced numbers printed and saved with every run but not
// bounded: on a shared host they move with the host as much as with the
// program.
var reported = []metric{
	{name: "setup_wall_s", unit: "s"},
	{name: "step_ms_p10", unit: "ms"},
	{name: "step_ms_p50", unit: "ms"},
	{name: "step_ms_p90", unit: "ms"},
	{name: "eval_ms_p50", unit: "ms"},
	{name: "time_to_l2_wall_s", unit: "s"},
	{name: "yardstick_ms", unit: "ms"},
}

// perLayer are the traced run's per-step layer numbers (medians over traced
// steps unless README.md says otherwise). A metric a workload's layers do
// not exercise — dist on an in-process engine, the loss on inference —
// reads 0.
var perLayer = []metric{
	{name: "maxwell.build_ms", unit: "ms"},
	{name: "maxwell.build_self_ms", unit: "ms"},
	{name: "maxwell.build_allocs", unit: "count"},
	{name: "ad.backward_ms", unit: "ms"},
	{name: "ad.backward_self_ms", unit: "ms"},
	{name: "ad.backward_allocs", unit: "count"},
	{name: "ad.tape_nodes", unit: "count"},
	{name: "core.eval_fields_self_ms", unit: "ms"},
	{name: "core.eval_ms", unit: "ms"},
	{name: "core.eval_calls", unit: "count"},
	{name: "opt.step_ms", unit: "ms"},
	{name: "qsim.fwd_ms", unit: "ms"},
	{name: "qsim.bwd_ms", unit: "ms"},
	{name: "qsim.fwd_passes", unit: "count"},
	{name: "qsim.bwd_passes", unit: "count"},
	{name: "qsim.compile_ms", unit: "ms"},
	{name: "refsol.reference_ms", unit: "ms"},
	{name: "dist.batches", unit: "count"},
	{name: "dist.shards", unit: "count"},
	{name: "dist.bytes_out", unit: "bytes"},
	{name: "dist.bytes_in", unit: "bytes"},
	{name: "dist.redispatched", unit: "count"},
	{name: "dist.affinity_hit_ratio", unit: "ratio", higher: true},
	{name: "dist.shard_rtt_ms", unit: "ms"},
	{name: "dist.worker_busy_ms", unit: "ms"},
	{name: "dist.wait_ms", unit: "ms"},
	{name: "dist.worker_peak_rss_mb", unit: "MiB"},
	{name: "par.regions", unit: "count"},
	{name: "par.chunks", unit: "count"},
	{name: "par.steals", unit: "count"},
	{name: "go.alloc_mb", unit: "MiB"},
	{name: "go.gc_cycles", unit: "count"},
	{name: "go.gc_pause_ms", unit: "ms"},
	{name: "trace.overhead_ratio", unit: "ratio"},
	{name: "bench.layer_coverage", unit: "ratio", higher: true},
}

// metricsFor returns the bounded registry a run reports: per-layer when
// traced.
func metricsFor(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}
