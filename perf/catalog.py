"""The benchmark's workloads and metrics, by name.

``BENCHMARK.json`` lists the same names; a self-test keeps the two equal.
"""

# Why each workload exists is written in BENCHMARK.json and README.md.
WORKLOADS = ("point-unique", "point-zipf-reload", "cluster-unique", "optimizer-batch")

# name -> unit; the order is the order they print in.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "estimates_per_s": "1/s",
    "qerror_p50": "ratio",
    "qerror_p95": "ratio",
    "qerror_p99": "ratio",
    "peak_rss_mb": "MB",
    "model_bytes": "bytes",
}
PER_LAYER = {
    "http.overhead_ms_p50": "ms",
    "http.parse_us_p50": "us",
    "service.estimate_ms_p50": "ms",
    "service.estimate_ms_p99": "ms",
    "service.reload_ms_p50": "ms",
    "cache.hit_rate": "fraction",
    "cache.get_us_p50": "us",
    "batcher.queue_wait_ms_p50": "ms",
    "batcher.execute_ms_p50": "ms",
    "batcher.mean_batch_size": "count",
    "cluster.ipc_ms_p50": "ms",
    "cluster.worker_estimate_ms_p50": "ms",
    "cluster.latency_p99_ms": "ms",
    "cluster.shed": "count",
    "cluster.retries": "count",
    "cluster.start_s": "s",
    "cluster.segment_bytes": "bytes",
    "inference.estimate_batch_ms_p50": "ms",
    "inference.constraints_ms_per_query": "ms",
    "inference.constraint_build_frac": "fraction",
    "gmm.range_mass_ms_per_query": "ms",
    "gmm.mass_hit_rate": "fraction",
    "gmm.mass_evictions": "count",
    "sampler.self_ms_per_query": "ms",
    "sampler.mean_group_size": "count",
    "sampler.ar_steps_per_query": "count",
    "plan.forward_ms_per_query": "ms",
    "plan.forward_calls_per_query": "count",
    "plan.prefix_hit_rate": "fraction",
    "plan.bytes": "bytes",
    "plan.compile_ms": "ms",
    "train.fit_s": "s",
    "train.steps_per_s": "1/s",
    "train.loss_grads_ms_p50": "ms",
    "train.optimizer_ms_p50": "ms",
    "train.gmm_finalise_s": "s",
    "persist.save_ms": "ms",
    "persist.load_ms": "ms",
    "trace.overhead_frac": "fraction",
}
