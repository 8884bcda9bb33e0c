"""Every metric the benchmark prints, with its unit.

``BENCHMARK.json`` declares the same names; ``selftest.py`` checks that
the two agree.  The co-design layers run only in ``decode`` runs; the
other workloads report 0 for them.
"""

END_TO_END = {
    "tokens_per_s": "tok/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "request_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

SERVING_LAYERS = {
    "engine.calls": "count",
    "engine.self_ms": "ms",
    "engine.ms_per_token": "ms/tok",
    "engine.prefill_ms": "ms",
    "engine.decode_ms": "ms",
    "engine.verify_ms": "ms",
    "engine.wq_ms": "ms",
    "engine.wk_ms": "ms",
    "engine.wv_ms": "ms",
    "engine.wo_ms": "ms",
    "engine.w_gate_ms": "ms",
    "engine.w_up_ms": "ms",
    "engine.w_down_ms": "ms",
    "engine.mean_rows": "rows",
    "engine.gmac_per_s": "GMAC/s",
    "engine.share": "fraction",
    "engine.warm_rss_mib": "MiB",
    "engine.efficiency_vs_reference": "ratio",
    "llm.calls": "count",
    "llm.self_ms": "ms",
    "llm.self_ms_per_token": "ms/tok",
    "batch.self_ms": "ms",
    "kv.copy_ms": "ms",
    "kv.copy_mib": "MiB",
    "kv.truncate_calls": "count",
    "scheduler.steps": "count",
    "scheduler.self_ms": "ms",
    "scheduler.mean_occupancy": "fraction",
    "scheduler.prefill_stall_steps": "count",
    "scheduler.mean_queue_wait_steps": "steps",
    "sampling.ms": "ms",
    "prefix.lookup_ms": "ms",
    "prefix.insert_ms": "ms",
    "prefix.token_hit_rate": "fraction",
    "prefix.evictions": "count",
    "prefix.peak_mib": "MiB",
    "prefix.budget_mib": "MiB",
    "spec.propose_ms": "ms",
    "spec.acceptance_rate": "fraction",
    "spec.accepted_per_verify_step": "tokens",
    "spec.wasted_rows": "rows",
}

CODESIGN_LAYERS = {
    "codesign.self_ms": "ms",
    "codesign.buckets": "count",
    "codesign.host_us_per_bucket": "us",
    "metrics.self_ms": "ms",
    "metrics.distinct_shapes": "count",
    "simt.ms": "ms",
    "simt.octet_traces_per_shape": "ratio",
    "roofline.ms": "ms",
}

TRACE_LAYERS = {"trace.overhead": "ratio"}

PER_LAYER = {**SERVING_LAYERS, **CODESIGN_LAYERS, **TRACE_LAYERS}
UNITS = {**END_TO_END, **PER_LAYER}
