"""The registered ``codesign`` experiment: capture -> replay -> rows.

The harness-facing entry point of the co-design loop.  Two modes share
one runner:

* **Capture replay** (``capture=<path>``) — what ``python -m repro
  codesign`` schedules: load a ``codesign_capture/v1`` file (or a
  ``serve_sim`` record with a ``codesign`` block) and price it at one
  :class:`~repro.codesign.replay.ArchPoint`.  The ``digest`` parameter
  carries a content hash of the capture file purely to key the result
  cache — :class:`~repro.harness.ResultCache` hashes job parameters,
  not file contents, so the hash must ride in the parameters for a
  re-captured file to miss the cache.
* **Synthetic self-check** (no ``capture``) — what ``report`` and CI
  run: serve a small deterministic trace under each requested
  scheduling policy, capture it in-process, replay it, and add
  identity guards (capture JSON round-trip, replay determinism) whose
  ``paper=1.0`` rows make any drift a tolerance violation.
"""

from __future__ import annotations

import json

from repro.codesign.capture import (
    WorkloadCapture,
    capture_from_histograms,
    load_capture,
)
from repro.codesign.replay import ArchPoint, replay_capture
from repro.codesign.report import cost_rows
from repro.core.experiments import (
    ExperimentResult,
    ResultRow,
    register_experiment,
)
from repro.errors import ConfigError, RequestError

#: Scheduling policies the synthetic self-check knows how to build.
SYNTHETIC_POLICIES = ("fifo", "prefix-cache", "speculative")


def _synthetic_capture(policy: str, requests: int, max_new: int) -> WorkloadCapture:
    """Serve one deterministic greedy trace under ``policy`` and capture it.

    The model is the small self-calibrated transformer the serving
    tests use; the trace has shared-prefix traffic so ``prefix-cache``
    actually exercises the radix cache.  Greedy decoding keeps every
    count deterministic.  The capture counts served traffic only: the
    plan histograms are snapshotted after set-up (draft distillation
    included) and the replay's executions are the difference.
    """
    from repro.llm.transformer import TransformerConfig, init_weights
    from repro.model import parse_policy, quantize_model
    from repro.serve import Replica, ServeConfig, TraceSpec, synthesize

    if policy not in SYNTHETIC_POLICIES:
        raise ConfigError(
            f"unknown synthetic policy {policy!r} "
            f"(choose from {', '.join(SYNTHETIC_POLICIES)})"
        )
    config = TransformerConfig(
        vocab=64, d_model=32, n_heads=4, n_layers=2, d_ffn=64, max_seq=96
    )
    weights = init_weights(config, seed=0)
    qmodel = quantize_model(
        weights, parse_policy("rtn4@g[32,4]"), config=config,
        compute_reports=False,
    )
    spec = TraceSpec(
        requests=requests, seed=0, prompt_len=(4, 12), max_new=(4, max_new),
        mean_interarrival=1.0, eos_token=3,
        shared_prefix_len=8, shared_fraction=0.75,
    )
    trace = synthesize(spec, config.vocab, config.max_seq)
    cached = policy == "prefix-cache"
    serve = ServeConfig(
        max_batch=requests,
        prefill_chunk=16 if cached else None,
        prefix_cache_bytes=16 << 20 if cached else 0,
        draft="bigram" if policy == "speculative" else None,
    )
    report = Replica(qmodel, serve).serve(trace)
    if report.rejected:
        index, message = report.rejected[0]
        raise RequestError(f"synthetic request {index}: {message}")
    stats = report.stats
    return capture_from_histograms(
        report.plan_rows,
        report.plan_dims,
        policy=policy,
        served_tokens=stats.total_new_tokens,
        prompt_tokens=stats.prefill_tokens + stats.cached_prefix_tokens,
        requests=stats.completed,
    )


@register_experiment(
    name="codesign",
    artifact="hardware co-design loop (extension)",
    headline="served workloads replayed through the SIMT/energy/roofline models",
    extension=True,
)
def codesign_experiment(
    capture: str | None = None,
    digest: str | None = None,
    policies: tuple[str, ...] = ("fifo", "prefix-cache"),
    num_sms: int = 1,
    dram_beats: float = 24.0,
    adder_tree_dup: int = 2,
    dp_width: int = 4,
    requests: int = 6,
    max_new: int = 12,
) -> ExperimentResult:
    """Replay a workload capture (or synthetic policies) at one arch point."""
    del digest  # cache-key salt only (content hash of the capture file)
    arch = ArchPoint(
        num_sms=num_sms,
        dram_beats=dram_beats,
        adder_tree_dup=adder_tree_dup,
        dp_width=dp_width,
    )
    rows: list[ResultRow] = []
    if capture is not None:
        rows.extend(cost_rows(replay_capture(load_capture(capture), arch)))
        description = f"served-workload replay at {arch.label}"
    else:
        if isinstance(policies, str):
            policies = (policies,)
        for policy in policies:
            cap = _synthetic_capture(policy, requests=requests, max_new=max_new)
            cost = replay_capture(cap, arch)
            rows.extend(cost_rows(cost))
            roundtrip = WorkloadCapture.from_dict(
                json.loads(json.dumps(cap.to_dict()))
            )
            rows.append(
                ResultRow(
                    f"{policy}/identity/capture_roundtrip",
                    float(roundtrip == cap),
                    1.0,
                    "exact",
                )
            )
            rows.append(
                ResultRow(
                    f"{policy}/identity/replay_deterministic",
                    float(replay_capture(cap, arch) == cost),
                    1.0,
                    "exact",
                )
            )
        description = (
            "synthetic serving policies captured in-process and replayed "
            f"at {arch.label}"
        )
    return ExperimentResult("codesign", description, tuple(rows))
