"""Command-line entry point: ``python -m repro <command> [...]``.

Subcommands (the ``pacq-repro`` interface):

* ``run <experiment> [--set k=v ...]`` — execute one experiment (or
  ``all``) and print / emit its paper-vs-measured table; ``run table1``
  prints the configuration table.
* ``sweep`` — expand a :class:`repro.harness.SweepSpec` (default:
  every engine backend x every Table II group spec) into jobs, execute
  them serially or with ``--jobs N`` worker processes through the
  on-disk result cache, and emit artifacts.
* ``report`` — run every registered experiment, regenerate
  ``EXPERIMENTS.md`` plus JSON/CSV artifacts, and with ``--check``
  exit non-zero on any out-of-tolerance deviation or a stale
  committed ``EXPERIMENTS.md``.
* ``list`` — registered experiments with their metadata.
* ``quantize`` — build the toy decoder, apply a model-level
  quantization policy (:mod:`repro.model`), and write a checkpoint
  directory (per-layer ``.npz`` + JSON manifest).
* ``generate`` — load a checkpoint into an
  :class:`~repro.model.InferenceSession` and run KV-cached generation
  (greedy or top-k), optionally printing per-layer GEMM telemetry.
* ``serve-sim`` — replay a deterministic synthetic request trace
  through one :class:`~repro.serve.Replica` (or ``--workers N`` of
  them behind a :class:`~repro.serve.Router`) and print per-request +
  aggregate serving telemetry; ``--codesign POLICY`` stamps a
  replayable workload capture into the ``--json`` record.
* ``codesign`` — replay captured serving workloads through the
  SIMT/energy/roofline models (:mod:`repro.codesign`) across an
  architecture grid, writing the merged CSV and regenerating the
  ``docs/codesign.md`` figures section (``--check`` gates staleness).
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import hashlib
import itertools
import json
import os
import pathlib
import sys
from typing import Any, Sequence

from repro.core import extensions as _extensions  # noqa: F401  (registers)
from repro.core.experiments import (
    EXPERIMENT_REGISTRY,
    ExperimentResult,
    get_experiment,
    registered_experiments,
    table1,
)
from repro.core.report import (
    RunRecord,
    check_records,
    record_to_dict,
    render_csv,
    render_experiments_md,
    render_table,
    sync_artifact,
)
from repro.engine import DEFAULT_BACKEND, backend_names
from repro.errors import ConfigError, QuantizationError
from repro.harness import (
    Job,
    ResultCache,
    SweepSpec,
    default_sweep,
    run_jobs,
)

# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------


def _parse_value(text: str) -> Any:
    """``--set``/``--grid`` value: python literal if it parses, else str."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _parse_set(items: Sequence[str]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        out[key] = _parse_value(value)
    return out


def _split_values(text: str) -> list[str]:
    """Split on commas outside brackets (``g[32,4]`` is one value)."""
    parts, depth, current = [], 0, []
    for char in text:
        if char in "[(":
            depth += 1
        elif char in "])":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    return [p for p in (part.strip() for part in parts) if p]


def _parse_grid(items: Sequence[str]) -> dict[str, list[Any]]:
    out: dict[str, list[Any]] = {}
    for item in items:
        key, sep, values = item.partition("=")
        if not sep or not key or not values:
            raise ConfigError(f"--grid expects key=v1,v2,..., got {item!r}")
        if key == "backend" and values == "all":
            out[key] = list(backend_names())
        else:
            out[key] = [_parse_value(v) for v in _split_values(values)]
    return out


def _cache_from_args(args: argparse.Namespace, default_on: bool) -> ResultCache | None:
    if getattr(args, "no_cache", False):
        return None
    if args.cache_dir is not None:
        return ResultCache(args.cache_dir)
    return ResultCache() if default_on else None


def _outcomes_to_records(outcomes) -> list[RunRecord]:
    return [
        RunRecord(
            experiment=o.job.experiment,
            params=o.job.params_dict(),
            result=o.result,
            cached=o.cached,
            elapsed_s=o.elapsed_s,
        )
        for o in outcomes
    ]


def _write_artifacts(records: list[RunRecord], directory: pathlib.Path) -> list[str]:
    """Per-run JSON + merged CSV into ``directory``; returns filenames."""
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for record in records:
        job = Job.make(record.experiment, record.params)
        path = directory / f"run-{job.slug}.json"
        path.write_text(
            json.dumps(record_to_dict(record), indent=1, sort_keys=True,
                       default=str)
        )
        written.append(path.name)
    csv_path = directory / "results.csv"
    csv_path.write_text(render_csv(records))
    written.append(csv_path.name)
    return written


def _print_result(result: ExperimentResult) -> None:
    print(render_table(f"{result.experiment}: {result.description}",
                       result.headers(), result.table_rows()))
    print()


def _print_table1() -> None:
    rows = [[unit, composition] for unit, composition in table1()]
    print(render_table("table1: configuration of PacQ and baselines",
                       ["unit", "composition"], rows))
    print()


def _emit_records(records: list[RunRecord], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([record_to_dict(r) for r in records], indent=1,
                         default=str))
    elif fmt == "csv":
        print(render_csv(records), end="")
    else:
        for record in records:
            if record.result is not None:
                _print_result(record.result)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    params = _parse_set(args.set or [])
    if args.backend is not None:
        params["backend"] = args.backend
    if args.experiment == "table1":
        if params or args.format != "text":
            raise ConfigError("table1 takes no parameters and prints text only")
        _print_table1()
        return 0
    if args.experiment == "all":
        if args.format == "text":
            _print_table1()
        # Parameters apply where accepted; 'all' spans heterogeneous
        # signatures, so unknown keys are dropped per experiment.
        jobs = [
            Job.make(e.name, {k: v for k, v in params.items() if e.accepts(k)})
            for e in registered_experiments()
        ]
    else:
        get_experiment(args.experiment)  # raise early, listing names
        jobs = [Job.make(args.experiment, params)]
    cache = _cache_from_args(args, default_on=False)
    outcomes = run_jobs(jobs, workers=args.jobs, cache=cache, force=args.force)
    _emit_records(_outcomes_to_records(outcomes), args.format)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid or [])
    base = _parse_set(args.set or [])
    if args.experiments is None and not grid:
        # Stock sweep; --set overrides its base parameters.
        stock = default_sweep()
        merged = dict(stock.base)
        merged.update(base)
        spec = SweepSpec.make(
            stock.experiments, grid=dict(stock.grid), base=merged
        )
    else:
        if args.experiments == "all":
            names = [e.name for e in registered_experiments()]
        elif args.experiments is None:
            # --grid without --experiments: sweep only the experiments
            # the grid actually applies to, not all 13 registered.
            names = [
                e.name
                for e in registered_experiments()
                if any(e.accepts(axis) for axis in grid)
            ]
            if not names:
                raise ConfigError(
                    f"no registered experiment accepts grid axis(es) "
                    f"{', '.join(sorted(grid))}"
                )
        else:
            names = [n.strip() for n in args.experiments.split(",") if n.strip()]
        spec = SweepSpec.make(names, grid=grid, base=base)
    jobs = spec.jobs()
    cache = _cache_from_args(args, default_on=True)
    outcomes = run_jobs(jobs, workers=args.jobs, cache=cache, force=args.force)
    records = _outcomes_to_records(outcomes)

    if args.format == "text":
        rows = [
            [o.job.label, len(o.result.rows),
             "hit" if o.cached else "run", f"{o.elapsed_s:.2f}s"]
            for o in outcomes
        ]
        print(render_table(f"sweep: {len(jobs)} jobs",
                           ["job", "rows", "cache", "elapsed"], rows))
        cached = sum(1 for o in outcomes if o.cached)
        print(f"\ncache: {cached}/{len(outcomes)} jobs served from cache"
              + (f" ({cache.root})" if cache else " (caching disabled)"))
        builds = sum(o.plan_builds for o in outcomes)
        reuses = sum(o.plan_reuses for o in outcomes)
        print(f"engine plans: {builds} built, {reuses} reused across jobs")
    else:
        _emit_records(records, args.format)

    if args.out:
        written = _write_artifacts(records, pathlib.Path(args.out))
        print(f"artifacts: {len(written)} files in {args.out}/")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    jobs = [Job.make(e.name, {}) for e in registered_experiments()]
    cache = _cache_from_args(args, default_on=True)
    outcomes = run_jobs(jobs, workers=args.jobs, cache=cache, force=args.force)
    records = _outcomes_to_records(outcomes)

    current = sync_artifact(args.out, render_experiments_md(records), args.check)

    if args.artifacts:
        written = _write_artifacts(records, pathlib.Path(args.artifacts))
        print(f"artifacts: {len(written)} files in {args.artifacts}/")

    violations = check_records(records)
    for message in violations:
        print(f"DEVIATION: {message}", file=sys.stderr)
    if args.check and (violations or not current):
        return 1
    print("check: all deviations within per-row tolerances"
          if not violations else
          f"note: {len(violations)} deviation(s) beyond tolerance (no --check)")
    return 0


def _cmd_quantize(args: argparse.Namespace) -> int:
    from repro.llm.transformer import TransformerConfig, init_weights
    from repro.model import parse_policy, quantize_model, save_model

    config = TransformerConfig(
        vocab=args.vocab,
        d_model=args.d_model,
        n_heads=args.n_heads,
        n_layers=args.n_layers,
        d_ffn=args.d_ffn,
        max_seq=args.max_seq,
    )
    weights = init_weights(config, seed=args.seed)
    policy = parse_policy(args.policy)
    model = quantize_model(weights, policy, config=config)
    out = save_model(args.out, model)

    print(render_table(
        f"quantize: policy {policy.label}",
        ["layer", "recipe", "sqnr dB", "mse"],
        model.summary_rows(),
    ))
    fp16_bits = 16 * sum(
        w.size for name, w in weights.linear_matrices() if name in model.layers
    )
    quant_bits = model.quantized_bits()
    if quant_bits and fp16_bits:
        print(f"\nquantized linears: {quant_bits / 8 / 1024:.1f} KiB "
              f"({fp16_bits / max(quant_bits, 1):.2f}x smaller than FP16)")
    print(f"wrote checkpoint to {out}/ "
          f"({len(model.layers)} quantized layers, "
          f"{len(model.kept_fp16)} kept FP16)")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    import time

    from repro.model import InferenceSession

    session = InferenceSession.from_checkpoint(args.model, backend=args.backend)
    try:
        prompt = [int(t) for t in args.prompt.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(
            f"--prompt expects comma-separated token ids, got {args.prompt!r}"
        ) from None
    start = time.perf_counter()
    result = session.generate(
        prompt,
        args.max_new,
        top_k=args.top_k,
        temperature=args.temperature,
        seed=args.seed,
    )
    elapsed = time.perf_counter() - start

    mode = "greedy" if args.top_k is None else f"top-{args.top_k}"
    print(f"prompt ({len(prompt)} tokens): "
          + " ".join(str(t) for t in prompt))
    print(f"generated ({mode}, backend={args.backend}): "
          + " ".join(str(t) for t in result.new_tokens))
    per_token = elapsed / max(len(result.new_tokens), 1)
    print(f"{len(result.new_tokens)} tokens in {elapsed:.3f}s "
          f"({1.0 / per_token:.1f} tok/s, {per_token * 1e3:.2f} ms/token)")
    if args.telemetry:
        print()
        print(render_table(
            "telemetry: per-layer GEMM activity",
            ["site", "calls", "rows", "n", "k", "MACs",
             "wKiB moved", "aKiB moved"],
            session.telemetry.summary_rows(),
        ))
    return 0


def _parse_range(text: str, flag: str) -> tuple[int, int]:
    """``LO,HI`` (or a single value) into an inclusive integer range."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        values = [int(p) for p in parts]
    except ValueError:
        values = []
    if len(values) == 1:
        values = values * 2
    if len(values) != 2:
        raise ConfigError(f"{flag} expects LO,HI (or one value), got {text!r}")
    return values[0], values[1]


def _print_serve_sim(args: argparse.Namespace, fleet) -> None:
    """The serve-sim text report, for one worker or N."""
    stats = fleet.stats
    wait = fleet.queue_wait()
    print(render_table(
        f"serve-sim: {args.requests} requests, max_batch={args.max_batch}, "
        f"backend={args.backend}, workers={len(fleet.workers)}",
        ["req", "prompt", "cached", "new", "finish", "wait steps", "tok/s"],
        [
            [r.request_id, r.prompt_length, r.cached_prefix_tokens,
             len(r.new_tokens), r.finish_reason, r.queue_wait_steps,
             f"{r.tokens_per_s:.0f}"]
            for r in fleet.results
        ],
    ))
    for index, message in fleet.rejected:
        print(f"rejected request {index}: {message}", file=sys.stderr)
    print(
        f"\naggregate: {stats.total_new_tokens} tokens over {stats.steps} steps "
        f"({stats.decode_steps} decode) at {stats.aggregate_tokens_per_s:.0f} "
        f"tok/s; mean occupancy {stats.mean_occupancy:.0%}; queue wait mean "
        f"{stats.mean_queue_wait_steps:.1f} / p50 {wait['p50']:.1f} / "
        f"p95 {wait['p95']:.1f} steps"
    )
    print(
        f"prompt ingestion: {stats.prefill_tokens} tokens prefilled + "
        f"{stats.cached_prefix_tokens} from the prefix cache "
        f"({stats.prefix_hit_rate:.0%} hit rate); {stats.decode_tokens} "
        f"decoded; peak {stats.max_prefill_tokens_per_step} prefill "
        f"tokens/step, {stats.prefill_stall_steps} stalled step(s)"
    )
    if args.draft != "none":
        print(
            f"speculation: draft={args.draft} k={args.spec_k}; "
            f"{stats.drafted_tokens} drafted, "
            f"{stats.accepted_draft_tokens} accepted, "
            f"{stats.wasted_draft_tokens} wasted "
            f"({stats.draft_acceptance_rate:.0%} acceptance); "
            f"{stats.accepted_per_verify_step:.2f} draft tokens accepted "
            f"per verify step over {stats.verify_steps} step(s)"
        )
    cache = fleet.prefix_cache
    if cache is not None:
        print(render_table(
            f"prefix cache: {args.prefix_cache_mb} MiB budget per worker",
            ["metric", "value"],
            [
                ["lookups (hit/miss)",
                 f"{cache.lookups} ({cache.hits}/{cache.misses})"],
                ["token hit rate", f"{cache.token_hit_rate:.0%}"],
                ["tokens served from cache", cache.hit_tokens],
                ["tokens inserted", cache.inserted_tokens],
                ["evictions (tokens)",
                 f"{cache.evictions} ({cache.evicted_tokens})"],
                ["resident", f"{cache.bytes / 2**20:.2f} MiB in "
                 f"{cache.nodes} node(s)"],
            ],
        ))
    if len(fleet.workers) > 1:
        print(render_table(
            f"fleet: {len(fleet.workers)} workers, "
            "least-outstanding-tokens dispatch",
            ["rank", "reqs", "new", "tok/s", "occupancy", "wait p50",
             "wait p95"],
            [
                [w.rank, len(w.results), w.new_tokens, f"{w.tokens_per_s:.0f}",
                 f"{w.occupancy:.0%}",
                 *(f"{v:.1f}" for v in w.queue_wait().values())]
                for w in fleet.workers
            ],
        ))
    row_counts = sorted(
        {int(m) for site in fleet.merged_plan_rows().values()
         for m in site["rows"]}
    )
    print(
        f"engine plans: {len(fleet.plan_dims)} sites per worker, executed "
        f"at batch sizes {row_counts} (plan reuse across varying row counts)"
    )


def _serve_sim_record(args: argparse.Namespace, spec, fleet) -> dict:
    """The serve-sim ``--json`` record: the same keys for any worker count.

    Blocks a run does not have (prefix cache, speculation, codesign
    capture) are ``None``.
    """
    from repro.codesign import capture_from_histograms
    from repro.model.session import Telemetry

    stats = fleet.stats
    wait = fleet.queue_wait()
    plan_rows = fleet.merged_plan_rows()
    telemetry = Telemetry(plan_rows, fleet.plan_dims)
    cache = fleet.prefix_cache
    codesign = None
    if args.codesign:
        capture = capture_from_histograms(
            plan_rows,
            fleet.plan_dims,
            policy=args.codesign,
            served_tokens=stats.total_new_tokens,
            prompt_tokens=stats.prefill_tokens + stats.cached_prefix_tokens,
            requests=stats.completed,
        )
        codesign = capture.to_dict()
        print(
            f"codesign capture {args.codesign!r}: {capture.gemm_calls} "
            f"GEMM calls across {len(capture.sites)} sites"
        )
    return {
        "schema": "serve_sim/v6",
        "spec": dataclasses.asdict(spec),
        "backend": args.backend,
        "max_batch": args.max_batch,
        "prefill_chunk": args.prefill_chunk,
        "results": [
            {
                "request_id": r.request_id,
                "prompt_length": r.prompt_length,
                "cached_prefix_tokens": r.cached_prefix_tokens,
                "new_tokens": [int(t) for t in r.new_tokens],
                "finish_reason": r.finish_reason,
                "queue_wait_steps": r.queue_wait_steps,
                "tokens_per_s": r.tokens_per_s,
                "drafted_tokens": r.drafted_tokens,
                "accepted_draft_tokens": r.accepted_draft_tokens,
                "spec_steps": r.spec_steps,
            }
            for r in fleet.results
        ],
        "rejected": [
            {"index": index, "message": message}
            for index, message in fleet.rejected
        ],
        "stats": {
            **dataclasses.asdict(stats),
            "prefix_hit_rate": stats.prefix_hit_rate,
            "wasted_draft_tokens": stats.wasted_draft_tokens,
            "draft_acceptance_rate": stats.draft_acceptance_rate,
            "accepted_per_verify_step": stats.accepted_per_verify_step,
            "queue_wait_p50_steps": wait["p50"],
            "queue_wait_p95_steps": wait["p95"],
            "gemm_calls": telemetry.gemm_calls,
            "total_macs": telemetry.total_macs,
        },
        "prefix_cache": None if cache is None else {
            **dataclasses.asdict(cache), "token_hit_rate": cache.token_hit_rate
        },
        "speculation": None if args.draft == "none" else {
            "draft": args.draft, "spec_k": args.spec_k
        },
        "workers": [
            {
                "rank": worker.rank,
                "assigned": list(worker.assigned),
                "requests": len(worker.results),
                "new_tokens": worker.new_tokens,
                "tokens_per_s": worker.tokens_per_s,
                "occupancy": worker.occupancy,
                "queue_wait": worker.queue_wait(),
                "elapsed_s": worker.elapsed_s,
            }
            for worker in fleet.workers
        ],
        "plan_rows": plan_rows,
        "codesign": codesign,
    }


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    """One :class:`~repro.serve.Replica` in process, or a fleet of them."""
    import tempfile

    from repro.llm.transformer import TransformerConfig, init_weights
    from repro.model import parse_policy, quantize_model, save_model
    from repro.serve import (
        FleetReport,
        Replica,
        Router,
        ServeConfig,
        TraceSpec,
        synthesize,
    )

    config = TransformerConfig(
        vocab=args.vocab,
        d_model=args.d_model,
        n_heads=args.n_heads,
        n_layers=args.n_layers,
        d_ffn=args.d_ffn,
        max_seq=args.max_seq,
    )
    weights = init_weights(config, seed=args.weight_seed)
    qmodel = quantize_model(
        weights, parse_policy(args.policy), config=config, compute_reports=False
    )
    spec = TraceSpec(
        requests=args.requests,
        seed=args.seed,
        prompt_len=_parse_range(args.prompt_len, "--prompt-len"),
        max_new=_parse_range(args.max_new, "--max-new"),
        mean_interarrival=args.interarrival,
        top_k=args.top_k,
        temperature=args.temperature,
        eos_token=args.eos_token,
        shared_prefix_len=args.shared_prefix,
        shared_fraction=args.shared_fraction if args.shared_prefix else 0.0,
    )
    trace = synthesize(spec, config.vocab, config.max_seq)
    if args.codesign and not args.json:
        raise ConfigError(
            "--codesign stamps the workload capture into the --json "
            "record; pass --json OUT as well"
        )
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    draft = None if args.draft == "none" else args.draft
    if args.draft.startswith("policy:"):
        draft = quantize_model(weights, parse_policy(args.draft[len("policy:"):]),
                               config=config, compute_reports=False)
    elif draft not in (None, "bigram"):
        raise ConfigError(f"--draft must be none, bigram or policy:<spec>, "
                          f"got {args.draft!r}")
    serve = ServeConfig(
        backend=args.backend,
        max_batch=args.max_batch,
        capacity=args.capacity,
        prefill_chunk=args.prefill_chunk,
        prefix_cache_bytes=args.prefix_cache_mb << 20,
        draft=draft,
        spec_k=args.spec_k,
    )
    if args.workers == 1:
        worker = Replica(qmodel, serve).serve(trace)
        fleet = FleetReport((worker,), worker.results, worker.elapsed_s)
    else:
        # Every worker loads the model from one checkpoint directory,
        # the many-reader path a real deployment uses.
        with tempfile.TemporaryDirectory(prefix="pacq-serve-shard-") as tmp:
            save_model(tmp, qmodel)
            with Router(tmp, args.workers, serve) as router:
                fleet = router.serve(trace)
    _print_serve_sim(args, fleet)
    if args.json:
        record = _serve_sim_record(args, spec, fleet)
        pathlib.Path(args.json).write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json}")
    return 0


def _cmd_codesign(args: argparse.Namespace) -> int:
    """Replay captured workloads across an architecture grid, emit artifacts.

    One harness job per (capture file, architecture point); the jobs
    run through the same cache/parallelism machinery as ``sweep`` (a
    content hash of each capture rides in the job parameters, so a
    re-captured file misses the cache).  Artifacts: the merged
    ``--csv`` and the regenerated marker-delimited section of
    ``--out``; ``--check`` turns staleness of either into exit 1.
    """
    from repro.codesign import (
        load_capture,
        render_codesign_csv,
        render_codesign_section,
        splice_section,
    )

    grid = _parse_grid(args.grid or [])
    base = _parse_set(args.set or [])
    reserved = {"capture", "digest", "policies"} & (set(grid) | set(base))
    if reserved:
        raise ConfigError(
            f"parameter(s) {', '.join(sorted(reserved))} come from the "
            "capture files; sweep only architecture axes "
            "(num_sms, dram_beats, adder_tree_dup, dp_width)"
        )

    jobs = []
    for path_text in args.captures:
        path = pathlib.Path(path_text)
        load_capture(path)  # fail fast on schema / missing capture block
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        axes = sorted(grid)
        for combo in itertools.product(*(grid[axis] for axis in axes)):
            params = dict(base)
            params.update(zip(axes, combo))
            params["capture"] = str(path)
            params["digest"] = digest
            jobs.append(Job.make("codesign", params))
    cache = _cache_from_args(args, default_on=True)
    outcomes = run_jobs(jobs, workers=args.jobs, cache=cache, force=args.force)
    records = _outcomes_to_records(outcomes)

    rows = [
        [o.job.label, len(o.result.rows),
         "hit" if o.cached else "run", f"{o.elapsed_s:.2f}s"]
        for o in outcomes
    ]
    print(render_table(
        f"codesign: {len(args.captures)} capture(s) x "
        f"{max(len(jobs) // len(args.captures), 1)} arch point(s)",
        ["job", "rows", "cache", "elapsed"], rows,
    ))
    print()

    out_path = pathlib.Path(args.out)
    if not out_path.exists():
        raise ConfigError(
            f"{out_path} does not exist — the generated section splices "
            "into the committed scaffold between the codesign markers"
        )
    spliced = splice_section(out_path.read_text(), render_codesign_section(records))
    current = [
        sync_artifact(args.csv, render_codesign_csv(records), args.check),
        sync_artifact(out_path, spliced, args.check),
    ]
    if args.check:
        if not all(current):
            return 1
        print("check: committed codesign artifacts are current")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    experiments = registered_experiments()
    if args.format == "json":
        print(json.dumps(
            [
                {
                    "name": e.name,
                    "artifact": e.artifact,
                    "headline": e.headline,
                    "extension": e.extension,
                    "tolerance": e.tolerance,
                    "params": {k: repr(v) for k, v in e.params().items()},
                }
                for e in experiments
            ],
            indent=1,
        ))
        return 0
    rows = [
        [
            e.name,
            "extension" if e.extension else "paper",
            e.artifact,
            ",".join(sorted(e.params())) or "-",
            f"{e.tolerance:.0%}",
        ]
        for e in experiments
    ]
    print(render_table("experiments: registered runners",
                       ["name", "kind", "artifact", "sweepable params",
                        "tolerance"], rows))
    print()
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Lazy import: the analyzer is pure stdlib, but keep the default
    # CLI paths free of it (and vice versa — lint works even when the
    # numeric stack would not import).
    from repro.analysis import (
        find_config,
        lint_paths,
        list_rules,
        load_config,
        render_findings,
    )

    if args.list_rules:
        rows = [
            [rule.id, rule.severity, rule.title] for rule in list_rules()
        ]
        print(render_table("detlint: registered rules",
                           ["id", "severity", "title"], rows))
        print()
        return 0

    config_path = args.config or find_config(pathlib.Path.cwd())
    if config_path is None:
        raise ConfigError(
            "no detlint.toml found here or in any parent directory "
            "(pass --config explicitly)"
        )
    config = load_config(config_path)
    rules = None
    if args.rules:
        rules = [rule_id.strip() for rule_id in args.rules.split(",")
                 if rule_id.strip()]
    report = lint_paths(
        config,
        paths=args.paths or None,
        rules=rules,
        strict=args.strict,
        changed_only=args.changed_only,
    )

    if args.format == "json":
        output = report.to_json()
    else:
        output = render_findings(report, verbose=args.verbose) + "\n"
    if args.out:
        pathlib.Path(args.out).write_text(output)
        print(f"wrote {args.out}")
    else:
        print(output, end="")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------


def _add_exec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default: 1, serial)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache directory (default: "
                        "$PACQ_CACHE_DIR or ~/.cache/pacq-repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the result cache entirely")
    parser.add_argument("--force", action="store_true",
                        help="execute even when a cached result exists")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pacq-repro",
        description="Reproduce, sweep and report the tables/figures of the "
        "PacQ paper (DAC 2025).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment, 'table1' or 'all'")
    run_p.add_argument("experiment",
                       choices=["all", "table1"] + sorted(EXPERIMENT_REGISTRY))
    run_p.add_argument("--backend", choices=backend_names(), default=None,
                       help="engine backend (where the experiment takes one)")
    run_p.add_argument("--set", action="append", metavar="K=V",
                       help="override a runner parameter (repeatable)")
    run_p.add_argument("--format", choices=["text", "json", "csv"],
                       default="text")
    _add_exec_options(run_p)
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser(
        "sweep",
        help="expand an experiments x parameter grid into cached jobs",
    )
    sweep_p.add_argument("--experiments", default=None, metavar="A,B|all",
                         help="experiments to sweep (default: with --grid, "
                         "the experiments the grid axes apply to; otherwise "
                         "the stock backend x Table-II-spec sweep)")
    sweep_p.add_argument("--grid", action="append", metavar="K=V1,V2",
                         help="sweep axis (repeatable; 'backend=all' expands "
                         "to every backend)")
    sweep_p.add_argument("--set", action="append", metavar="K=V",
                         help="fixed parameter for every job (repeatable)")
    sweep_p.add_argument("--format", choices=["text", "json", "csv"],
                         default="text")
    sweep_p.add_argument("--out", default=None, metavar="DIR",
                         help="write per-run JSON + merged CSV artifacts here")
    _add_exec_options(sweep_p)
    sweep_p.set_defaults(func=_cmd_sweep)

    report_p = sub.add_parser(
        "report",
        help="run everything, regenerate EXPERIMENTS.md, emit artifacts",
    )
    report_p.add_argument("--out", default="EXPERIMENTS.md", metavar="FILE")
    report_p.add_argument("--artifacts", default=None, metavar="DIR",
                          help="write per-run JSON + merged CSV here")
    report_p.add_argument("--check", action="store_true",
                          help="exit non-zero on out-of-tolerance deviations "
                          "or a stale committed report")
    _add_exec_options(report_p)
    report_p.set_defaults(func=_cmd_report)

    list_p = sub.add_parser("list", help="list registered experiments")
    list_p.add_argument("--format", choices=["text", "json"], default="text")
    list_p.set_defaults(func=_cmd_list)

    quant_p = sub.add_parser(
        "quantize",
        help="quantize the toy decoder under a policy into a checkpoint dir",
    )
    quant_p.add_argument("--out", required=True, metavar="DIR",
                         help="checkpoint directory to write")
    quant_p.add_argument("--policy", default="rtn4@g[32,4]", metavar="POLICY",
                         help="policy text, e.g. 'rtn4@g[32,4]' or "
                         "'layer*.w_gate=int2@g[32,4];*=int4@g128' "
                         "(default: uniform rtn4@g[32,4])")
    quant_p.add_argument("--vocab", type=int, default=256)
    quant_p.add_argument("--d-model", type=int, default=128)
    quant_p.add_argument("--n-heads", type=int, default=4)
    quant_p.add_argument("--n-layers", type=int, default=2)
    quant_p.add_argument("--d-ffn", type=int, default=256)
    quant_p.add_argument("--max-seq", type=int, default=128)
    quant_p.add_argument("--seed", type=int, default=0,
                         help="weight-init seed (default: 0)")
    quant_p.set_defaults(func=_cmd_quantize)

    gen_p = sub.add_parser(
        "generate",
        help="KV-cached generation from a quantized model checkpoint",
    )
    gen_p.add_argument("--model", required=True, metavar="DIR",
                       help="checkpoint directory written by 'quantize'")
    gen_p.add_argument("--prompt", default="0", metavar="T0,T1,...",
                       help="comma-separated prompt token ids (default: 0)")
    gen_p.add_argument("--max-new", type=int, default=16, metavar="N",
                       help="tokens to generate (default: 16)")
    gen_p.add_argument("--top-k", type=int, default=None, metavar="K",
                       help="top-k sampling (default: greedy)")
    gen_p.add_argument("--temperature", type=float, default=1.0)
    gen_p.add_argument("--seed", type=int, default=0,
                       help="sampling seed (default: 0)")
    gen_p.add_argument("--backend", choices=backend_names(),
                       default=DEFAULT_BACKEND,
                       help="engine backend for the quantized linears "
                       "(default: %(default)s)")
    gen_p.add_argument("--telemetry", action="store_true",
                       help="print per-layer GEMM telemetry after generating")
    gen_p.set_defaults(func=_cmd_generate)

    serve_p = sub.add_parser(
        "serve-sim",
        help="replay a synthetic request trace through the continuous-"
        "batching scheduler",
    )
    serve_p.add_argument("--requests", type=int, default=16, metavar="N",
                         help="trace length (default: 16)")
    serve_p.add_argument("--seed", type=int, default=0,
                         help="trace + sampling seed (default: 0)")
    serve_p.add_argument("--max-batch", type=int, default=8, metavar="B",
                         help="admission ceiling = KV-cache slots (default: 8)")
    serve_p.add_argument("--capacity", type=int, default=None, metavar="TOK",
                         help="initial per-slot cache capacity (default: "
                         "64, at most max-seq; doubles on demand up to "
                         "max-seq)")
    serve_p.add_argument("--prompt-len", default="4,24", metavar="LO,HI",
                         help="prompt length range (default: 4,24)")
    serve_p.add_argument("--max-new", default="4,16", metavar="LO,HI",
                         help="generation budget range (default: 4,16)")
    serve_p.add_argument("--interarrival", type=float, default=2.0,
                         metavar="STEPS",
                         help="mean arrival gap in scheduler steps "
                         "(default: 2.0; 0 = all at once)")
    serve_p.add_argument("--top-k", type=int, default=None, metavar="K",
                         help="top-k sampling (default: greedy)")
    serve_p.add_argument("--temperature", type=float, default=1.0)
    serve_p.add_argument("--eos-token", type=int, default=None, metavar="T",
                         help="retire a request early when it samples this "
                         "token")
    serve_p.add_argument("--shared-prefix", type=int, default=0,
                         metavar="TOK",
                         help="length of a shared prompt preamble in the "
                         "trace (default: 0 = no sharing)")
    serve_p.add_argument("--shared-fraction", type=float, default=0.8,
                         metavar="FRAC",
                         help="fraction of requests opening with the shared "
                         "preamble (default: 0.8; needs --shared-prefix)")
    serve_p.add_argument("--prefix-cache-mb", type=int, default=0,
                         metavar="MIB",
                         help="prompt-prefix KV cache budget in MiB "
                         "(default: 0 = cache off)")
    serve_p.add_argument("--prefill-chunk", type=int, default=None,
                         metavar="TOK",
                         help="max prompt tokens ingested per scheduler step "
                         "(default: unbounded)")
    serve_p.add_argument("--policy", default="rtn4@g[32,4]", metavar="POLICY",
                         help="quantization policy (default: rtn4@g[32,4])")
    serve_p.add_argument("--draft", default="none",
                         metavar="none|bigram|policy:<spec>",
                         help="speculative draft model: 'bigram' distills a "
                         "greedy bigram table from the target; "
                         "'policy:<spec>' re-quantizes the same weights "
                         "under <spec> (e.g. policy:*=int2@g[32,4]) and "
                         "drafts with that low-bit checkpoint "
                         "(default: none = no speculation)")
    serve_p.add_argument("--spec-k", type=int, default=4, metavar="K",
                         help="draft window: tokens proposed per verify "
                         "step (default: 4; needs --draft)")
    serve_p.add_argument("--backend", choices=backend_names(),
                         default=DEFAULT_BACKEND,
                         help="engine backend for the batched GEMMs "
                         "(default: %(default)s)")
    serve_p.add_argument("--workers", type=int, default=1, metavar="N",
                         help="worker processes (default: 1 = in-process "
                         "serving); N > 1 routes whole requests to N "
                         "data-parallel full-model workers reading one "
                         "shared checkpoint, each replaying its share "
                         "arrival-paced under the same draft and cache")
    serve_p.add_argument("--vocab", type=int, default=256)
    serve_p.add_argument("--d-model", type=int, default=128)
    serve_p.add_argument("--n-heads", type=int, default=4)
    serve_p.add_argument("--n-layers", type=int, default=2)
    serve_p.add_argument("--d-ffn", type=int, default=256)
    serve_p.add_argument("--max-seq", type=int, default=128)
    serve_p.add_argument("--weight-seed", type=int, default=0,
                         help="weight-init seed (default: 0)")
    serve_p.add_argument("--codesign", default=None, metavar="LABEL",
                         help="stamp a replayable workload capture "
                         "(phase-tagged GEMM histograms) into the --json "
                         "record under this policy label, for "
                         "'python -m repro codesign'")
    serve_p.add_argument("--json", default=None, metavar="OUT",
                         help="write a machine-readable replay record "
                         "(schema v6: the same keys for any --workers)")
    serve_p.set_defaults(func=_cmd_serve_sim)

    codesign_p = sub.add_parser(
        "codesign",
        help="replay captured serving workloads through the SIMT/energy "
        "models across an architecture grid",
    )
    codesign_p.add_argument("captures", nargs="+", metavar="CAPTURE",
                            help="capture files: serve_sim records with a "
                            "codesign block (from serve-sim --codesign "
                            "--json; v5 and v6) or bare codesign_capture/v1 "
                            "JSON")
    codesign_p.add_argument("--grid", action="append", metavar="K=V1,V2",
                            help="architecture sweep axis (repeatable): "
                            "num_sms, dram_beats, adder_tree_dup, dp_width")
    codesign_p.add_argument("--set", action="append", metavar="K=V",
                            help="fixed architecture parameter for every "
                            "replay (repeatable)")
    codesign_p.add_argument("--csv", default="docs/data/codesign.csv",
                            metavar="FILE",
                            help="merged replay CSV to write "
                            "(default: docs/data/codesign.csv)")
    codesign_p.add_argument("--out", default="docs/codesign.md",
                            metavar="FILE",
                            help="report whose generated section to splice "
                            "(default: docs/codesign.md)")
    codesign_p.add_argument("--check", action="store_true",
                            help="exit non-zero when the committed CSV or "
                            "report section is stale")
    _add_exec_options(codesign_p)
    codesign_p.set_defaults(func=_cmd_codesign)

    lint_p = sub.add_parser(
        "lint",
        help="check the tree against the determinism contracts (detlint)",
    )
    lint_p.add_argument("paths", nargs="*", metavar="PATH",
                        help="files/directories to lint (default: the "
                        "include set from detlint.toml)")
    lint_p.add_argument("--config", default=None, metavar="TOML",
                        help="contracts file (default: detlint.toml found "
                        "in cwd or a parent)")
    lint_p.add_argument("--format", choices=["text", "json"], default="text")
    lint_p.add_argument("--rules", default=None, metavar="ID[,ID...]",
                        help="restrict to these rule ids (e.g. D001,D004)")
    lint_p.add_argument("--changed-only", action="store_true",
                        help="lint only files modified/untracked per "
                        "git status (fast pre-commit runs)")
    lint_p.add_argument("--strict", action="store_true",
                        help="also report stale suppressions (D010)")
    lint_p.add_argument("--verbose", action="store_true",
                        help="append each rule's autofix hint (text format)")
    lint_p.add_argument("--out", default=None, metavar="FILE",
                        help="write the report to FILE instead of stdout "
                        "(CI artifact)")
    lint_p.add_argument("--list-rules", action="store_true",
                        help="print the rule registry and exit")
    lint_p.set_defaults(func=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI main; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, QuantizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a consumer that closed early (| head).
        # Point stdout at /dev/null so the interpreter-shutdown flush
        # of the block-buffered stream cannot re-raise and exit 120.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
