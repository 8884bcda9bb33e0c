"""Extension experiments beyond the paper's figures.

These runners cover analyses the paper motivates in prose but does not
plot, using the same infrastructure as :mod:`repro.core.experiments`:

* ``batch_sweep`` — Section I's argument quantified: speedup and EDP
  reduction of PacQ vs the standard flow across batch sizes on the
  Llama2-7B FFN facet, showing the compute-bound regime is where PacQ
  pays.
* ``roofline`` — the memory/compute-bound crossover for each Llama2-7B
  layer at several batch sizes.
* ``area`` — Fig. 9's reuse story restated in silicon area: the
  gate-equivalent overhead each PacQ unit adds over its baseline.
"""

from __future__ import annotations

from repro.core.arch import (
    pacq,
    standard_dequant,
    volta_full_machine,
    volta_w16a16,
)
from repro.core.experiments import (
    EXPERIMENT_REGISTRY,
    ExperimentResult,
    ResultRow,
    register_experiment,
)
from repro.core.metrics import edp_reduction, evaluate, speedup
from repro.core.roofline import analyze, crossover_batch
from repro.core.workloads import LLAMA2_7B
from repro.energy.area import area_overhead_vs_baseline
from repro.simt.memoryhier import GemmShape


@register_experiment(
    name="batch_sweep",
    artifact="Section I (extension)",
    headline="PacQ speedup/EDP across batch sizes on the Llama2-7B FFN facet",
    extension=True,
)
def batch_sweep_experiment(
    batches: tuple[int, ...] = (16, 32, 64, 128, 256),
    n: int = 4096,
    k: int = 4096,
    weight_bits: int = 4,
) -> ExperimentResult:
    """PacQ vs standard flow across batch sizes (multi-batch serving)."""
    rows = []
    for batch in batches:
        shape = GemmShape(batch, n, k)
        std = evaluate(standard_dequant(weight_bits), shape)
        ours = evaluate(pacq(weight_bits), shape)
        rows.append(
            ResultRow(f"batch {batch} speedup", speedup(std, ours), None, "x")
        )
        rows.append(
            ResultRow(
                f"batch {batch} EDP reduction",
                edp_reduction(std, ours),
                None,
                "fraction",
            )
        )
    return ExperimentResult(
        "batch_sweep",
        f"PacQ INT{weight_bits} vs standard dequant across batches (n={n}, k={k})",
        tuple(rows),
    )


@register_experiment(
    name="roofline",
    artifact="Section I (extension)",
    headline="memory/compute-bound crossover of each Llama2-7B layer",
    extension=True,
)
def roofline_experiment(batches: tuple[int, ...] = (1, 16, 256)) -> ExperimentResult:
    """Memory- vs compute-bound placement of Llama2-7B layers."""
    rows = []
    arch = pacq(4)
    for batch in batches:
        for name, shape in LLAMA2_7B.layer_gemms(batch):
            point = analyze(arch, shape)
            rows.append(
                ResultRow(
                    f"batch {batch} {name} ({'compute' if point.compute_bound else 'memory'}-bound)",
                    point.arithmetic_intensity,
                    None,
                    "MACs/B",
                )
            )
    ffn_cross = crossover_batch(arch, 4096, 4096)
    if ffn_cross is not None:
        rows.append(
            ResultRow("FFN compute-bound crossover batch", float(ffn_cross), None, "")
        )
    return ExperimentResult(
        "roofline", "Arithmetic intensity and boundedness of Llama2-7B layers", tuple(rows)
    )


@register_experiment(
    name="area",
    artifact="Fig. 9 (extension)",
    headline="gate-equivalent area overhead of each PacQ unit",
    extension=True,
)
def area_experiment() -> ExperimentResult:
    """Gate-equivalent area overhead of PacQ's units over baselines."""
    rows = [
        ResultRow(f"{unit} area overhead", overhead, None, "fraction")
        for unit, overhead in area_overhead_vs_baseline().items()
    ]
    return ExperimentResult(
        "area", "Silicon-area overhead of the parallel units (GE model)", tuple(rows)
    )


@register_experiment(
    name="motivation",
    artifact="Fig. 1 / Section I (extension)",
    headline="where weight-only quantization pays: memory- vs compute-bound",
    extension=True,
)
def motivation_experiment(
    small_batch: int = 16, large_batch: int = 256
) -> ExperimentResult:
    """The Fig. 1 / Section I story, measured on a 14-SM machine.

    In the memory-bound small-batch regime, weight-only quantization
    alone (standard dequant flow) already speeds up inference — the
    packed weights move 4x less DRAM traffic.  In the compute-bound
    multi-batch regime that advantage vanishes (the tensor cores still
    run FP16 GEMMs) and only PacQ's hyper-asymmetric compute recovers
    a speedup.
    """
    machine = volta_full_machine()
    rows = []
    for batch, regime in ((small_batch, "memory-bound"), (large_batch, "compute-bound")):
        shape = GemmShape(batch, 4096, 4096)
        fp16 = evaluate(volta_w16a16(machine), shape)
        std = evaluate(standard_dequant(4, machine), shape)
        ours = evaluate(pacq(4, machine=machine), shape)
        rows.append(
            ResultRow(
                f"batch {batch} ({regime}): dequant INT4 vs W16A16",
                speedup(fp16, std),
                None,
                "x",
            )
        )
        rows.append(
            ResultRow(
                f"batch {batch} ({regime}): PacQ INT4 vs W16A16",
                speedup(fp16, ours),
                None,
                "x",
            )
        )
    return ExperimentResult(
        "motivation",
        "Section I motivation: where weight-only quantization pays (14-SM machine)",
        tuple(rows),
    )


@register_experiment(
    name="spec_decode",
    artifact="serving layer (extension)",
    headline="speculative decoding: acceptance and step reduction by draft and k",
    extension=True,
)
def spec_decode_experiment(
    drafts: tuple[str, ...] = ("bigram", "int2"),
    ks: tuple[int, ...] = (2, 4),
    requests: int = 6,
    vocab: int = 64,
    d_model: int = 32,
    max_new: int = 24,
) -> ExperimentResult:
    """Draft x window sweep of bit-exact speculative decoding.

    Replays one greedy trace through the continuous-batching scheduler
    without speculation, then once per (draft, k) with it; every row is
    a deterministic count (acceptance rate, draft tokens accepted per
    verify step, decode-step reduction) plus a token-identity check
    (1.0 = every request's stream matches the non-speculative replay,
    which the verify scheme guarantees by construction).
    """
    from repro.errors import RequestError
    from repro.llm.transformer import TransformerConfig, init_weights
    from repro.model import parse_policy, quantize_model
    from repro.serve import Replica, ServeConfig, TraceSpec, synthesize

    # sweep grids pass bare values through; normalize the axes
    if isinstance(drafts, str):
        drafts = (drafts,)
    if isinstance(ks, int):
        ks = (ks,)

    config = TransformerConfig(
        vocab=vocab, d_model=d_model, n_heads=4, n_layers=2,
        d_ffn=2 * d_model, max_seq=64,
    )
    weights = init_weights(config, seed=0)
    qmodel = quantize_model(
        weights, parse_policy("rtn4@g[32,4]"), config=config,
        compute_reports=False,
    )
    spec = TraceSpec(
        requests=requests, seed=0, prompt_len=(4, 12),
        max_new=(4, max_new), mean_interarrival=1.0, eos_token=3,
    )
    trace = synthesize(spec, config.vocab, config.max_seq)

    def run(draft=None, k=0):
        serve = ServeConfig(max_batch=requests, draft=draft, spec_k=k)
        report = Replica(qmodel, serve).serve(trace)
        if report.rejected:
            index, message = report.rejected[0]
            raise RequestError(f"trace request {index}: {message}")
        return [tuple(r.new_tokens) for r in report.results], report.stats

    def make_draft(name):
        if name == "bigram":
            return name
        return quantize_model(
            weights, parse_policy(f"*={name}@g[32,4]"), config=config,
            compute_reports=False,
        )

    base_streams, base_stats = run()
    rows = []
    for name in drafts:
        draft = make_draft(name)
        for k in ks:
            streams, stats = run(draft, k)
            identical = float(streams == base_streams)
            rows.append(
                ResultRow(
                    f"{name} k={k} token identity", identical, 1.0, "exact"
                )
            )
            rows.append(
                ResultRow(
                    f"{name} k={k} acceptance rate",
                    stats.draft_acceptance_rate,
                    None,
                    "fraction",
                )
            )
            rows.append(
                ResultRow(
                    f"{name} k={k} accepted per verify step",
                    stats.accepted_per_verify_step,
                    None,
                    "tok",
                )
            )
            rows.append(
                ResultRow(
                    f"{name} k={k} decode-step reduction",
                    base_stats.decode_steps / max(stats.decode_steps, 1),
                    None,
                    "x",
                )
            )
    return ExperimentResult(
        "spec_decode",
        "Bit-exact speculative decoding: draft x window sweep on the "
        "continuous-batching scheduler (greedy trace, counts only)",
        tuple(rows),
    )


# The co-design replay experiment lives with its capture/replay code;
# importing it here registers it for the CLI and the pool workers alike.
from repro.codesign import experiment as _codesign  # noqa: E402,F401

#: Plain name -> callable view of the extension experiments (merged
#: into the CLI; metadata lives in ``EXPERIMENT_REGISTRY``).
EXTENSION_EXPERIMENTS = {
    name: exp.runner
    for name, exp in sorted(EXPERIMENT_REGISTRY.items())
    if exp.extension
}
