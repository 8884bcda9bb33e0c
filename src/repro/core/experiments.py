"""One runner per paper table/figure (the reproduction registry).

Each ``figNN()`` / ``tableN()`` function regenerates the corresponding
result of the paper's evaluation section and returns a structured
:class:`ExperimentResult` whose rows can be printed
(:func:`repro.core.report.render_table`), benchmarked or asserted in
tests.  ``paper`` fields carry the value the paper reports (where it
prints one) so EXPERIMENTS.md's paper-vs-measured tables come straight
from this module.

Runners are not bare callables: each registers through
:func:`register_experiment` as an :class:`Experiment` entry carrying
metadata — the paper artifact it reproduces, its headline metric, and
the per-row deviation tolerance ``pacq-repro report --check`` enforces.
The orchestration layer (:mod:`repro.harness`) discovers experiments,
their sweepable keyword parameters, and their tolerances exclusively
through this registry; ``ALL_EXPERIMENTS`` remains as the plain
name-to-callable view for backward compatibility.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.arch import (
    packed_k_baseline,
    pacq,
    standard_dequant,
    table1_inventory,
)
from repro.core.metrics import evaluate
from repro.core.workloads import fig10_workload
from repro.energy.breakdown import average_reuse, fig9_breakdowns
from repro.energy.tech import DEFAULT_TECH
from repro.energy.units import dp_unit, fp16_mul_baseline, fp_int16_mul_parallel
from repro.engine import DEFAULT_BACKEND
from repro.errors import ConfigError
from repro.llm.bigram import make_bigram_lm
from repro.llm.corpus import sample_tokens
from repro.llm.perplexity import evaluate_perplexity
from repro.mixgemm.binseg import mixgemm_point
from repro.multiplier.dp import (
    DpConfig,
    TileWork,
    cycles_for,
    fig8_dp4_workload,
    packed_outputs,
)
from repro.quant.groups import TABLE2_SPECS, spec_from_label
from repro.quant.rtn import quantize_rtn
from repro.simt.flows import FlowConfig, FlowKind
from repro.simt.memoryhier import GemmShape
from repro.simt.octet import simulate_octet
from repro.simt.tensorcore import TensorCoreConfig, octet_cycles
from repro.simt.warp import OctetWorkload


@dataclass(frozen=True)
class ResultRow:
    """One row of a reproduced table/figure."""

    label: str
    measured: float
    paper: float | None = None
    unit: str = ""

    @property
    def deviation(self) -> float | None:
        if self.paper in (None, 0):
            return None
        return self.measured / self.paper - 1.0

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form (harness cache and artifact files)."""
        return {
            "label": self.label,
            "measured": self.measured,
            "paper": self.paper,
            "unit": self.unit,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResultRow":
        return cls(
            label=str(data["label"]),
            measured=float(data["measured"]),
            paper=None if data.get("paper") is None else float(data["paper"]),
            unit=str(data.get("unit", "")),
        )


@dataclass(frozen=True)
class ExperimentResult:
    """A reproduced experiment: id, description, rows."""

    experiment: str
    description: str
    rows: tuple[ResultRow, ...] = field(default_factory=tuple)

    def row(self, label: str) -> ResultRow:
        for row in self.rows:
            if row.label == label:
                return row
        available = ", ".join(repr(r.label) for r in self.rows) or "<none>"
        raise KeyError(
            f"{self.experiment}: no row {label!r} (available: {available})"
        )

    def headers(self) -> list[str]:
        return ["configuration", "measured", "paper", "unit"]

    def table_rows(self) -> list[list[object]]:
        return [
            [r.label, r.measured, "-" if r.paper is None else r.paper, r.unit]
            for r in self.rows
        ]

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form, inverse of :meth:`from_dict`."""
        return {
            "experiment": self.experiment,
            "description": self.description,
            "rows": [r.to_dict() for r in self.rows],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        return cls(
            experiment=str(data["experiment"]),
            description=str(data["description"]),
            rows=tuple(ResultRow.from_dict(r) for r in data.get("rows", ())),
        )


# ---------------------------------------------------------------------------
# Experiment registry — runners with metadata, the harness's substrate.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Experiment:
    """A registered experiment runner plus its reproduction metadata.

    Attributes:
        name: registry key (CLI experiment name).
        runner: the ``figNN()``-style callable returning an
            :class:`ExperimentResult`; keyword parameters are the
            experiment's sweepable knobs.
        artifact: the paper artifact reproduced (``"Fig. 7(a)"``).
        headline: one-line headline metric of the reproduction.
        extension: True for analyses beyond the paper's figures.
        tolerance: default ``|measured/paper - 1|`` bound per row for
            ``report --check``.
        row_tolerances: per-row-label overrides of ``tolerance``.
    """

    name: str
    runner: Callable[..., ExperimentResult]
    artifact: str
    headline: str
    extension: bool = False
    tolerance: float = 0.25
    row_tolerances: Mapping[str, float] = field(default_factory=dict)

    def params(self) -> dict[str, object]:
        """Sweepable keyword parameters mapped to their defaults."""
        out: dict[str, object] = {}
        for pname, param in inspect.signature(self.runner).parameters.items():
            if param.kind in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            ):
                out[pname] = param.default
        return out

    def accepts(self, param: str) -> bool:
        """Whether the runner takes keyword parameter ``param``."""
        return param in self.params()

    def run(self, **params: Any) -> ExperimentResult:
        """Invoke the runner, rejecting unknown parameters up front."""
        unknown = sorted(set(params) - set(self.params()))
        if unknown:
            raise ConfigError(
                f"experiment {self.name!r} does not accept parameter(s) "
                f"{', '.join(unknown)}; it accepts: "
                f"{', '.join(sorted(self.params())) or '<none>'}"
            )
        return self.runner(**params)

    def row_tolerance(self, label: str) -> float:
        """Deviation tolerance for one row (per-label override wins)."""
        return self.row_tolerances.get(label, self.tolerance)


#: name -> :class:`Experiment`; single source of truth for the CLI and
#: the harness.  Populated by :func:`register_experiment` at import of
#: this module and :mod:`repro.core.extensions`.
EXPERIMENT_REGISTRY: dict[str, Experiment] = {}


def register_experiment(
    *,
    artifact: str,
    headline: str,
    extension: bool = False,
    tolerance: float = 0.25,
    row_tolerances: Mapping[str, float] | None = None,
    name: str | None = None,
):
    """Decorator: register a runner in :data:`EXPERIMENT_REGISTRY`."""

    def decorate(fn: Callable[..., ExperimentResult]):
        exp = Experiment(
            name=name or fn.__name__,
            runner=fn,
            artifact=artifact,
            headline=headline,
            extension=extension,
            tolerance=tolerance,
            row_tolerances=dict(row_tolerances or {}),
        )
        if exp.name in EXPERIMENT_REGISTRY:
            raise ConfigError(f"experiment {exp.name!r} already registered")
        EXPERIMENT_REGISTRY[exp.name] = exp
        return fn

    return decorate


def get_experiment(name: str) -> Experiment:
    """Look up a registered experiment; the error lists what exists."""
    try:
        return EXPERIMENT_REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"no experiment {name!r} (registered: "
            f"{', '.join(sorted(EXPERIMENT_REGISTRY))})"
        ) from None


def unregister_experiment(name: str) -> None:
    """Remove a registered experiment (tests and plugins)."""
    EXPERIMENT_REGISTRY.pop(name, None)


def registered_experiments(include_extensions: bool = True) -> list[Experiment]:
    """All registered experiments, sorted by name."""
    return [
        exp
        for name, exp in sorted(EXPERIMENT_REGISTRY.items())
        if include_extensions or not exp.extension
    ]


# ---------------------------------------------------------------------------
# Table I — architecture configuration.
# ---------------------------------------------------------------------------


def table1() -> list[tuple[str, str]]:
    """Unit inventory of PacQ and the baselines (identity with Table I)."""
    return table1_inventory()


# ---------------------------------------------------------------------------
# Fig. 7 — packing/dataflow: RF traffic and speedup at m16n16k16.
# ---------------------------------------------------------------------------

_OCTET_M16 = OctetWorkload(8, 8, 16)  # one octet of the m16n16k16 warp op


def _octet_rf(flow: FlowConfig) -> int:
    return simulate_octet(flow, _OCTET_M16).rf_total


@register_experiment(
    artifact="Fig. 7(a)",
    headline="RF-traffic reduction vs k-dim packing (paper: -36.8% INT4, -54.3% INT2)",
    tolerance=0.10,
    row_tolerances={"INT4 RF reduction vs P(B4)k": 0.50},
)
def fig7a() -> ExperimentResult:
    """Reproduces Fig. 7(a): RF-access reduction of PacQ vs ``P(Bx)k``."""
    rows = []
    for bits, paper_reduction in ((4, 0.368), (2, 0.543)):
        packed_k = _octet_rf(FlowConfig(FlowKind.PACKED_K, bits))
        ours = _octet_rf(FlowConfig(FlowKind.PACQ, bits))
        rows.append(
            ResultRow(
                f"INT{bits} RF reduction vs P(B{16 // bits})k",
                1.0 - ours / packed_k,
                paper_reduction,
                "fraction",
            )
        )
        rows.append(
            ResultRow(f"INT{bits} normalized RF traffic", ours / packed_k, None, "x")
        )
    return ExperimentResult(
        "fig7a", "Register-file traffic, m16n16k16 (PacQ vs k-packing)", tuple(rows)
    )


def _octet_latency(flow: FlowConfig, dup: int = 2) -> int:
    trace = simulate_octet(flow, _OCTET_M16)
    return octet_cycles(flow, trace, core=TensorCoreConfig(adder_tree_dup=dup))


@register_experiment(
    artifact="Fig. 7(b)",
    headline="speedup vs k-dim packing at m16n16k16 (paper: 1.98x/1.99x)",
    tolerance=0.05,
)
def fig7b() -> ExperimentResult:
    """Reproduces Fig. 7(b): PacQ speedup vs ``P(Bx)k``, ~2x at dup-2."""
    rows = []
    for bits, paper_speedup in ((4, 1.98), (2, 1.99)):
        packed_k = _octet_latency(FlowConfig(FlowKind.PACKED_K, bits))
        ours = _octet_latency(FlowConfig(FlowKind.PACQ, bits))
        rows.append(
            ResultRow(f"INT{bits} speedup vs P(B{16 // bits})k", packed_k / ours, paper_speedup, "x")
        )
    return ExperimentResult("fig7b", "Speedup, m16n16k16 (PacQ vs k-packing)", tuple(rows))


# ---------------------------------------------------------------------------
# Table II — perplexity with group-shape modifications.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _table2_lm(vocab: int, d_model: int):
    return make_bigram_lm(vocab=vocab, d_model=d_model)


@lru_cache(maxsize=8)
def _table2_tokens(vocab: int, d_model: int, corpus_len: int):
    lm = _table2_lm(vocab, d_model)
    return sample_tokens(lm.language(), corpus_len)


@lru_cache(maxsize=64)
def _table2_qhead(vocab: int, d_model: int, label: str, bits: int):
    lm = _table2_lm(vocab, d_model)
    return quantize_rtn(lm.head, bits=bits, group=spec_from_label(label))


@lru_cache(maxsize=64)
def _table2_policy_head(vocab: int, d_model: int, policy_text: str):
    """Quantize the LM head under a model-level policy recipe.

    AWQ rules calibrate on the model's own activations (mean absolute
    embedding magnitude per input channel).
    """
    from repro.model.policy import parse_policy, quantize_model

    lm = _table2_lm(vocab, d_model)
    policy = parse_policy(policy_text)
    calibration = {
        "head": np.abs(lm.embedding.astype(np.float64)).mean(axis=0)
    }
    model = quantize_model(
        {"head": lm.head}, policy, calibration=calibration,
        compute_reports=False,
    )
    if "head" not in model.layers:
        raise ConfigError(
            f"policy {policy_text!r} keeps the LM head in FP16; nothing to "
            "measure beyond the fp16 row"
        )
    return model.layers["head"]


#: Perplexities Table II reports for Llama2-7B on WikiText-2.
_TABLE2_PAPER = {
    "fp16": 5.47,
    "g128": 5.73,
    "g[32,4]": 5.72,
    "g256": 5.75,
    "g[64,4]": 5.77,
}


@register_experiment(
    artifact="Table II",
    headline="iso-perplexity of k-only vs [k,n]-spanning RTN W4A16 groups",
    tolerance=0.25,
)
def table2(
    vocab: int = 256,
    d_model: int = 512,
    corpus_len: int = 2048,
    backend: str = DEFAULT_BACKEND,
    spec: str | None = None,
    policy: str | None = None,
) -> ExperimentResult:
    """Reproduces Table II: RTN W4A16 perplexity by quantization-group shape.

    Offline substitution: the synthetic self-calibrated bigram LM (see
    DESIGN.md).  The paper's claim under test is *iso-perplexity of
    k-only vs [k, n]-spanning groups*; absolute values differ from the
    Llama2-7B/WikiText-2 numbers by construction.

    ``backend`` selects the engine backend the quantized GEMMs execute
    through (CLI ``--backend``); ``batched`` and ``bitexact-scalar``
    produce bit-identical perplexities.  ``spec`` restricts the run to one
    group geometry by its paper label (``"g128"``, ``"g[32,4]"``, ...)
    — a harness sweep axis.  ``policy`` replaces the stock RTN-INT4
    rows with one row quantized under a model-level policy recipe
    (:func:`repro.model.parse_policy` grammar, e.g. ``"rtn2@g[32,4]"``
    or ``"awq4@g128"``) — the axis mixed-precision sweeps expand;
    ``spec`` is ignored when a policy is given.

    The LM, corpus and quantized heads are memoized per configuration,
    so a sweep over backends at a fixed spec re-executes through the
    engine's cached :class:`~repro.engine.GemmPlan` instead of
    re-planning per job.
    """
    lm = _table2_lm(vocab, d_model)
    tokens = _table2_tokens(vocab, d_model, corpus_len)
    rows = [
        ResultRow("fp16", evaluate_perplexity(lm, tokens), _TABLE2_PAPER["fp16"], "ppl")
    ]
    if policy is not None:
        qlayer = _table2_policy_head(vocab, d_model, policy)
        ppl = evaluate_perplexity(lm, tokens, quantized=qlayer, mode=backend)
        rows.append(ResultRow(policy, ppl, None, "ppl"))
        return ExperimentResult(
            "table2",
            "Perplexity under a model-level quantization policy "
            "(synthetic-LM proxy)",
            tuple(rows),
        )
    specs = TABLE2_SPECS if spec is None else (spec_from_label(spec),)
    for s in specs:
        qhead = _table2_qhead(vocab, d_model, s.label, 4)
        ppl = evaluate_perplexity(lm, tokens, quantized=qhead, mode=backend)
        rows.append(ResultRow(s.label, ppl, _TABLE2_PAPER.get(s.label), "ppl"))
    return ExperimentResult(
        "table2",
        "RTN W4A16 perplexity by quantization-group shape (synthetic-LM proxy; "
        "paper column: Llama2-7B on WikiText-2)",
        tuple(rows),
    )


# ---------------------------------------------------------------------------
# Fig. 8 — throughput/watt of the multiplier and DP-4.
# ---------------------------------------------------------------------------


@register_experiment(
    artifact="Fig. 8",
    headline="throughput/watt of the parallel FP-INT units (paper: 3.38x/6.75x MUL)",
    tolerance=0.10,
    row_tolerances={"FP-MUL INT2": 0.30},
)
def fig8() -> ExperimentResult:
    """Reproduces Fig. 8: throughput/watt of parallel FP-INT vs FP16 units."""
    tech = DEFAULT_TECH
    base_mul = fp16_mul_baseline(tech)
    rows = []
    for bits, paper_gain in ((4, 3.38), (2, 6.75)):
        ours = fp_int16_mul_parallel(bits, tech)
        lanes = 16 // bits
        gain = (lanes / ours.energy_per_op) / (1.0 / base_mul.energy_per_op)
        rows.append(ResultRow(f"FP-MUL INT{bits}", gain, paper_gain, "x T/W"))

    base_dp = dp_unit(width=4, pack=1, dup=1, tech=tech)
    work = fig8_dp4_workload()
    base_cycles = cycles_for(DpConfig(4, 1, 1), work).total
    base_tpw = (work.outputs / base_cycles) / base_dp.energy_per_op
    for bits, paper_cycles, paper_outputs in ((4, 19, 32), (2, 35, 64)):
        pack = 16 // bits
        ours_dp = dp_unit(width=4, pack=pack, dup=2, tech=tech)
        packed = packed_outputs(work, pack)
        ours_cycles = cycles_for(DpConfig(4, pack, 2), packed).total
        assert ours_cycles == paper_cycles and packed.outputs == paper_outputs
        tpw = (packed.outputs / ours_cycles) / ours_dp.energy_per_op
        rows.append(ResultRow(f"DP-4 INT{bits}", tpw / base_tpw, None, "x T/W"))
    return ExperimentResult(
        "fig8", "Throughput/watt vs baseline FP16 units (MUL scalar; DP-4 m2n4k4)", tuple(rows)
    )


# ---------------------------------------------------------------------------
# Fig. 9 — power breakdowns.
# ---------------------------------------------------------------------------


@register_experiment(
    artifact="Fig. 9",
    headline="reused-resource power fraction of each PacQ unit (paper avg ~69%)",
    tolerance=0.10,
)
def fig9() -> ExperimentResult:
    """Reproduces Fig. 9: reused vs extra power fractions of PacQ's units."""
    breakdowns = fig9_breakdowns(weight_bits=4)
    paper = {
        "Parallel INT11 MUL": 0.745,
        "Parallel FP-INT-16 MUL (INT4)": 0.727,
        "Parallel FP-INT-16 DP-4": 0.602,
    }
    rows = [
        ResultRow(b.unit, b.reused_fraction, paper.get(b.unit), "fraction")
        for b in breakdowns
    ]
    rows.append(
        ResultRow("average reuse ratio", average_reuse(breakdowns), 0.69, "fraction")
    )
    return ExperimentResult("fig9", "Power breakdown: reused vs extra resources", tuple(rows))


# ---------------------------------------------------------------------------
# Fig. 10 — end-to-end EDP on the Llama2-7B FFN workload.
# ---------------------------------------------------------------------------


@register_experiment(
    artifact="Fig. 10",
    headline="end-to-end EDP reduction on the Llama2-7B FFN (paper: -70.4%/-81.4%)",
    tolerance=0.15,
)
def fig10(shape: GemmShape | None = None) -> ExperimentResult:
    """Reproduces Fig. 10: normalized EDP of PacQ vs baselines, m16n4096k4096."""
    workload = shape if shape is not None else fig10_workload()
    rows = []
    for bits, paper_reduction in ((4, 0.704), (2, 0.814)):
        std = evaluate(standard_dequant(bits), workload)
        packed_k = evaluate(packed_k_baseline(bits), workload)
        ours = evaluate(pacq(bits), workload)
        rows.append(
            ResultRow(f"INT{bits} standard (normalized EDP)", 1.0, 1.0, "x")
        )
        rows.append(
            ResultRow(
                f"INT{bits} P(B{16 // bits})k (normalized EDP)",
                packed_k.edp / std.edp,
                None,
                "x",
            )
        )
        rows.append(
            ResultRow(
                f"INT{bits} PacQ (normalized EDP)", ours.edp / std.edp, None, "x"
            )
        )
        rows.append(
            ResultRow(
                f"INT{bits} PacQ EDP reduction",
                1.0 - ours.edp / std.edp,
                paper_reduction,
                "fraction",
            )
        )
    return ExperimentResult(
        "fig10", f"Normalized EDP on {workload.name} (Llama2-7B FFN, batch 16)", tuple(rows)
    )


# ---------------------------------------------------------------------------
# Fig. 11 — adder-tree duplication ablation.
# ---------------------------------------------------------------------------


@register_experiment(
    artifact="Fig. 11",
    headline="adder-tree duplication knee at dup-2 (paper: 1.33x then 1.11x)",
    tolerance=0.35,
)
def fig11(duplications: tuple[int, ...] = (1, 2, 4, 8)) -> ExperimentResult:
    """Reproduces Fig. 11: throughput/watt vs adder-tree duplication."""
    tech = DEFAULT_TECH
    base_dp = dp_unit(width=4, pack=1, dup=1, tech=tech)
    base_flow = FlowConfig(FlowKind.STANDARD_DEQUANT, 16)
    base_cycles = _octet_latency(base_flow, dup=1)
    base_tpw = (1.0 / base_cycles) / base_dp.energy_per_op

    rows = []
    paper_steps = {4: {2: 1.33, 4: 1.11}, 2: {2: 1.38, 4: 1.18}}
    for bits in (4, 2):
        pack = 16 // bits
        tpw_by_dup = {}
        for dup in duplications:
            ours_dp = dp_unit(width=4, pack=pack, dup=dup, tech=tech)
            cycles = _octet_latency(FlowConfig(FlowKind.PACQ, bits), dup=dup)
            tpw_by_dup[dup] = (1.0 / cycles) / ours_dp.energy_per_op
            rows.append(
                ResultRow(
                    f"INT{bits} dup={dup} (T/W vs baseline)",
                    tpw_by_dup[dup] / base_tpw,
                    None,
                    "x",
                )
            )
        for step, paper_gain in paper_steps[bits].items():
            if step in tpw_by_dup and step // 2 in tpw_by_dup:
                rows.append(
                    ResultRow(
                        f"INT{bits} gain dup{step // 2}->dup{step}",
                        tpw_by_dup[step] / tpw_by_dup[step // 2],
                        paper_gain,
                        "x",
                    )
                )
    return ExperimentResult(
        "fig11", "Adder-tree duplication ablation, m16n16k16", tuple(rows)
    )


# ---------------------------------------------------------------------------
# Fig. 12 — DP-unit size study and Mix-GEMM comparison.
# ---------------------------------------------------------------------------


@register_experiment(
    artifact="Fig. 12(a)",
    headline="PacQ gains orthogonal to DP-unit width (DP-8 vs DP-16)",
)
def fig12a(widths: tuple[int, ...] = (8, 16)) -> ExperimentResult:
    """Reproduces Fig. 12(a): near-identical PacQ gains on DP-8 / DP-16 units."""
    tech = DEFAULT_TECH
    rows = []
    work = TileWork(outputs=64, k=16)  # one octet quadrant of m16n16k16
    for width in widths:
        base_dp = dp_unit(width=width, pack=1, dup=1, tech=tech)
        base_cycles = cycles_for(DpConfig(width, 1, 1), work).total
        base_tpw = (work.outputs / base_cycles) / base_dp.energy_per_op
        for bits in (4, 2):
            pack = 16 // bits
            ours_dp = dp_unit(width=width, pack=pack, dup=2, tech=tech)
            ours_cycles = cycles_for(DpConfig(width, pack, 2), work).total
            tpw = (work.outputs / ours_cycles) / ours_dp.energy_per_op
            rows.append(
                ResultRow(f"DP-{width} INT{bits} (T/W vs DP-{width} baseline)",
                          tpw / base_tpw, None, "x")
            )
    return ExperimentResult(
        "fig12a", "Effect of DP-unit size (gains orthogonal to width)", tuple(rows)
    )


@register_experiment(
    artifact="Fig. 12(b)",
    headline="throughput/watt vs Mix-GEMM (paper: 4.12x INT4, 3.75x INT2)",
    tolerance=0.10,
)
def fig12b() -> ExperimentResult:
    """Reproduces Fig. 12(b): PacQ vs Mix-GEMM throughput/watt, m16n16k16."""
    tech = DEFAULT_TECH
    rows = []
    for bits, paper_gain in ((4, 4.12), (2, 3.75)):
        pack = 16 // bits
        ours_dp = dp_unit(width=4, pack=pack, dup=2, tech=tech)
        work = TileWork(outputs=64, k=16)
        cycles = cycles_for(DpConfig(4, pack, 2), work).total
        # Products-per-energy basis on both sides (lane count cancels).
        pacq_tpw = (work.products / cycles) / ours_dp.energy_per_op
        mix = mixgemm_point(bits, tech)
        gain = pacq_tpw / mix.throughput_per_watt
        rows.append(ResultRow(f"INT{bits} PacQ vs Mix-GEMM", gain, paper_gain, "x"))
    return ExperimentResult(
        "fig12b", "PacQ vs Mix-GEMM (binary segmentation), FP16 activations", tuple(rows)
    )


#: Plain name -> callable view of the paper experiments (backward
#: compatibility; the metadata-carrying registry is
#: :data:`EXPERIMENT_REGISTRY`).
ALL_EXPERIMENTS = {
    name: exp.runner
    for name, exp in sorted(EXPERIMENT_REGISTRY.items())
    if not exp.extension
}
