"""Declarative model-level quantization policies.

A :class:`QuantPolicy` maps layer names to quantization recipes: each
:class:`LayerRule` pairs a glob pattern (``fnmatch`` over qualified
layer names like ``layer0.w_gate``) with a recipe — bit-width,
:class:`~repro.quant.groups.GroupSpec` geometry, symmetric flag, and
algorithm (``rtn`` / ``awq`` / ``fp16``).  Mixed-precision models
(INT2 FFN + INT4 attention, FP16-kept projections) are therefore one
declarative object instead of bespoke per-layer loops, and the same
object serializes into the checkpoint manifest
(:mod:`repro.model.checkpoint`) so a served model records exactly how
it was quantized.

Rules are matched first-to-last; layers no rule matches are *kept* in
FP16 (the reference fallback path of the decoder), which makes
"quantize everything except the gate" policies a one-liner.

The textual grammar (CLI ``--policy``, harness sweep axes)::

    policy  := clause (";" clause)*
    clause  := [pattern "="] recipe
    recipe  := "fp16" | alg bits ["@" group] [":sym"]
    alg     := "rtn" | "awq" | "int"        (int is an alias of rtn)
    group   := paper-style label, e.g. g128 or g[32,4]

Examples: ``rtn4@g[32,4]`` (uniform INT4), ``awq4@g128:sym``, and the
mixed ``layer*.w_gate=int2@g[32,4];layer*.w_up=int2@g[32,4];*=int4@g128``.
A clause without a pattern applies to every layer (``*``).

:func:`quantize_model` applies a policy to a weight set — either a
:class:`~repro.llm.transformer.DecoderWeights` or a plain
``name -> [k, n] ndarray`` mapping — and returns a
:class:`QuantizedModel` bundling the per-layer
:class:`~repro.quant.rtn.QuantizedMatrix`, AWQ equalization scales
(applied to activations at serve time, equivalent to folding them
upstream) and a per-layer quantization-error report.
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.errors import QuantizationError
from repro.llm.transformer import DecoderWeights, TransformerConfig
from repro.quant.algorithms import awq_dequantize, awq_quantize
from repro.quant.error import QuantErrorReport, mse, sqnr_db
from repro.quant.groups import GroupSpec, spec_from_label
from repro.quant.rtn import QuantizedMatrix, quantize_rtn

#: Algorithms a rule may name.  ``fp16`` keeps the layer unquantized.
ALGORITHMS = ("rtn", "awq", "fp16")

#: Bit-widths the GEMM execution engine can serve (plans reject others).
SERVABLE_BITS = (2, 4)

#: Default group geometry of a recipe that names none (the paper's
#: PacQ-friendly g[32,4]).
DEFAULT_GROUP = GroupSpec(32, 4)


@dataclass(frozen=True)
class LayerRule:
    """One policy clause: a layer-name pattern and its recipe."""

    pattern: str = "*"
    bits: int = 4
    group: GroupSpec = DEFAULT_GROUP
    symmetric: bool = False
    algorithm: str = "rtn"

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise QuantizationError(
                f"unknown policy algorithm {self.algorithm!r} "
                f"(one of: {', '.join(ALGORITHMS)})"
            )
        if self.algorithm != "fp16" and self.bits not in SERVABLE_BITS:
            raise QuantizationError(
                f"policy bits must be one of {SERVABLE_BITS} (the widths the "
                f"execution engine serves), got {self.bits}"
            )

    def matches(self, name: str) -> bool:
        """Whether this rule applies to a qualified layer name."""
        return fnmatch.fnmatchcase(name, self.pattern)

    @property
    def recipe(self) -> str:
        """Canonical recipe text (the grammar's right-hand side)."""
        if self.algorithm == "fp16":
            return "fp16"
        text = f"{self.algorithm}{self.bits}@{self.group.label}"
        return text + (":sym" if self.symmetric else "")

    @property
    def label(self) -> str:
        """Canonical clause text, pattern included unless it is ``*``."""
        if self.pattern == "*":
            return self.recipe
        return f"{self.pattern}={self.recipe}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "pattern": self.pattern,
            "bits": self.bits,
            "group": {"k": self.group.k, "n": self.group.n},
            "symmetric": self.symmetric,
            "algorithm": self.algorithm,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LayerRule":
        group = data.get("group", {"k": DEFAULT_GROUP.k, "n": DEFAULT_GROUP.n})
        return cls(
            pattern=str(data.get("pattern", "*")),
            bits=int(data.get("bits", 4)),
            group=GroupSpec(int(group["k"]), int(group["n"])),
            symmetric=bool(data.get("symmetric", False)),
            algorithm=str(data.get("algorithm", "rtn")),
        )


_RECIPE_RE = re.compile(r"(rtn|awq|int)(\d+)(?:@(g[^:]+))?", re.IGNORECASE)


def _parse_recipe(text: str, pattern: str) -> LayerRule:
    body = text.strip().lower()
    symmetric = body.endswith(":sym")
    if symmetric:
        body = body[: -len(":sym")]
    if body == "fp16":
        if symmetric:
            raise QuantizationError("fp16 recipe takes no :sym flag")
        return LayerRule(pattern=pattern, bits=4, algorithm="fp16")
    match = _RECIPE_RE.fullmatch(body)
    if match is None:
        raise QuantizationError(
            f"malformed policy recipe {text!r} (expected e.g. 'rtn4@g[32,4]', "
            "'awq4@g128:sym' or 'fp16')"
        )
    alg, bits, group_label = match.groups()
    return LayerRule(
        pattern=pattern,
        bits=int(bits),
        group=spec_from_label(group_label) if group_label else DEFAULT_GROUP,
        symmetric=symmetric,
        algorithm="rtn" if alg == "int" else alg,
    )


@dataclass(frozen=True)
class QuantPolicy:
    """An ordered rule list; first matching rule wins per layer."""

    rules: tuple[LayerRule, ...]

    def __post_init__(self) -> None:
        if not self.rules:
            raise QuantizationError("a policy needs at least one rule")

    @classmethod
    def uniform(
        cls,
        bits: int = 4,
        group: GroupSpec = DEFAULT_GROUP,
        symmetric: bool = False,
        algorithm: str = "rtn",
    ) -> "QuantPolicy":
        """One recipe for every layer."""
        return cls(
            rules=(
                LayerRule(
                    pattern="*",
                    bits=bits,
                    group=group,
                    symmetric=symmetric,
                    algorithm=algorithm,
                ),
            )
        )

    def rule_for(self, name: str) -> LayerRule | None:
        """First rule matching ``name``; ``None`` keeps the layer FP16."""
        for rule in self.rules:
            if rule.matches(name):
                return rule
        return None

    @property
    def label(self) -> str:
        """Canonical policy text (round-trips through :func:`parse_policy`)."""
        return ";".join(rule.label for rule in self.rules)

    def to_dict(self) -> dict[str, Any]:
        return {"rules": [rule.to_dict() for rule in self.rules]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QuantPolicy":
        return cls(
            rules=tuple(LayerRule.from_dict(r) for r in data.get("rules", ()))
        )


def parse_policy(text: str) -> QuantPolicy:
    """Parse the textual policy grammar (see module docstring)."""
    rules = []
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        pattern, sep, recipe = clause.partition("=")
        if not sep:
            pattern, recipe = "*", clause
        pattern = pattern.strip()
        if not pattern or not recipe.strip():
            raise QuantizationError(f"malformed policy clause {clause!r}")
        rules.append(_parse_recipe(recipe, pattern))
    if not rules:
        raise QuantizationError(f"policy text {text!r} contains no clauses")
    return QuantPolicy(rules=tuple(rules))


@dataclass(frozen=True)
class QuantizedLayer:
    """One quantized layer: matrix, provenance rule, error report.

    ``channel_scales`` carries AWQ's per-input-channel equalization
    scales when the rule's algorithm searched them; the serving path
    divides activations by them before the GEMM (mathematically the
    fold-into-the-previous-layer deployment, applied at runtime).
    ``None`` means no activation scaling is needed.
    """

    name: str
    matrix: QuantizedMatrix
    rule: LayerRule
    report: QuantErrorReport | None
    channel_scales: np.ndarray | None = None

    @property
    def weight_bits(self) -> int:
        """Storage footprint of this layer (codes + metadata), bits."""
        return self.matrix.storage_bits()


@dataclass
class QuantizedModel:
    """A policy applied to a whole model: the serving-shaped bundle.

    Attributes:
        layers: qualified layer name -> :class:`QuantizedLayer`.
        policy: the policy that produced the bundle.
        config: decoder dimensions when the weights came from a
            :class:`~repro.llm.transformer.DecoderWeights` model
            (``None`` for raw matrix mappings).
        weights: what a session reads of the source weights: the
            embedding, norms and FP16-kept masters, in a new
            ``DecoderWeights`` whose blocks hold only the
            ``kept_fp16`` layers (required to build an inference
            session).
        kept_fp16: layer names no rule quantized (served via the
            FP16-rounded reference fallback).
    """

    layers: dict[str, QuantizedLayer]
    policy: QuantPolicy
    config: TransformerConfig | None = None
    weights: DecoderWeights | None = None
    kept_fp16: tuple[str, ...] = ()

    def matrices(self) -> dict[str, QuantizedMatrix]:
        """Name -> quantized matrix, for every quantized layer."""
        return {name: layer.matrix for name, layer in self.layers.items()}

    def activation_scales(self) -> dict[str, np.ndarray]:
        """Name -> AWQ equalization scales, for layers that carry them."""
        return {
            name: layer.channel_scales
            for name, layer in self.layers.items()
            if layer.channel_scales is not None
        }

    def reports(self) -> dict[str, QuantErrorReport]:
        """Name -> per-layer quantization-error report (where computed)."""
        return {
            name: layer.report
            for name, layer in self.layers.items()
            if layer.report is not None
        }

    def quantized_bits(self) -> int:
        """Total storage of all quantized layers (codes + metadata), bits."""
        return sum(layer.weight_bits for layer in self.layers.values())

    def summary_rows(self) -> list[list[object]]:
        """Printable per-layer summary (CLI ``quantize`` table)."""
        rows: list[list[object]] = []
        for name, layer in self.layers.items():
            rows.append(
                [
                    name,
                    layer.rule.recipe,
                    "-" if layer.report is None else f"{layer.report.sqnr_db:.1f}",
                    "-" if layer.report is None else f"{layer.report.mse:.3e}",
                ]
            )
        for name in self.kept_fp16:
            rows.append([name, "fp16", "-", "-"])
        return rows


def _named_matrices(
    weights: DecoderWeights | Mapping[str, np.ndarray],
) -> list[tuple[str, np.ndarray]]:
    if hasattr(weights, "linear_matrices"):
        return list(weights.linear_matrices())
    return list(weights.items())


def quantize_model(
    weights: DecoderWeights | Mapping[str, np.ndarray],
    policy: QuantPolicy,
    config: TransformerConfig | None = None,
    calibration: Mapping[str, np.ndarray] | None = None,
    compute_reports: bool = True,
) -> QuantizedModel:
    """Apply a policy to every linear layer of a model.

    Args:
        weights: a :class:`~repro.llm.transformer.DecoderWeights` (every
            ``linear_matrices()`` entry is considered) or a plain
            ``name -> [k, n] ndarray`` mapping.
        policy: the declarative recipe set; unmatched layers are kept
            FP16.
        config: decoder dimensions, recorded for checkpointing/serving.
        calibration: optional per-layer ``[k]`` activation-magnitude
            profiles for ``awq`` rules (e.g. mean absolute activation
            per input channel).  An ``awq`` layer without a profile
            degenerates to RTN (uniform importance).
        compute_reports: build a per-layer quantization-error report
            (an extra dequantize + full-matrix statistics per layer);
            pass ``False`` when only the matrices are needed.

    Group extents are clipped to each layer's dimensions, so one spec
    covers layers of different shapes.
    """
    layers: dict[str, QuantizedLayer] = {}
    kept: list[str] = []
    for name, weight in _named_matrices(weights):
        rule = policy.rule_for(name)
        if rule is None or rule.algorithm == "fp16":
            kept.append(name)
            continue
        k_dim, n_dim = weight.shape
        group = GroupSpec(min(rule.group.k, k_dim), min(rule.group.n, n_dim))
        channel_scales: np.ndarray | None = None
        if rule.algorithm == "awq":
            profile = None if calibration is None else calibration.get(name)
            if profile is None:
                profile = np.ones(k_dim)
            result = awq_quantize(
                weight,
                np.asarray(profile, dtype=np.float64),
                bits=rule.bits,
                group=group,
                symmetric=rule.symmetric,
            )
            qm = result.quantized
            recon = awq_dequantize(result) if compute_reports else None
            if not np.all(result.channel_scales == 1.0):
                channel_scales = result.channel_scales
        else:
            qm = quantize_rtn(
                weight, bits=rule.bits, group=group, symmetric=rule.symmetric
            )
            recon = qm.dequantize() if compute_reports else None
        report = None
        if recon is not None:
            report = QuantErrorReport(
                label=f"{name}:{rule.recipe}",
                bits=rule.bits,
                mse=mse(weight, recon),
                sqnr_db=sqnr_db(weight, recon),
                max_abs_err=float(np.max(np.abs(weight - recon))),
            )
        layers[name] = QuantizedLayer(
            name=name,
            matrix=qm,
            rule=rule,
            report=report,
            channel_scales=channel_scales,
        )
    return QuantizedModel(
        layers=layers,
        policy=policy,
        config=config,
        weights=_kept_weights(weights, kept),
        kept_fp16=tuple(kept),
    )


def _kept_weights(
    weights: DecoderWeights | Mapping[str, np.ndarray], kept: list[str]
) -> DecoderWeights | None:
    """The parameters a session reads: all but the quantized masters.

    A new :class:`~repro.llm.transformer.DecoderWeights` sharing the
    caller's embedding, norms and FP16-kept masters; the float64 master
    of every quantized layer is left out (its plan serves it), so the
    model does not hold it alive.  ``None`` for a raw matrix mapping.
    """
    if not isinstance(weights, DecoderWeights):
        return None
    names = set(kept)
    blocks = [
        {short: w for short, w in block.items() if f"layer{i}.{short}" in names}
        for i, block in enumerate(weights.blocks)
    ]
    return DecoderWeights(
        weights.embedding, blocks, weights.final_norm, list(weights.norms)
    )
