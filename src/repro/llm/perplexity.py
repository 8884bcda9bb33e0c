"""Perplexity evaluation through the quantized GEMM path (Table II)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import DEFAULT_BACKEND
from repro.errors import ConfigError
from repro.llm.bigram import BigramLm
from repro.quant.groups import GroupSpec
from repro.quant.rtn import quantize_rtn


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    # detlint: ignore[D003]: per-row reduction over the fixed vocab axis.
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def perplexity_from_logits(logits: np.ndarray, targets: np.ndarray) -> float:
    """``exp(mean NLL)`` of targets under the model's logits."""
    if logits.shape[0] != targets.shape[0]:
        raise ConfigError("logits/targets length mismatch")
    log_probs = _log_softmax(logits)
    nll = -log_probs[np.arange(targets.shape[0]), targets]
    return float(np.exp(nll.mean()))


def evaluate_perplexity(
    model: BigramLm,
    tokens: np.ndarray,
    batch: int = 256,
    quantized=None,
    mode: str = DEFAULT_BACKEND,
) -> float:
    """Perplexity of a token stream, optionally through quantized weights.

    ``quantized`` is a :class:`repro.quant.rtn.QuantizedMatrix` (or a
    policy-produced :class:`repro.model.policy.QuantizedLayer`) for the
    LM head; when given, every logits GEMM runs through one serving
    session (:meth:`repro.llm.bigram.BigramLm.serve`) over the
    execution engine (:mod:`repro.engine`) — the PacQ compute path.
    The head is planned once and executed per batch; ``mode`` is an
    engine backend name.
    """
    session = None if quantized is None else model.serve(quantized, backend=mode)
    contexts = tokens[:-1]
    targets = tokens[1:]
    nll_sum = 0.0
    count = 0
    for start in range(0, contexts.shape[0], batch):
        ctx = contexts[start : start + batch]
        tgt = targets[start : start + batch]
        if session is None:
            logits = model.logits(ctx)
        else:
            logits = session(model.embedding[ctx])
        log_probs = _log_softmax(logits)
        # detlint: ignore[D003]: scalar NLL accumulator — perplexity is a
        # tolerance-checked metric, not a bit-exact artifact.
        nll_sum += float(-log_probs[np.arange(tgt.shape[0]), tgt].sum())
        count += tgt.shape[0]
    return float(np.exp(nll_sum / count))


@dataclass(frozen=True)
class PerplexityRow:
    """One Table II cell: a configuration and its measured perplexity."""

    label: str
    bits: int | None  #: None for the FP16 reference
    perplexity: float


def table2_rows(
    model: BigramLm,
    tokens: np.ndarray,
    specs: tuple[GroupSpec, ...],
    bits: int = 4,
    symmetric: bool = False,
    mode: str = DEFAULT_BACKEND,
) -> list[PerplexityRow]:
    """The Table II sweep: FP16 reference + each group geometry.

    ``mode`` selects the engine backend every quantized GEMM runs
    through (``"batched"``/``"bitexact-scalar"`` are bit-identical).
    """
    rows = [
        PerplexityRow("fp16", None, evaluate_perplexity(model, tokens))
    ]
    for spec in specs:
        qhead = quantize_rtn(model.head, bits=bits, group=spec, symmetric=symmetric)
        ppl = evaluate_perplexity(model, tokens, quantized=qhead, mode=mode)
        rows.append(PerplexityRow(spec.label, bits, ppl))
    return rows
