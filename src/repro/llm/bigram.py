"""A bigram language model expressed as a GEMM (Table II substrate).

The model is ``logits(t) = embed(t) @ W`` with a fixed FP16 embedding
``E [vocab, d]`` and an LM-head weight ``W [d, vocab]``.  Instead of
fitting ``W`` to an external corpus (offline we have none, and an
inverse-solve would be pathologically quantization-brittle), the
language is defined **by the model itself**: the true next-token
distribution is ``softmax(E[t] @ W)`` and the evaluation corpus is
sampled from it.  The full-precision model is therefore perfectly
calibrated, its weights have the benign statistics of trained LLM
matrices (zero-mean, per-channel scale variation), and any perplexity
increase is attributable purely to weight quantization.

Per-column scales follow a Zipf-like profile so output channels differ
in dynamic range — the property that makes quantization-group *shape*
(``g128`` vs ``g[32,4]``, Table II) a meaningful variable.

Prediction through the model is exactly a hyper-asymmetric GEMM over
``W``; the quantized path routes through the GEMM execution engine
(:mod:`repro.engine`, one cached plan per head), i.e. PacQ's compute
stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import DEFAULT_BACKEND
from repro.errors import ConfigError
from repro.llm.corpus import SyntheticLanguage, _stationary_distribution
from repro.quant.rtn import QuantizedMatrix

#: Target standard deviation of the logits (sets language entropy).
LOGIT_STD = 2.6
#: Zipf exponent of the per-output-channel weight scales.
COLUMN_SCALE_EXPONENT = 0.35


@dataclass(frozen=True)
class BigramLm:
    """The GEMM-shaped bigram model.

    Attributes:
        embedding: ``[vocab, d]`` FP16 activations (``A`` operands).
        head: ``[d, vocab]`` float64 LM-head weights (``B`` operands,
            the matrix the experiments quantize).
    """

    embedding: np.ndarray
    head: np.ndarray

    @property
    def vocab(self) -> int:
        return int(self.embedding.shape[0])

    @property
    def d_model(self) -> int:
        return int(self.embedding.shape[1])

    def logits(self, tokens: np.ndarray) -> np.ndarray:
        """Full-precision logits for a batch of context tokens."""
        # detlint: ignore[D001]: full-precision oracle path — quantized
        # serving routes through repro.engine (see logits_quantized).
        return self.embedding[tokens].astype(np.float64) @ self.head

    def serve(self, qhead, backend: str = DEFAULT_BACKEND):
        """A :class:`~repro.model.session.MatrixSession` over the head.

        ``qhead`` is a :class:`~repro.quant.rtn.QuantizedMatrix` or a
        :class:`~repro.model.policy.QuantizedLayer` (policy output,
        AWQ equalization scales applied to activations at execution).
        The session precompiles the head's plan (cached by the engine);
        its ``telemetry`` view counts the batches executed through it.
        """
        from repro.model.session import MatrixSession

        return MatrixSession(qhead, backend=backend, name="head")

    def logits_quantized(
        self, tokens: np.ndarray, qhead: QuantizedMatrix, mode: str = DEFAULT_BACKEND
    ) -> np.ndarray:
        """Logits through the PacQ hyper-asymmetric GEMM path.

        Routes through a single-matrix serving session
        (:meth:`serve`); plans for ``qhead`` are cached by the engine,
        so batched evaluation loops plan once and execute per batch.
        ``mode`` is an engine backend name.  Callers that want
        cumulative telemetry should hold their own :meth:`serve`
        session instead.
        """
        return self.serve(qhead, backend=mode)(self.embedding[tokens])

    def language(self) -> SyntheticLanguage:
        """The true next-token process implied by the model."""
        # detlint: ignore[D001]: defines the true next-token process — one
        # full-matrix product at a fixed shape, never a served path.
        logits = self.embedding.astype(np.float64) @ self.head
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        # detlint: ignore[D003]: per-row reduction over the fixed vocab axis.
        probs /= probs.sum(axis=1, keepdims=True)
        return SyntheticLanguage(
            transition=probs, stationary=_stationary_distribution(probs)
        )


def make_bigram_lm(vocab: int = 256, d_model: int = 512, seed: int = 11) -> BigramLm:
    """Build the self-calibrated bigram LM.

    The head is zero-mean Gaussian with Zipfian per-column scales,
    globally rescaled so the logits have ``LOGIT_STD`` — realistic LLM
    weight statistics with controlled language entropy.
    """
    if vocab < 8 or d_model < 8:
        raise ConfigError("vocab and d_model must be >= 8")
    rng = np.random.default_rng(seed)
    embedding = rng.normal(size=(vocab, d_model)).astype(np.float16)

    column_scales = (1.0 + np.arange(vocab)) ** -COLUMN_SCALE_EXPONENT
    rng.shuffle(column_scales)
    head = rng.normal(size=(d_model, vocab)) * column_scales[None, :]

    # detlint: ignore[D001]: seeded weight synthesis at a fixed shape — the
    # result *is* the model definition, not a computation over it.
    logits = embedding.astype(np.float64) @ head
    head = head * (LOGIT_STD / logits.std())
    return BigramLm(embedding=embedding, head=head)


def fit_bigram_lm(
    language: SyntheticLanguage, d_model: int | None = None, seed: int = 11
) -> BigramLm:
    """Least-squares fit of an LM head to an *external* language.

    Kept for completeness (and to demonstrate why Table II uses the
    self-calibrated construction): the inverse-solve produces heads
    whose logits are extremely sensitive to weight perturbations, so
    4-bit quantization destroys them — see the tests.
    """
    vocab = language.vocab
    d = vocab if d_model is None else d_model
    if d < 2:
        raise ConfigError("d_model must be >= 2")
    rng = np.random.default_rng(seed)
    embedding = rng.normal(size=(vocab, d)).astype(np.float16).astype(np.float64)
    log_probs = np.log(np.maximum(language.transition, 1e-6))
    head, *_ = np.linalg.lstsq(embedding, log_probs, rcond=None)
    return BigramLm(embedding=embedding.astype(np.float16), head=head)
