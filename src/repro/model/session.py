"""Inference sessions: serving-shaped execution over quantized models.

Two session flavours over the GEMM execution engine:

* :class:`MatrixSession` — one quantized matrix behind a precompiled
  :class:`~repro.engine.GemmPlan` (the bigram LM head, any single-layer
  workload).  Applies AWQ equalization scales to activations when the
  layer carries them.
* :class:`InferenceSession` — a whole quantized decoder.  Precompiles
  every layer's plan at construction, owns a 1-slot
  :class:`~repro.llm.transformer.BatchedKVCache` (the serving layer's
  cache, one sequence wide), and exposes
  :meth:`InferenceSession.prefill` / :meth:`InferenceSession.decode_step`
  / :meth:`InferenceSession.generate` (greedy and top-k sampling) so
  per-token cost is O(1) GEMM work instead of an O(seq) full
  re-forward — while every logits row stays bit-identical to
  :meth:`~repro.llm.transformer.Decoder.forward` on the concatenated
  sequence (see the transformer module docstring for why).  Its
  ``generate`` is the solo-decode oracle every served stream is
  checked against.

Both expose per-layer :class:`Telemetry` — GEMM count, ``m/n/k``,
MACs, weight/activation bytes moved — read from the engine plans'
phase-tagged histograms (the one record of GEMM work).  The aggregate
converts to the :class:`~repro.simt.memoryhier.GemmShape` objects that
:func:`repro.core.metrics.evaluate`, :func:`repro.core.roofline.analyze`
and the :mod:`repro.energy` cost model price.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import (
    DEFAULT_BACKEND,
    diff_plan_histograms,
    get_backend,
    plan_dims,
    plan_gemm,
    plan_histograms,
)
from repro.errors import ConfigError
from repro.llm.transformer import Decoder
from repro.model.policy import QuantizedModel
from repro.simt.memoryhier import GemmShape


def build_decoder(model: QuantizedModel, backend: str) -> Decoder:
    """The decoder every session over ``model`` runs on ``backend``.

    Only a model quantized from a
    :class:`~repro.llm.transformer.DecoderWeights` with ``config=...``
    carries the dimensions and weights a decoder needs.
    """
    if model.config is None or model.weights is None:
        raise ConfigError(
            "a session needs decoder config and weights; "
            "quantize a DecoderWeights with config=..."
        )
    return Decoder(model.config, model.weights, model, backend=backend)


def check_tokens(tokens: np.ndarray, vocab: int) -> np.ndarray:
    """Validate a 1-D integer token sequence against a vocab size.

    Shared by :class:`InferenceSession` and the serving layer
    (:mod:`repro.serve`), so every entry point rejects malformed
    prompts with the same errors.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 1 or tokens.shape[0] < 1:
        raise ConfigError("expected a non-empty 1-D token sequence")
    if not np.issubdtype(tokens.dtype, np.integer):
        raise ConfigError(f"token ids must be integers, got dtype {tokens.dtype}")
    if tokens.min() < 0 or tokens.max() >= vocab:
        raise ConfigError(f"token ids must lie in [0, {vocab})")
    return tokens


def select_token(
    logits: np.ndarray,
    rng: np.random.Generator,
    top_k: int | None,
    temperature: float,
) -> int:
    """Pick the next token from one logits row.

    ``top_k=None`` is greedy argmax (deterministic, ``rng`` unused);
    otherwise top-k sampling at the given temperature.  The single
    sampling implementation behind :meth:`InferenceSession.generate`
    and the per-request sampling of :class:`repro.serve.Scheduler`,
    so a request decodes to the same tokens whichever layer serves it.
    """
    if top_k is None:
        return int(np.argmax(logits))
    if top_k < 1:
        raise ConfigError("top_k must be >= 1")
    if temperature <= 0:
        raise ConfigError("temperature must be > 0")
    k = min(top_k, logits.shape[0])
    candidates = np.argpartition(logits, -k)[-k:]
    shifted = logits[candidates] / temperature
    shifted = shifted - shifted.max()
    probs = np.exp(shifted)
    # detlint: ignore[D003]: fixed-length top-k reduction (k <= vocab rows).
    probs /= probs.sum()
    return int(rng.choice(candidates, p=probs))


@dataclass(frozen=True)
class GemmStat:
    """Per-site GEMM totals of one :class:`Telemetry` view."""

    name: str
    n: int
    k: int
    calls: int
    rows: int  #: total activation rows (sum of m over calls)
    macs: int
    weight_bytes: float  #: quantized storage moved, summed over calls
    activation_bytes: float  #: FP16 activation traffic (2 B/element)

    def shape(self, pad_to: int = 1) -> GemmShape:
        """The site's aggregate GEMM (all calls fused along ``m``).

        ``pad_to`` rounds every dimension up to a multiple (the SIMT
        simulator only accepts shapes tileable by its warp MMA, e.g.
        ``pad_to=16`` for m16n16k16).
        """
        def up(value: int) -> int:
            return max(pad_to, -(-value // pad_to) * pad_to)

        return GemmShape(m=up(max(self.rows, 1)), n=up(self.n), k=up(self.k))


class Telemetry:
    """Per-site GEMM totals: a read-only view of the engine's ledger.

    The only record of GEMM work is each plan's phase-tagged ``{m:
    count}`` histogram (:meth:`~repro.engine.GemmPlan.execute`).  This
    view sums a :func:`~repro.engine.plan_histograms` snapshot into one
    :class:`GemmStat` per executed site, with ``n``/``k`` and storage
    bits from :func:`~repro.engine.plan_dims`.  Sessions build it with
    :meth:`since` against a snapshot taken at their construction, so
    the view counts only that session's work even though plans are
    shared per matrix.  FP16-kept linears have no plan and do not
    appear.

    Feeds the cost models: :meth:`gemm_shapes` returns one aggregate
    :class:`~repro.simt.memoryhier.GemmShape` per site, ready for
    ``evaluate(arch, shape)`` / ``analyze(arch, shape)``.
    """

    def __init__(self, histograms: dict, dims: dict) -> None:
        self.stats: dict[str, GemmStat] = {}
        for name, snap in histograms.items():
            calls = sum(snap["rows"].values())
            if not calls:
                continue
            rows = sum(m * count for m, count in snap["rows"].items())
            site = dims[name]
            self.stats[name] = GemmStat(
                name=name,
                n=site["n"],
                k=site["k"],
                calls=calls,
                rows=rows,
                macs=rows * site["n"] * site["k"],
                weight_bytes=calls * site["storage_bits"] / 8,
                activation_bytes=float(2 * rows * site["k"]),
            )

    @classmethod
    def since(cls, plans: dict, baseline: dict) -> "Telemetry":
        """The work ``plans`` executed after the ``baseline`` snapshot."""
        now = plan_histograms(plans)
        return cls(diff_plan_histograms(now, baseline), plan_dims(plans))

    @property
    def gemm_calls(self) -> int:
        return sum(s.calls for s in self.stats.values())

    @property
    def total_macs(self) -> int:
        return sum(s.macs for s in self.stats.values())

    @property
    def total_weight_bytes(self) -> float:
        return sum(s.weight_bytes for s in self.stats.values())

    def gemm_shapes(self, pad_to: int = 1) -> list[tuple[str, GemmShape]]:
        """One aggregate shape per site, in plan order.

        Pass ``pad_to=16`` to hand the shapes straight to the cost
        models (:func:`repro.core.metrics.evaluate`,
        :func:`repro.core.roofline.analyze`), whose simulator tiles by
        m16n16k16.
        """
        return [(name, stat.shape(pad_to)) for name, stat in self.stats.items()]

    def summary_rows(self) -> list[list[object]]:
        """Printable per-site summary (CLI ``generate --telemetry``)."""
        return [
            [
                s.name,
                s.calls,
                s.rows,
                s.n,
                s.k,
                s.macs,
                f"{s.weight_bytes / 1024:.1f}",
                f"{s.activation_bytes / 1024:.1f}",
            ]
            for s in self.stats.values()
        ]


class MatrixSession:
    """One quantized matrix served behind a precompiled plan.

    Accepts a :class:`~repro.quant.rtn.QuantizedMatrix` or a
    :class:`~repro.model.policy.QuantizedLayer` (whose AWQ equalization
    scales, if any, are divided out of the activations before the GEMM
    — the fold-upstream deployment applied at runtime).
    """

    def __init__(
        self, quantized, backend: str = DEFAULT_BACKEND, name: str = "gemm"
    ) -> None:
        get_backend(backend)
        matrix = getattr(quantized, "matrix", quantized)
        scales = getattr(quantized, "channel_scales", None)
        self.name = getattr(quantized, "name", None) or name
        self.backend = backend
        self.plan = plan_gemm(matrix)
        self._ledger_start = plan_histograms({self.name: self.plan})
        self._inv_scales = (
            None if scales is None else 1.0 / np.asarray(scales, dtype=np.float64)
        )

    @property
    def telemetry(self) -> Telemetry:
        """GEMM work executed through this session's plan since it was built."""
        return Telemetry.since({self.name: self.plan}, self._ledger_start)

    def __call__(self, activations: np.ndarray) -> np.ndarray:
        """Execute ``activations @ dequant(B)`` through the engine."""
        a = np.asarray(activations)
        if self._inv_scales is not None:
            a = a * self._inv_scales[None, :]
        return self.plan.execute(a, backend=self.backend)


@dataclass(frozen=True)
class GenerationResult:
    """Outcome of :meth:`InferenceSession.generate`."""

    tokens: np.ndarray  #: prompt + generated tokens
    prompt_length: int

    @property
    def new_tokens(self) -> np.ndarray:
        """The generated continuation only."""
        # detlint: ignore[D007]: slice of the result-owned token array, not
        # pool-backed cache state — nothing mutates it after generate().
        return self.tokens[self.prompt_length :]


class InferenceSession:
    """A quantized decoder ready to serve: plans, cache, sampling.

    Construction precompiles one :class:`~repro.engine.GemmPlan` per
    quantized layer (via the engine's plan cache), snapshots their
    histograms for the :attr:`telemetry` view and claims the one slot
    of a 1-slot KV cache;
    :meth:`prefill` starts a sequence in it, :meth:`decode_step`
    extends it at O(1) GEMM cost per token, and :meth:`generate` wraps
    both with greedy or top-k sampling.
    """

    def __init__(self, model: QuantizedModel, backend: str = DEFAULT_BACKEND) -> None:
        self.model = model
        self.backend = backend
        self.decoder = build_decoder(model, backend)
        self.config = self.decoder.config
        self._ledger_start = plan_histograms(self.decoder.plans)
        self.cache = self.decoder.init_batched_cache(1)
        self._slot = self.cache.allocate()

    @property
    def telemetry(self) -> Telemetry:
        """GEMM work this session's plans executed since it was built."""
        return Telemetry.since(self.decoder.plans, self._ledger_start)

    @classmethod
    def from_checkpoint(
        cls, path, backend: str = DEFAULT_BACKEND
    ) -> "InferenceSession":
        """Load a :func:`repro.model.checkpoint.save_model` directory."""
        from repro.model.checkpoint import load_model

        return cls(load_model(path), backend=backend)

    @property
    def position(self) -> int:
        """Tokens currently in the cache (0 before the first prefill)."""
        return int(self.cache.lengths[self._slot])

    def _check_tokens(self, tokens: np.ndarray) -> np.ndarray:
        return check_tokens(tokens, self.config.vocab)

    def prefill(self, tokens: np.ndarray) -> np.ndarray:
        """Start a new sequence; returns logits for every prompt position."""
        tokens = self._check_tokens(tokens)
        self.cache.truncate(self._slot, 0)
        return self.decoder.prefill_ragged([tokens], self.cache, [self._slot])[0]

    def decode_step(self, token: int) -> np.ndarray:
        """Append one token to the current sequence; returns its logits."""
        if self.position < 1:
            raise ConfigError("decode_step before prefill")
        token = int(token)
        if not 0 <= token < self.config.vocab:
            raise ConfigError(f"token ids must lie in [0, {self.config.vocab})")
        return self.decoder.decode_batch([token], self.cache, [self._slot])[0]

    _select = staticmethod(select_token)

    def generate(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        top_k: int | None = None,
        temperature: float = 1.0,
        seed: int = 0,
    ) -> GenerationResult:
        """Prefill the prompt, then decode ``max_new_tokens`` more.

        ``top_k=None`` decodes greedily (deterministic); otherwise
        sampling is top-k with the given temperature, reproducible per
        ``seed``.
        """
        prompt = self._check_tokens(prompt)
        if max_new_tokens < 1:
            raise ConfigError("max_new_tokens must be >= 1")
        total = prompt.shape[0] + max_new_tokens
        if total > self.config.max_seq:
            raise ConfigError(
                f"prompt + max_new_tokens = {total} exceeds "
                f"max_seq={self.config.max_seq}"
            )
        rng = np.random.default_rng(seed)
        logits = self.prefill(prompt)
        row = logits[-1]
        out = list(prompt)
        for step in range(max_new_tokens):
            token = self._select(row, rng, top_k, temperature)
            out.append(token)
            if step + 1 < max_new_tokens:
                row = self.decode_step(token)
        return GenerationResult(
            tokens=np.asarray(out), prompt_length=prompt.shape[0]
        )
